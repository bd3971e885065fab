"""System construction, membership checks, and export round-trips."""

import hashlib
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    D7_BASIS,
    NON_INTEGERS,
    check_d7_component_basis,
    cubic_pairs_by_scan,
    d7_solution,
    d19_solution,
    d67_solution,
    eval_system,
    evaluate,
    normalize_rescaled,
    parse_poly,
    parse_system,
    poly_line,
    random_complex,
)

from flatsic import (
    Poly,
    PolySystem,
    build_system,
    cvec,
    export_system,
    make_dimension,
    poly,
    system_manifest,
    x_overlap_residual,
    z_shift,
)


def mono(d, *idx):
    e = [0] * d
    for i in idx:
        e[i] += 1
    return tuple(e)


def reference_system(d, m=None):
    """The generator list built term by term with Fraction additions through
    poly(): every ordered pair x_a x_{2j-a} of the X-overlap cubic adds 1."""

    def mono_mod(*idx):
        return mono(d, *(i % d for i in idx))

    gens = []
    for j in range(1, (d - 1) // 2 + 1):
        gens.append(poly(d, {mono_mod(j, d - j): 1, mono_mod(0): 1}))
    gens.append(poly(d, {mono_mod(0, 0): 1, mono_mod(0): 4, mono_mod(): -(d - 3)}))
    for j in range(1, d):
        terms = {}
        for a in range(d):
            key = mono_mod(a, 2 * j - a)
            terms[key] = terms.get(key, Fraction(0)) + 1
        for key in (mono_mod(0, j, j), mono_mod(j, j)):
            terms[key] = terms.get(key, Fraction(0)) - 1
        gens.append(poly(d, terms))
    if m is not None:
        m %= d
        for j in range(1, d):
            if (m * j) % d != j:
                gens.append(poly(d, {mono_mod(j): 1, mono_mod(m * j): -1}))
    return PolySystem(dim=make_dimension(d), polys=tuple(gens), symmetry_multiplier=m)


def sympy_expr(sympy, p):
    """A Poly as a sympy expression in the symbols x0..x_{d-1}."""
    xs = sympy.symbols(f"x0:{p.d}")
    return sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(xs[v] for v in m))
        for m, c in p.monomials.items()
    )


def lex_order(sympy, d):
    """The symbols in the export's variable order x1 > ... > x_{d-1} > x0."""
    xs = sympy.symbols(f"x0:{d}")
    return (*xs[1:], xs[0])


def d7_ghost_points():
    """The two first-component points with x0 > 0, from the quadratic system
    x1 + x6 = 1 - x0/2, x1 x6 = -x0 (independent of the generator builder)."""
    x0 = -2.0 + 2.0 * math.sqrt(2.0)
    b = 1.0 - x0 / 2.0
    root = math.sqrt(b * b + 4.0 * x0)
    points = []
    for sgn in (+1, -1):
        t1 = (b + sgn * root) / 2.0
        t6 = (b - sgn * root) / 2.0
        points.append(np.array([x0, t1, t1, t6, t1, t6, t6], dtype=complex))
    return points


class TestBuildSystem:
    def test_d7_generator_inventory(self):
        system = build_system(7)
        assert len(system.polys) == 3 + 1 + 6
        quad = poly(7, {mono(7, 0, 0): 1, mono(7, 0): 4, mono(7): -4})
        assert quad in system.polys
        for j in range(1, 4):
            assert poly(7, {mono(7, j, 7 - j): 1, mono(7, 0): 1}) in system.polys

    def test_quadratic_scales_with_d(self):
        system = build_system(11)
        quad = poly(11, {mono(11, 0, 0): 1, mono(11, 0): 4, mono(11): -8})
        assert quad in system.polys

    def test_d67_symmetry_constraints(self):
        system = build_system(67, symmetry_multiplier=29)
        assert poly(67, {mono(67, 1): 1, mono(67, 29): -1}) in system.polys
        assert poly(67, {mono(67, 2): 1, mono(67, 58): -1}) in system.polys
        assert system.symmetry_multiplier == 29

    def test_d19_order3_symmetry(self):
        system = build_system(19, symmetry_multiplier=7)
        # 7 has order 3 mod 19, so each j pairs with 7j
        for j in range(1, 19):
            assert poly(19, {mono(19, j): 1, mono(19, (7 * j) % 19): -1}) in system.polys
        sym = [p for p in system.polys if len(p.terms) == 2 and all(c in (1, -1) for c in p.terms.values()) and all(sum(e) == 1 for e in p.terms)]
        assert len(sym) == 18

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_system(12)

    def test_non_coprime_multiplier(self):
        with pytest.raises(ValueError):
            build_system(9, symmetry_multiplier=3)

    # None is the default, no symmetry
    @pytest.mark.parametrize("bad", [b for b in NON_INTEGERS if b is not None])
    def test_non_integral_multiplier(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            build_system(7, symmetry_multiplier=bad)

    def test_monomials_are_variable_indices(self):
        system = build_system(7)
        cubic = system.polys[4 + 2]  # P_3 = 2*x1*x5 + 2*x2*x4 + 2*x6*x0 - x3^2*x0
        assert cubic.monomials == {(6, 0): 2, (1, 5): 2, (2, 4): 2, (3, 3, 0): -1}
        assert system.polys[3].monomials == {(0, 0): 1, (0,): 4, (): -4}
        assert cubic.terms == {mono(7, *m): c for m, c in cubic.monomials.items()}

    def test_poly_converts_exponent_tuples(self):
        p = poly(7, {mono(7, 0, 3, 3): -1, mono(7, 5, 1): 2, mono(7): 0})
        assert p.monomials == {(3, 3, 0): -1, (1, 5): 2}
        assert list(p.terms) == [mono(7, 0, 3, 3), mono(7, 1, 5)]
        with pytest.raises(ValueError, match="nonnegative"):
            poly(3, {(1, -1, 0): 1})
        with pytest.raises(ValueError, match="nonnegative"):
            poly(3, {(1, 0): 1})

    @pytest.mark.parametrize("bad", [*NON_INTEGERS, 1, 0, -3])
    def test_poly_reads_d_as_a_dimension(self, bad):
        with pytest.raises(ValueError, match="^dimension must be"):
            poly(bad, {})

    @pytest.mark.parametrize("bad", [*NON_INTEGERS, 1.5, "2"])
    def test_poly_reads_each_exponent_as_an_integer(self, bad):
        with pytest.raises(ValueError, match="^exponent must be an integer"):
            poly(3, {(0, bad, 0): 1})

    @pytest.mark.parametrize("index", [7, -1])
    def test_poly_refuses_a_variable_index_outside_the_dimension(self, index):
        expected = re.escape(f"monomial (3, {index}) is not ints in 0..6")
        with pytest.raises(ValueError, match=expected):
            Poly(7, {(2,): 1, (3, index): 1})

    @pytest.mark.parametrize("mono", [(3, 1), (0, 1), (2, 0, 2), (True,), (1.0,), (9,)])
    def test_poly_refuses_a_monomial_out_of_the_variable_order(self, mono):
        # x1 <= ... <= x6 <= x0; the zero coefficient does not excuse it
        expected = re.escape(f"monomial {mono!r} is not ints in 0..6 in the variable order")
        for coeff in (1, 0):
            with pytest.raises(ValueError, match=expected):
                Poly(7, {(1, 3): 1, mono: coeff})

    def test_poly_takes_an_integral_d_as_an_int(self):
        for same in (7.0, np.int64(7)):
            p = poly(same, {mono(7, 0): 1})
            assert type(p.d) is int and p == poly(7, {mono(7, 0): 1})

    @pytest.mark.parametrize(
        "d, m",
        [
            *((d, None) for d in range(3, 62, 2)),
            (67, None),
            (3, 2),
            (5, 2),
            (7, 3),
            (9, 2),
            (15, 2),
            (21, 2),
            (39, 2),
            (45, 7),
            (67, 29),
            *((19, m) for m in range(1, 19)),
        ],
    )
    def test_matches_fraction_loop(self, d, m):
        got, expect = build_system(d, symmetry_multiplier=m), reference_system(d, m)
        assert got.symmetry_multiplier == expect.symmetry_multiplier
        assert [list(p.terms.items()) for p in got.polys] == [
            list(p.terms.items()) for p in expect.polys
        ]
        # the term arrays build_system writes and the flattening of Polys
        # write the same text
        fresh = build_system(d, m)  # polys never read
        flattened = PolySystem(dim=got.dim, polys=expect.polys, symmetry_multiplier=m)
        for fmt in ("plain", "cas-script"):
            assert export_system(fresh, fmt) == export_system(flattened, fmt)

    def test_cubic_pairs_equal_the_scan_over_every_index(self):
        # each cubic enumerates its pairs a < b, a + b = 2j mod d, from the
        # lag 2j mod d; composite d (9, 15, 21, ...) included
        for d in range(3, 202, 2):
            half = (d - 1) // 2
            cubics = build_system(d).polys[half + 1 : half + d]
            expect = [cubic_pairs_by_scan(d, j) for j in range(1, d)]
            assert [p.monomials for p in cubics] == expect, d


class TestEvalSystem:
    def test_d7_solutions_on_variety(self):
        system = build_system(7)
        for coeff in (-1, +1):
            residuals = eval_system(system, d7_solution(coeff))
            assert max(residuals) < 1e-10

    def test_x_overlap_generators_vanish(self):
        # the derived polynomialization must vanish at the published vectors
        system = build_system(7)
        cubic = [p for p in system.polys if any(sum(e) == 3 for e in p.terms)]
        assert len(cubic) == 6
        for coeff in (-1, +1):
            for p in cubic:
                assert abs(evaluate(p, d7_solution(coeff))) < 1e-10

    def test_zero_vector(self):
        system = build_system(7)
        residuals = eval_system(system, np.zeros(7))
        assert max(residuals) == pytest.approx(4.0)  # the x0 quadratic

    def test_d19_solution(self):
        system = build_system(19)
        assert max(eval_system(system, d19_solution())) < 1e-10

    def test_d19_with_symmetry(self):
        system = build_system(19, symmetry_multiplier=4)  # order 9, residue classes
        assert max(eval_system(system, d19_solution())) < 1e-10

    def test_d67_with_symmetry(self):
        system = build_system(67, symmetry_multiplier=29)
        assert max(eval_system(system, d67_solution())) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected a point of length 7"):
            eval_system(build_system(7), np.zeros(5))

    @pytest.mark.parametrize("d, m", [(19, 4), (67, 29)])
    def test_off_variety_matches_dense_numpy(self, d, m):
        # at a random point no generator vanishes, so every term counts
        system = build_system(d, symmetry_multiplier=m)
        point = random_complex(np.random.default_rng(d), d)
        expect = [
            sum(float(c) * np.prod(point ** np.array(exps)) for exps, c in p.terms.items())
            for p in system.polys
        ]
        got = [evaluate(p, point) for p in system.polys]
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)
        np.testing.assert_allclose(eval_system(system, point), np.abs(expect), rtol=1e-12, atol=0)
        assert min(np.abs(expect)) > 1e-3

    def test_solution_consistency(self):
        # on-variety points with x0 < 0 satisfy the X-overlap equation once
        # normalized
        for point, d in ((d7_solution(+1), 7), (d19_solution(), 19)):
            assert max(eval_system(build_system(d), point)) < 1e-10
            assert point[0].real < 0
            assert x_overlap_residual(normalize_rescaled(point)) < 1e-8


class TestD7ComponentBasis:
    def test_published_solutions(self):
        for coeff in (-1, +1):
            assert check_d7_component_basis(d7_solution(coeff)) < 1e-10

    def test_ghost_points(self):
        # the variety's symmetric component has 4 points: two beta branches
        # for each sign of x0; all must satisfy the basis and the system
        system = build_system(7)
        for point in d7_ghost_points():
            assert check_d7_component_basis(point) < 1e-10
            assert max(eval_system(system, point)) < 1e-10

    def test_z_shift_leaves_component(self):
        shifted = z_shift(cvec(d7_solution(-1), "rescaled"), 1)
        assert check_d7_component_basis(shifted.components) > 0.01

    def test_length_check(self):
        with pytest.raises(ValueError, match="expected a point of length 7"):
            check_d7_component_basis(np.zeros(5))

    def test_basis_is_the_reduced_lex_groebner_basis(self):
        # second route: sympy derives the basis from the symmetric d = 7
        # system; both sides are made monic, so each generator is compared
        # up to a rational factor
        sympy = pytest.importorskip("sympy")
        order = lex_order(sympy, 7)

        def monic(e):
            return sympy.Poly(e, *order).monic().as_expr()

        exprs = [sympy_expr(sympy, p) for p in build_system(7, 2).polys]
        basis = sympy.groebner(exprs, *order, order="lex")
        assert len(basis.exprs) == len(D7_BASIS)
        assert {monic(e) for e in basis.exprs} == {monic(sympy_expr(sympy, p)) for p in D7_BASIS}


class TestD19ResidueComponent:
    def test_reduced_lex_basis_is_two_legendre_pairs(self):
        # <4> is the set of quadratic residues mod 19, so this pins by exact
        # algebra that the <4>-symmetric solutions are the two Legendre
        # vectors on each x0 branch
        sympy = pytest.importorskip("sympy")
        order = lex_order(sympy, 19)
        x18, x0 = order[-2:]
        exprs = [sympy_expr(sympy, p) for p in build_system(19, 4).polys]
        basis = [sympy.Poly(e, *order) for e in sympy.groebner(exprs, *order, order="lex").exprs]
        assert len(basis) == 19
        assert [g.total_degree() for g in basis[:17]] == [1] * 17
        assert basis[17].as_expr() == x18**2 + 2 * x18 - x0
        assert basis[18].as_expr() == x0**2 + 4 * x0 - 16
        # every leading monomial is a power of its own variable, so the ideal
        # is zero-dimensional and the standard monomials number the product
        # of those powers: 1, x18, x0 and x18*x0
        leads = [g.monoms(order="lex")[0] for g in basis]
        assert all(sum(map(bool, e)) == 1 for e in leads)
        assert sorted(e.index(max(e)) for e in leads) == list(range(19))
        assert math.prod(max(e) for e in leads) == 4
        for coeff in (-1, +1):
            x = d19_solution(coeff)
            point = dict(zip(order, (*x[1:], x[0])))
            for g in basis:
                assert abs(complex(g.as_expr().evalf(subs=point))) < 1e-10


class TestExport:
    def test_d7_plain_lines(self):
        text = export_system(build_system(7))
        lines = text.splitlines()
        assert "x0^2 + 4*x0 - 4" in lines
        assert "x1*x6 + x0" in lines
        assert "x2*x5 + x0" in lines
        assert "x3*x4 + x0" in lines
        assert len(lines) == 10

    def test_byte_stable(self):
        a = export_system(build_system(19, symmetry_multiplier=7))
        b = export_system(build_system(19, symmetry_multiplier=7))
        assert a == b

    def test_round_trip_exact(self):
        for d, m in ((7, None), (11, None), (19, 7)):
            system = build_system(d, symmetry_multiplier=m)
            back = parse_system(export_system(system))
            assert back.dim.d == d
            assert list(back.polys) == list(system.polys)

    def test_round_trip_preserves_fractions(self):
        from flatsic import PolySystem, make_dimension

        p = poly(3, {mono(3, 1, 2): Fraction(7, 3), mono(3): Fraction(-1, 2)})
        system = PolySystem(dim=make_dimension(3), polys=(p,), symmetry_multiplier=None)
        line = export_system(system).strip()
        assert parse_poly(line, 3) == p

    def test_cas_script_format(self):
        text = export_system(build_system(7), format="cas-script")
        assert "ring Q[x1, x2, x3, x4, x5, x6, x0]" in text
        assert "x0^2 + 4*x0 - 4" in text
        assert "groebner_basis" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_system(build_system(7), format="latex")

    def test_unknown_format_is_refused_before_rendering(self):
        # an over-limit coefficient would raise the digit-limit error if
        # the generators were rendered first
        system = PolySystem(dim=make_dimension(7), polys=(Poly(7, {(1,): 10**5000}),))
        with pytest.raises(ValueError, match="unknown export format 'bogus'"):
            export_system(system, format="bogus")

    def test_empty_system_is_one_empty_line(self):
        system = PolySystem(dim=make_dimension(7), polys=())
        assert export_system(system) == "\n"
        assert export_system(system, format="cas-script").splitlines()[3:] == [
            "ideal:",
            "task: groebner_basis",
            "order: lexicographic",
        ]

    def test_parse_poly_cases(self):
        p = parse_poly("-x3^2*x0 + 2*x1*x5", 7)
        assert p == poly(7, {mono(7, 3, 3, 0): -1, mono(7, 1, 5): 2})
        q = parse_poly("x6^2 + 1/2*x6*x0 - x6 - x0", 7)
        assert q.terms[mono(7, 6, 0)] == Fraction(1, 2)
        with pytest.raises(ValueError):
            parse_poly("x9 + 1", 7)
        with pytest.raises(ValueError):
            parse_poly("x1 +", 7)

    @pytest.mark.parametrize(
        "line, token",
        [
            ("x1^99999999999999999999", "x1^99999999999999999999"),  # beyond the 4-digit bound
            ("x1^1000000000", "x1^1000000000"),
            ("x\u0661", "x\u0661"),  # ARABIC-INDIC DIGIT ONE, which \d and int() accept
            ("x1*x\u0662 + 1", "x\u0662"),
            ("x" + "1" * 5000, "x" + "1" * 5000),  # beyond int()'s digit limit
            ("1" * 5000 + "*x1", "1" * 5000),
            ("x1 x2", "x2"),
            ("x1 + +", "+"),
        ],
        ids=[
            "exponent-20-digits",
            "exponent-10-digits",
            "non-ascii-index",
            "non-ascii-second-factor",
            "index-5000-digits",
            "coefficient-5000-digits",
            "missing-sign",
            "sign-as-term",
        ],
    )
    def test_parse_poly_names_the_bad_token(self, line, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            parse_poly(line, 7)

    def test_parse_system_infers_d_from_ascii_digits(self):
        with pytest.raises(ValueError, match=re.escape(repr("x\u0669"))):
            parse_system("x1 + x\u0669")

    def test_poly_canonicalises_like_the_per_term_comprehension(self):
        class Ratio(Fraction):
            pass

        zero, half = Fraction(0), Fraction(1, 2)
        cases = [
            {(1,): zero, (2,): half, (3,): zero},  # one zero object, shared
            {(1,): half, (2,): half, (2, 0): half},  # one nonzero object, shared
            {(1,): 1, (2,): -2, (): 0},
            {(1,): 0.5, (2,): -0.25, (3,): 0.0},
            {(1,): Ratio(1, 3), (2,): half, (3,): Ratio(0)},
        ]
        for terms in cases:
            expect = {m: c if type(c) is Fraction else Fraction(c) for m, c in terms.items() if c}
            p = Poly(7, terms)
            assert list(p.monomials.items()) == list(expect.items())
            assert [type(c) for c in p.monomials.values()] == [Fraction] * len(expect)
            assert p.monomials is not terms
        shared = Poly(7, cases[1])
        assert all(c is half for c in shared.monomials.values())

    def test_poly_drops_zero_terms_and_stores_fractions(self):
        p = Poly(7, {(1,): 0, (2,): 1})
        q = Poly(7, {(1,): 0.5})
        assert p.monomials == {(2,): 1} and q.monomials == {(1,): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in (*p.monomials.values(), *q.monomials.values()))
        for poly_, line in ((p, "x2"), (q, "1/2*x1")):
            text = export_system(PolySystem(dim=make_dimension(7), polys=(poly_,)))
            assert text == line + "\n"
            assert parse_system(text, 7).polys == (poly_,)

    @pytest.mark.parametrize(
        "terms, message",
        [
            ({(1,): 10**5000}, "generator 1, term x1"),
            ({(2, 2, 0): Fraction(1, 10**5000)}, "generator 1, term x2^2*x0"),
            ({(): -(10**5000)}, "generator 1, term constant"),
        ],
        ids=["numerator", "denominator", "constant"],
    )
    def test_export_names_a_coefficient_beyond_the_digit_limit(self, terms, message):
        limit = sys.get_int_max_str_digits()
        polys = (Poly(7, {(0,): 1}), Poly(7, {(3,): 1, **terms}))
        expected = re.escape(f"{message}: the coefficient has more than {limit} digits")
        with pytest.raises(ValueError, match=expected):
            export_system(PolySystem(dim=make_dimension(7), polys=polys))
        assert sys.get_int_max_str_digits() == limit
        # the way back in enforces the same limit, naming the coefficient
        with pytest.raises(ValueError, match=re.escape(repr("1" * 5000))):
            parse_poly("1" * 5000 + "*x1", 7)

    def test_export_memory_follows_the_text_not_its_longest_piece(self):
        # 4,000 distinct small coefficients beside one of 4,000 digits on a
        # term of degree 4,000: no table may be as wide as the longest
        # coefficient or the highest degree for every term
        d = 131
        mons = [(a, b) for a in range(1, d) for b in range(a, d)][:4000]
        polys = [Poly(d, {m: Fraction(k + 2, 3) for k, m in enumerate(mons[g::4])}) for g in range(4)]
        polys.append(Poly(d, {(1,) * 4000: Fraction(10**3999 + 1), (2,): Fraction(1)}))
        system = PolySystem(dim=make_dimension(d), polys=tuple(polys))
        tracemalloc.start()
        try:
            text = export_system(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.endswith(f"{10**3999 + 1}*x1^4000 + x2\n")
        assert peak < 200 * len(text)  # 48 here; padded rows took 2,560

    @pytest.mark.parametrize("line", ["1/0*x1", "x1 + 3/0", "-x2*5/0*x0"])
    def test_parse_poly_zero_denominator(self, line):
        with pytest.raises(ValueError, match="denominators must be nonzero"):
            parse_poly(line, 3)
        with pytest.raises(ValueError, match="denominators must be nonzero"):
            parse_system("x1*x2 + x0\n" + line, 3)

    @pytest.mark.parametrize(
        "d, m, fmt, digest",
        [
            (19, 4, "plain", "4a818c8445b9f7782703a78d3a15bb55f3f36c28ba12843eb3fb8615580e630c"),
            (67, 29, "cas-script", "bfcf0cbcafe7f4b54b97fbe3f5585928559167e91b17657d1fefc84c53898a49"),
            (103, 5, "plain", "d27be3b04fc5d3f07fb487837f5b64dad199e610a90a05ec8fb7ff723e1c2d2e"),
        ],
    )
    def test_export_digest_is_stable(self, d, m, fmt, digest):
        # digests of the exports written by the term-by-term Fraction builder
        text = export_system(build_system(d, symmetry_multiplier=m), format=fmt)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_infer_dimension(self):
        system = parse_system("x1*x6 + x0\nx0^2 + 4*x0 - 4")
        assert system.dim.d == 7


@st.composite
def sparse_polys(draw, d=None):
    """A Poly with a few terms: index tuples below d in variable order (x0
    last), exponents up to 4, constant terms and powers of x0 among them,
    small Fraction coefficients, zeros included.  d is drawn when not given."""
    if d is None:
        d = draw(st.integers(2, 9))
    powers = st.dictionaries(st.integers(0, d - 1), st.integers(1, 4), max_size=3)
    monos = st.one_of(
        st.just(()),
        st.integers(1, 4).map(lambda n: (0,) * n),
        powers.map(
            lambda pw: tuple(v for v in sorted(pw, key=lambda v: v or d) for _ in range(pw[v]))
        ),
    )
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return Poly(d, draw(st.dictionaries(monos, coeffs, max_size=6)))


@st.composite
def wide_systems(draw):
    """A system at d up to 130, so names run to three digits, with powers
    up to 12, constant-only and zero-term generators and leading negative
    terms.  Equal coefficients are distinct objects (each integer draw makes
    a new Fraction), and one Fraction object is shared by every generator."""
    d = draw(st.integers(2, 130))
    shared = draw(st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool))
    powers = st.dictionaries(st.integers(0, d - 1), st.integers(1, 12), max_size=3)
    monos = st.one_of(
        st.just(()),
        powers.map(
            lambda pw: tuple(v for v in sorted(pw, key=lambda v: v or d) for _ in range(pw[v]))
        ),
    )
    coeffs = st.one_of(
        st.just(shared),
        st.integers(-3, 3).map(Fraction),
        st.fractions(min_value=-200, max_value=200, max_denominator=120),
    )
    gens = st.dictionaries(monos, coeffs, max_size=8).map(lambda terms: Poly(d, terms))
    return PolySystem(dim=make_dimension(d), polys=tuple(draw(st.lists(gens, min_size=1, max_size=5))))


class TestParseProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(line=st.text(alphabet="x0123456789^*/+- \u0661", max_size=30), d=st.integers(2, 12))
    def test_any_text_parses_or_raises_value_error(self, line, d):
        try:
            p = parse_poly(line, d)
        except ValueError:
            return
        assert isinstance(p, Poly)
        assert all(c and type(c) is Fraction for c in p.monomials.values())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=sparse_polys())
    def test_export_parse_round_trip(self, p):
        text = export_system(PolySystem(dim=make_dimension(p.d), polys=(p,)))
        assert parse_system(text, p.d).polys == (p,)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(p=sparse_polys(), data=st.data())
    def test_export_matches_term_by_term_oracle(self, p, data):
        # parse_poly ignores term order, so the round trip cannot see a
        # reordered term; the oracle formats one term at a time
        polys = (p, *data.draw(st.lists(sparse_polys(p.d), max_size=2)))
        system = PolySystem(dim=make_dimension(p.d), polys=polys)
        assert export_system(system) == "".join(poly_line(q) + "\n" for q in polys)
        script = export_system(system, format="cas-script").splitlines()
        assert script[4:-2] == ["  " + poly_line(q) for q in polys]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(system=wide_systems())
    def test_export_of_wide_systems_matches_term_by_term_oracle(self, system):
        # the lookup rows: three-digit names, two-digit powers, constant and
        # empty lines, and prefixes of shared and of equal coefficients
        lines = [poly_line(q) for q in system.polys]
        assert export_system(system) == "".join(line + "\n" for line in lines)
        script = export_system(system, format="cas-script").splitlines()
        assert script[4:-2] == ["  " + line for line in lines]


class TestManifest:
    def test_fields_and_hash(self):
        system = build_system(7)
        text = export_system(system)
        manifest = system_manifest(system, text)
        assert manifest["d"] == 7
        assert manifest["symmetry_multiplier"] is None
        assert manifest["num_generators"] == 10
        assert manifest["sha256"] == hashlib.sha256(text.encode()).hexdigest()
