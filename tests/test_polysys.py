"""System construction, membership checks, and export round-trips."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import (
    NON_INTEGERS,
    d7_solution,
    d19_solution,
    d67_solution,
    normalize_rescaled,
    random_complex,
)

from flatsic import (
    PolySystem,
    build_system,
    check_d7_component_basis,
    cvec,
    eval_system,
    export_system,
    make_dimension,
    parse_poly,
    parse_system,
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

    @pytest.mark.parametrize("d, m", [(3, 2), (5, 2), (7, 3), (19, 4), (45, 7), (67, 29)])
    def test_matches_fraction_loop(self, d, m):
        for multiplier in (None, m):
            got = build_system(d, symmetry_multiplier=multiplier)
            expect = reference_system(d, multiplier)
            assert got.symmetry_multiplier == expect.symmetry_multiplier
            assert [list(p.terms.items()) for p in got.polys] == [
                list(p.terms.items()) for p in expect.polys
            ]


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
                assert abs(p.evaluate(d7_solution(coeff))) < 1e-10

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
        got = [p.evaluate(point) for p in system.polys]
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

    def test_parse_poly_cases(self):
        p = parse_poly("-x3^2*x0 + 2*x1*x5", 7)
        assert p == poly(7, {mono(7, 3, 3, 0): -1, mono(7, 1, 5): 2})
        q = parse_poly("x6^2 + 1/2*x6*x0 - x6 - x0", 7)
        assert q.terms[mono(7, 6, 0)] == Fraction(1, 2)
        with pytest.raises(ValueError):
            parse_poly("x9 + 1", 7)
        with pytest.raises(ValueError):
            parse_poly("x1 +", 7)

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


class TestManifest:
    def test_fields_and_hash(self):
        system = build_system(7)
        text = export_system(system)
        manifest = system_manifest(system, text)
        assert manifest["d"] == 7
        assert manifest["symmetry_multiplier"] is None
        assert manifest["num_generators"] == 10
        assert manifest["sha256"] == hashlib.sha256(text.encode()).hexdigest()
