"""Legendre symbols, Perron counts, and the closed-form Legendre vectors."""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    NON_REAL_TOLERANCES,
    QR7,
    QR67,
    d7_solution,
    d19_solution,
    d67_solution,
    lemma1_two_vector_route,
    perron_enumeration,
    perron_rows_by_sets,
    perron_table_by_autocorrelation,
)
from numpy.testing import assert_allclose

from flatsic import (
    build_legendre_vector,
    classify_legendre,
    is_sic,
    legendre_symbol,
    legendre_x1,
    lemma1_closed_form,
    perron_counts,
    primes_3mod4,
    to_normalized,
    to_rescaled,
    to_vform,
    x_overlap_residual,
)
from flatsic import legendre as legendre_mod
from flatsic.legendre import lemma1_deviation, lemma1_sweep, perron_sweep, perron_table
from flatsic.weyl import autocorrelation


class TestLegendreSymbol:
    def test_minus_one_rule(self):
        assert legendre_symbol(-1, 11) == -1
        assert legendre_symbol(-1, 7) == -1
        assert legendre_symbol(-1, 13) == 1  # 13 = 1 mod 4

    def test_two_rule(self):
        assert legendre_symbol(2, 7) == 1  # 7 = 7 mod 8
        assert legendre_symbol(2, 11) == -1  # 11 = 3 mod 8

    def test_euler_example(self):
        assert legendre_symbol(3, 7) == -1  # 3^3 = 27 = -1 mod 7

    def test_zero(self):
        assert legendre_symbol(0, 7) == 0
        assert legendre_symbol(14, 7) == 0

    def test_matches_enumeration(self):
        for p in (3, 5, 7, 11, 13, 31, 47):
            squares = {(k * k) % p for k in range(1, p)}
            for n in range(1, p):
                assert legendre_symbol(n, p) == (1 if n in squares else -1)

    def test_multiplicative(self):
        p = 23
        for a in (2, 3, 5):
            for b in (7, 11):
                assert legendre_symbol(a * b, p) == legendre_symbol(
                    a, p
                ) * legendre_symbol(b, p)

    @pytest.mark.parametrize("bad", [2, 9, 15, 1])
    def test_invalid_modulus(self, bad):
        with pytest.raises(ValueError):
            legendre_symbol(3, bad)


class TestPerron:
    def test_p11_a1(self):
        c = perron_counts(11, 1)
        assert (
            c.reste_from_reste,
            c.nichtreste_from_reste,
            c.reste_from_nichtreste,
            c.nichtreste_from_nichtreste,
        ) == (3, 3, 3, 2)

    def test_p7_all_shifts(self):
        for a in range(1, 7):
            c = perron_counts(7, a)
            assert (
                c.reste_from_reste,
                c.nichtreste_from_reste,
                c.reste_from_nichtreste,
                c.nichtreste_from_nichtreste,
            ) == (2, 2, 2, 1)

    def test_wrong_residue_class(self):
        with pytest.raises(ValueError):
            perron_counts(13, 1)

    def test_non_coprime_shift(self):
        with pytest.raises(ValueError):
            perron_counts(11, 22)

    @pytest.mark.parametrize("p", [2, 5, 9, 13, 15])
    def test_rejects_a_modulus_that_is_no_prime_3_mod_4(self, p):
        with pytest.raises(ValueError, match=f"requires a prime d = 3 mod 4, got d={p}$"):
            perron_counts(p, 1)

    @pytest.mark.parametrize("a", [0, 11, -11, 22])
    def test_rejects_a_shift_divisible_by_p(self, a):
        with pytest.raises(ValueError, match=f"coprime to p, got a={a}, p=11$"):
            perron_counts(11, a)

    def test_counts_equal_enumeration_below_500(self):
        for p in primes_3mod4(500):
            for a in range(1, p):
                assert list(dataclasses.astuple(perron_counts(p, a))) == perron_enumeration(p, a)
            assert perron_counts(p, 1 - p) == perron_counts(p, 1)

    def test_counting_statements_small_sweep(self):
        for p in primes_3mod4(100):
            for a in range(1, p):
                c = perron_counts(p, a)
                assert c.reste_from_reste == (p + 1) // 4
                assert c.nichtreste_from_reste == (p + 1) // 4
                assert c.reste_from_nichtreste == (p + 1) // 4
                assert c.nichtreste_from_nichtreste == (p - 3) // 4

    def test_zero_counts_as_rest(self):
        # a = p - r for a residue r sends r to 0, which must count as a Rest
        p = 11
        c = perron_counts(p, p - 1)  # 1 is a residue; 1 + (p-1) = 0
        assert c.reste_from_reste == 3

    @pytest.mark.parametrize("p", primes_3mod4(200) + [499])
    def test_table_equals_per_shift_counts(self, p):
        assert perron_table(p).tolist() == [perron_enumeration(p, a) for a in range(1, p)]

    def test_table_equals_per_shift_counts_at_a_large_prime(self):
        # the autocorrelation rounds to the exact counts far beyond the sweep
        p = 100003
        table = perron_table(p)
        shifts = [1, p - 1, *np.random.default_rng(p).integers(2, p - 1, 20).tolist()]
        for a in shifts:
            assert table[a - 1].tolist() == perron_enumeration(p, a), a

    def test_table_memory_is_linear_in_p(self):
        # a (p-1) x p boolean window took 32 MB at p = 8011; the
        # autocorrelation takes a few length-p arrays
        p = 8011
        tracemalloc.start()
        try:
            perron_table(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    @pytest.mark.parametrize("p", [3, 7, 499])
    def test_table_is_one_integer_array(self, p):
        table = perron_table(p)
        assert table.shape == (p - 1, 6)
        assert table.dtype.kind == "i"

    def test_table_rejects_wrong_residue_class(self):
        with pytest.raises(ValueError):
            perron_table(13)

    @pytest.mark.parametrize("pmax", [2, 0, -4])
    @pytest.mark.parametrize("check", [perron_table, lemma1_deviation])
    def test_empty_sweep_rejected(self, pmax, check):
        # the sweep of each per-prime quantity
        sweep = {perron_table: perron_sweep, lemma1_deviation: lemma1_sweep}[check]
        with pytest.raises(ValueError, match="pmax >= 3"):
            sweep(pmax)

    def test_sweep_from_smallest_prime(self):
        assert lemma1_sweep(3)[:, 0].tolist() == [3.0]
        assert perron_sweep(3).tolist() == perron_table(3).tolist()

    def test_lemma1_sweep_stacks_each_prime_deviation(self):
        sweep = lemma1_sweep(500)
        primes = primes_3mod4(500)
        assert sweep.dtype == np.float64 and sweep.shape == (len(primes), 2)
        assert sweep[:, 0].tolist() == primes
        assert sweep[:, 1].tobytes() == np.array([lemma1_deviation(p) for p in primes]).tobytes()


def _spectra_bytes(rows: int, width: int) -> int:
    """Bytes of the rfft spectra of a (rows, width) real block zero-padded
    to the power of two above 2 width - 1."""
    n = 1 << (2 * width - 1).bit_length()
    return 16 * (n // 2 + 1) * rows


@pytest.fixture
def perron_blocks(monkeypatch):
    """The (rows, width) shape of every block the Perron sweep transforms."""
    shapes = []
    transform = legendre_mod._linear_autocorrelation

    def spy(arr):
        shapes.append(arr.shape)
        return transform(arr)

    monkeypatch.setattr(legendre_mod, "_linear_autocorrelation", spy)
    return shapes


class TestPerronSweep:
    # p < 600 crosses every transform length from 8 to 2048, for example
    # n = 256 -> 512 at p = 127/131 and 512 -> 1024 at p = 251/263
    PRIMES = primes_3mod4(599)

    @pytest.fixture(scope="class")
    def by_sets(self):
        return [row for p in self.PRIMES for row in perron_rows_by_sets(p)]

    def test_primes_cross_every_transform_length(self):
        lengths = [1 << (2 * p - 1).bit_length() for p in self.PRIMES]
        assert sorted(set(lengths)) == [8, 16, 32, 64, 128, 256, 512, 1024, 2048]
        for low, high in [(127, 131), (251, 263)]:
            assert lengths[self.PRIMES.index(high)] == 2 * lengths[self.PRIMES.index(low)]

    @pytest.mark.parametrize("budget", [None, 3 * 16 * 513])
    def test_stacked_rows_equal_the_per_prime_routes(self, monkeypatch, perron_blocks, by_sets, budget):
        # 3 * 16 * 513 bytes hold the spectra of three primes at n = 1024, so
        # several blocks share one transform length
        if budget is not None:
            monkeypatch.setattr(legendre_mod, "_PERRON_BLOCK_BYTES", budget)
        budget = legendre_mod._PERRON_BLOCK_BYTES
        table = legendre_mod._perron_rows(self.PRIMES)
        assert table.dtype == np.int64 and table.shape == (len(by_sets), 6)
        assert table.tolist() == by_sets
        per_prime = np.concatenate([perron_table_by_autocorrelation(p) for p in self.PRIMES])
        assert table.tobytes() == per_prime.tobytes()
        assert sum(rows for rows, _ in perron_blocks) == len(self.PRIMES)
        for rows, width in perron_blocks:
            assert rows == 1 or _spectra_bytes(rows, width) <= budget
        lengths = [1 << (2 * width - 1).bit_length() for _, width in perron_blocks]
        if budget < 1 << 16:
            assert lengths.count(1024) > 1 and lengths.count(512) > 1

    def test_sweep_equals_the_per_prime_tables_to_3000(self, perron_blocks):
        table = perron_sweep(3000)
        per_prime = [perron_table_by_autocorrelation(p) for p in primes_3mod4(3000)]
        assert table.tobytes() == np.concatenate(per_prime).tobytes()
        assert table.tobytes() == np.concatenate([perron_table(p) for p in primes_3mod4(3000)]).tobytes()
        for rows, width in perron_blocks:
            assert rows == 1 or _spectra_bytes(rows, width) <= legendre_mod._PERRON_BLOCK_BYTES

    def test_a_block_holds_one_prime_above_the_budget(self, monkeypatch, perron_blocks):
        monkeypatch.setattr(legendre_mod, "_PERRON_BLOCK_BYTES", 1)
        table = perron_sweep(100)
        assert [rows for rows, _ in perron_blocks] == [1] * len(primes_3mod4(100))
        assert table.tolist() == [row for p in primes_3mod4(100) for row in perron_rows_by_sets(p)]

    @pytest.mark.parametrize("pmax", [2, 0, -4])
    def test_empty_sweep_rejected(self, pmax):
        with pytest.raises(ValueError, match="pmax >= 3"):
            perron_sweep(pmax)


class TestLegendreX1:
    def test_d3_closed_form(self):
        x1 = legendre_x1(3, +1)
        assert x1 == pytest.approx((math.sqrt(3.0) + 1j) / 2.0, abs=1e-14)
        assert x1 == pytest.approx(cmath.exp(1j * math.pi / 6.0), abs=1e-14)

    def test_unit_modulus_sweep(self):
        for p in primes_3mod4(10**4):
            for sign in (+1, -1):
                assert abs(abs(legendre_x1(p, sign)) - 1.0) < 1e-12

    def test_d7_rescaled_component(self):
        # sqrt(x0) x1 = (sqrt2 (beta + 1) + 2) / 2 with beta = sqrt(-2 sqrt2 - 1)
        beta = 1j * math.sqrt(2.0 * math.sqrt(2.0) + 1.0)
        sx0 = 1j * math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
        expect = (math.sqrt(2.0) * (beta + 1.0) + 2.0) / 2.0
        assert sx0 * legendre_x1(7, +1) == pytest.approx(expect, abs=1e-13)

    def test_d19_rescaled_component(self):
        beta = 1j * math.sqrt(2.0 * math.sqrt(5.0) + 1.0)
        sx0 = 1j * math.sqrt(2.0 + 2.0 * math.sqrt(5.0))
        assert sx0 * legendre_x1(19, +1) == pytest.approx(beta - 1.0, abs=1e-13)
        assert sx0 * legendre_x1(19, -1) == pytest.approx(-beta - 1.0, abs=1e-13)

    def test_branch_relation(self):
        # flipping beta negates the conjugate phase (sqrt(x0) does not conjugate)
        for p in (7, 11, 19, 23):
            assert legendre_x1(p, -1) == pytest.approx(
                -np.conj(legendre_x1(p, +1)), abs=1e-14
            )
        # sqrt(x0) is imaginary and |x1| = 1, so -conj maps the beta = +1
        # vector onto the beta = -1 vector component by component, and the
        # two branches have the same moduli and the same residuals
        for p in primes_3mod4(500):
            plus, minus = (to_normalized(build_legendre_vector(p, s).ansatz) for s in (+1, -1))
            assert_allclose(minus.components, -np.conj(plus.components), rtol=0, atol=1e-15)
            if p < 200:
                a, b = classify_legendre(p).branches
                for field in ("max_modulus_deviation", "gik_max_deviation"):
                    gap = abs(getattr(a.sic, field) - getattr(b.sic, field))
                    assert gap <= 1e-15, (p, field)
                assert abs(a.x_overlap_residual - b.x_overlap_residual) <= 1e-14, p

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            legendre_x1(13, +1)  # 13 = 1 mod 4
        with pytest.raises(ValueError):
            legendre_x1(9, +1)  # not prime

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            legendre_x1(7, 2)

    @pytest.mark.parametrize("sign", [True, False, 1.5, None, "+1", math.nan])
    def test_sign_must_be_an_integer(self, sign):
        with pytest.raises(ValueError, match="beta_sign"):
            build_legendre_vector(7, sign)

    def test_integral_float_sign_is_stored_as_int(self):
        vec = build_legendre_vector(7, -1.0)
        assert type(vec.beta_sign) is int and vec.beta_sign == -1
        assert vec.x1 == build_legendre_vector(7, -1).x1


class TestBuildLegendreVector:
    def test_d7_pattern(self):
        vec = build_legendre_vector(7, +1)
        for j in range(1, 7):
            expected = vec.x1 if j in QR7 else -1.0 / vec.x1
            assert vec.ansatz.phases[j - 1] == pytest.approx(expected, abs=1e-13)

    def test_d7_matches_catalog(self):
        for sign, coeff in ((+1, +1), (-1, -1)):
            x = to_rescaled(build_legendre_vector(7, sign).ansatz).components
            assert_allclose(x, d7_solution(coeff), atol=1e-12)

    def test_d19_matches_catalog(self):
        x = to_rescaled(build_legendre_vector(19, +1).ansatz).components
        assert_allclose(x, d19_solution(+1), atol=1e-12)

    def test_d67_rescaled_pattern(self):
        vec = build_legendre_vector(67, +1)
        x = to_rescaled(vec.ansatz).components
        assert_allclose(x, d67_solution(+1), atol=1e-12)
        beta = 1j * math.sqrt(2.0 * math.sqrt(17.0) + 1.0)
        for j in (1, 4, 9, 64, 3, 5):  # mixed residues and non-residues
            expect = beta - 1.0 if j in QR67 else -beta - 1.0
            assert x[j] == pytest.approx(expect, abs=1e-12)

    def test_d11_is_valid_ansatz(self):
        av = build_legendre_vector(11, -1).ansatz
        assert np.max(np.abs(np.abs(av.phases) - 1.0)) < 1e-12
        for j in range(1, 11):
            assert abs(av.phases[11 - j - 1] + np.conj(av.phases[j - 1])) < 1e-12

    def test_solves_x_overlap(self):
        for p in (3, 7, 11, 19, 23, 31):
            for sign in (+1, -1):
                psi = to_normalized(build_legendre_vector(p, sign).ansatz)
                assert x_overlap_residual(psi) < 1e-11

    def test_invalid_dimensions(self):
        for bad in (13, 9, 4, 2):
            with pytest.raises(ValueError):
                build_legendre_vector(bad)


class TestLemma1:
    def test_d11_coefficients(self):
        # d = 11 = 3 mod 8, residue j: 4 - 2/x1^2 - 3 x1^2 + 2 sqrt(x0)/x1
        x1 = cmath.exp(0.7j)
        sx0 = 1j * math.sqrt(2.0 + math.sqrt(12.0))
        expect = 4.0 - 2.0 / x1**2 - 3.0 * x1**2 + 2.0 * sx0 / x1
        assert lemma1_closed_form(11, x1, True) == pytest.approx(expect, abs=1e-13)

    def test_d7_coefficients(self):
        # d = 7 = 7 mod 8, residue j: 2 - 2/x1^2 - x1^2 - 2 sqrt(x0) x1
        x1 = cmath.exp(1.3j)
        sx0 = 1j * math.sqrt(2.0 + math.sqrt(8.0))
        expect = 2.0 - 2.0 / x1**2 - 1.0 * x1**2 - 2.0 * sx0 * x1
        assert lemma1_closed_form(7, x1, True) == pytest.approx(expect, abs=1e-13)

    def test_nonresidue_substitution(self):
        x1 = cmath.exp(0.4j)
        for d in (7, 11):
            direct = lemma1_closed_form(d, x1, False)
            substituted = lemma1_closed_form(d, -1.0 / x1, True)
            assert direct == pytest.approx(substituted, abs=1e-13)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            lemma1_closed_form(13, 1.0 + 0j, True)

    @pytest.mark.parametrize("p", primes_3mod4(100))
    def test_matches_direct_autocorrelation(self, p):
        for sign in (+1, -1):
            vec = build_legendre_vector(p, sign)
            w = to_vform(vec.ansatz).components
            for j in range(1, p):
                direct = np.vdot(w, np.roll(w, (-2 * j) % p))
                closed = lemma1_closed_form(p, vec.x1, legendre_symbol(j, p) == 1)
                assert abs(direct - closed) < 1e-10

    def test_deviation_reads_both_branches_from_one_transform(self):
        # the stacked v-forms' autocorrelation rows equal each branch's own
        # autocorrelation bit for bit, so lemma1_deviation is exactly the
        # larger of the two branch deviations
        for p in primes_3mod4(2000):
            vecs = [build_legendre_vector(p, sign) for sign in (+1, -1)]
            v = np.stack([to_vform(vec.ansatz).components for vec in vecs])
            rows = autocorrelation(v)
            assert rows.tobytes() == np.stack([autocorrelation(w) for w in v]).tobytes(), p
            if p < 500:  # one branch at a time, as the oracle
                lags = [2 * j % p for j in range(1, p)]
                residue = [legendre_symbol(j, p) == 1 for j in range(1, p)]
                worst = 0.0
                for vec, row in zip(vecs, rows):
                    on_residues = lemma1_closed_form(p, vec.x1, True)
                    closed = np.where(residue, on_residues, lemma1_closed_form(p, vec.x1, False))
                    worst = max(worst, float(np.max(np.abs(row[lags] - closed))))
                assert lemma1_deviation(p) == worst, p

    def test_deviation_equals_the_two_vector_route(self):
        # one _vform_array build of both branches' angle rows gives the
        # v-forms that one build_legendre_vector per branch gave, bit for bit
        for p in primes_3mod4(500):
            assert lemma1_deviation(p) == lemma1_two_vector_route(p), p


class TestClassify:
    def test_d7_sic(self):
        c = classify_legendre(7)
        assert all(b.sic.is_sic for b in c.branches)
        assert max(b.x_overlap_residual for b in c.branches) < 1e-11

    def test_d67_not_sic(self):
        c = classify_legendre(67)
        assert not all(b.sic.is_sic for b in c.branches)
        assert max(b.x_overlap_residual for b in c.branches) < 1e-9
        assert max(b.sic.max_modulus_deviation for b in c.branches) > 0.01

    def test_d23_not_sic(self):
        c = classify_legendre(23)
        assert not all(b.sic.is_sic for b in c.branches)
        assert max(b.x_overlap_residual for b in c.branches) < 1e-10
        assert max(b.sic.max_modulus_deviation for b in c.branches) > 0.01

    @pytest.mark.parametrize("p", primes_3mod4(200))
    def test_verdicts_are_is_sic(self, p):
        c = classify_legendre(p)
        assert [b.beta_sign for b in c.branches] == [+1, -1]
        for branch in c.branches:
            psi = to_normalized(build_legendre_vector(p, branch.beta_sign).ansatz)
            assert branch.sic == is_sic(psi)
            assert branch.x_overlap_residual == x_overlap_residual(psi)

    def test_tolerance_reaches_is_sic(self):
        for branch in classify_legendre(7, tol=0.5).branches:
            assert branch.sic.tolerance_used == 0.5

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, *NON_REAL_TOLERANCES])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            classify_legendre(7, tol=tol)


def test_primes_3mod4():
    assert primes_3mod4(23) == [3, 7, 11, 19, 23]
    assert 13 not in primes_3mod4(100)
    assert len(primes_3mod4(500)) == 50
