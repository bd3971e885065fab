"""Overlap tables, SIC residuals, and the quartic autocorrelation identity."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    NON_REAL_TOLERANCES,
    basis_vector,
    d7_forms,
    d7_solution,
    d19_solution,
    d67_solution,
    full_scan,
    gik_fourier,
    gik_quartic,
    normalize_rescaled,
    random_complex,
    random_unit,
    table_csv,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from flatsic import (
    build_ansatz,
    build_legendre_vector,
    canonical_match,
    cvec,
    gik_residual,
    gik_table,
    gik_table_csv,
    is_sic,
    naive_x_residual,
    overlap_table,
    overlap_table_csv,
    primes_3mod4,
    to_normalized,
    to_vform,
    z_shift,
)
from flatsic.verify import _table_csv

D3_FIDUCIAL = cvec(np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0))


class TestOverlapTable:
    def test_d3_fiducial_moduli(self):
        table = overlap_table(D3_FIDUCIAL)
        mods = np.abs(table.entries)
        assert mods[0, 0] == pytest.approx(1.0, abs=1e-14)
        off = mods.copy()
        off[0, 0] = 0.5
        assert_allclose(off, 0.5, atol=1e-14)  # 1/sqrt(d+1) = 1/2

    def test_entry_00_unit(self):
        rng = np.random.default_rng(0)
        assert abs(overlap_table(random_unit(rng, 6)).entries[0, 0] - 1.0) < 1e-13

    def test_d7_solution_moduli(self):
        table = overlap_table(normalize_rescaled(d7_solution(-1)))
        mods = np.abs(table.entries)
        mods[0, 0] = 1.0 / math.sqrt(8.0)
        assert_allclose(mods, 1.0 / math.sqrt(8.0), atol=1e-12)

    def test_normalizes_internally(self):
        # v-form input: moduli must come out identical to the unit vector's
        vec = build_legendre_vector(7).ansatz
        t1 = overlap_table(to_vform(vec))
        t2 = overlap_table(to_normalized(vec))
        assert_allclose(np.abs(t1.entries), np.abs(t2.entries), atol=1e-12)

    def test_entries_bounded_by_norm(self):
        rng = np.random.default_rng(9)
        for d in (3, 6, 11):
            table = overlap_table(random_unit(rng, d))
            assert np.max(np.abs(table.entries)) <= 1.0 + 1e-12

    def test_phase_invariance_of_moduli(self):
        rng = np.random.default_rng(4)
        psi = random_unit(rng, 5)
        base = np.abs(overlap_table(psi).entries)
        for phi in rng.uniform(0, 2 * np.pi, 3):
            rotated = cvec(np.exp(1j * phi) * psi.components)
            assert_allclose(np.abs(overlap_table(rotated).entries), base, atol=1e-12)


class TestSicResidual:
    def test_d3_fiducial(self):
        assert is_sic(D3_FIDUCIAL).max_modulus_deviation < 1e-14

    def test_d67_legendre_fails(self):
        psi = to_normalized(build_legendre_vector(67).ansatz)
        assert is_sic(psi).max_modulus_deviation > 0.01

    def test_random_unit_fails(self):
        rng = np.random.default_rng(1)
        assert is_sic(random_unit(rng, 7)).max_modulus_deviation > 0.01


class TestGik:
    def test_g00_is_fourth_moment(self):
        assert gik_quartic(D3_FIDUCIAL)[0, 0] == pytest.approx(0.5, abs=1e-14)
        rng = np.random.default_rng(2)
        psi = random_unit(rng, 6)
        expect = np.sum(np.abs(psi.components) ** 4)
        assert gik_quartic(psi)[0, 0] == pytest.approx(expect, abs=1e-13)

    def test_gi0_for_sic(self):
        table = gik_quartic(normalize_rescaled(d7_solution(+1)))
        for i in range(1, 7):
            assert table[i, 0] == pytest.approx(1.0 / 8.0, abs=1e-11)

    def test_basis_vector_disjoint_support(self):
        assert gik_quartic(basis_vector(5, 0))[1, 1] == 0

    @pytest.mark.parametrize("d", [3, 5, 7, 11, 19])
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_quartic_equals_fourier(self, d, seed):
        psi = random_complex(np.random.default_rng(seed), d)  # deliberately unnormalized
        assert np.abs(gik_quartic(psi) - gik_fourier(psi)).max() < 1e-12

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_quartic_equals_fourier_d50_sampled(self, seed):
        psi = random_unit(np.random.default_rng(seed), 50)
        assert np.abs(gik_quartic(psi) - gik_fourier(psi)).max() < 1e-12

    def test_fourier_examples(self):
        assert gik_fourier(basis_vector(5, 0))[0, 0] == pytest.approx(1.0, abs=1e-13)
        psi = normalize_rescaled(d7_solution(-1))
        assert abs(gik_fourier(psi)[1, 2]) < 1e-10

    def test_residual_solutions(self):
        assert gik_residual(normalize_rescaled(d7_solution(-1))) < 1e-11
        psi11 = to_normalized(build_legendre_vector(11).ansatz)
        assert gik_residual(psi11) > 0.001

    def test_residual_basis_vector(self):
        d = 7
        assert gik_residual(basis_vector(d, 0)) == pytest.approx(
            1.0 - 2.0 / (d + 1.0), abs=1e-12
        )

    def test_residual_tracks_sic_residual(self):
        # both residuals vanish together on fiducials and stay large together
        # on spurious solutions
        for vec in (
            D3_FIDUCIAL,
            normalize_rescaled(d7_solution(+1)),
            normalize_rescaled(d19_solution()),
        ):
            assert is_sic(vec).max_modulus_deviation < 1e-12
            assert gik_residual(vec) < 1e-10
        for k in range(1, 4):
            shifted = z_shift(normalize_rescaled(d7_solution(+1)), k)
            assert is_sic(shifted).max_modulus_deviation < 1e-12
            assert gik_residual(shifted) < 1e-10
        spurious = to_normalized(build_legendre_vector(23).ansatz)
        assert is_sic(spurious).max_modulus_deviation > 1e-3
        assert gik_residual(spurious) > 1e-3


class TestNaiveX:
    def test_sic_subset(self):
        assert naive_x_residual(normalize_rescaled(d7_solution(-1))) < 1e-11
        assert naive_x_residual(normalize_rescaled(d19_solution())) < 1e-11

    def test_d7_legendre(self):
        psi = to_normalized(build_legendre_vector(7).ansatz)
        assert naive_x_residual(psi) < 1e-11

    def test_d67_legendre_still_passes(self):
        # the X-overlap equation implies the naive moduli even off-SIC
        psi = to_normalized(build_legendre_vector(67).ansatz)
        assert naive_x_residual(psi) < 1e-11

    def test_basis_vector(self):
        d = 7
        assert naive_x_residual(basis_vector(d, 0)) == pytest.approx(1.0 / (d + 1.0))

    def test_never_exceeds_the_sic_residual(self):
        # the naive conditions are the k = 0 column of the SIC conditions, so
        # the naive residual is read from is_sic's deviations, not recomputed
        rng = np.random.default_rng(2028)
        column_0 = 0
        for d in range(2, 61):
            vecs = [random_unit(rng, d) for _ in range(3)]
            if d % 2:
                vecs += [
                    to_normalized(build_ansatz(d, rng.uniform(0.0, 2.0 * np.pi, (d - 1) // 2)))
                    for _ in range(10)
                ]
            for vec in vecs:
                report, naive = is_sic(vec), naive_x_residual(vec)
                assert naive <= report.max_modulus_deviation, d
                if report.worst_pair[1] == 0:
                    column_0 += 1
                    assert naive == report.max_modulus_deviation, d
                assert naive == report.naive_x_deviation
        assert column_0 > 0


class TestIsSic:
    def test_d7_solutions(self):
        for coeff in (-1, +1):
            report = is_sic(normalize_rescaled(d7_solution(coeff)))
            assert report.is_sic
            assert report.max_modulus_deviation < 1e-10
            assert report.gik_max_deviation < 1e-10
            assert report.input_norm == pytest.approx(1.0, abs=1e-12)

    def test_d67_legendre(self):
        report = is_sic(to_normalized(build_legendre_vector(67).ansatz))
        assert not report.is_sic
        assert report.max_modulus_deviation > 0.01
        assert report.worst_pair != (0, 0)

    def test_records_input_norm(self):
        av = build_legendre_vector(7).ansatz
        report = is_sic(to_vform(av))
        assert report.input_norm == pytest.approx(math.sqrt(av.d - 1 - av.x0), rel=1e-12)
        assert report.is_sic

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            is_sic(D3_FIDUCIAL, tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, *NON_REAL_TOLERANCES])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            is_sic(D3_FIDUCIAL, tol=tol)

    def test_d199_small_component_solution(self):
        # the order-9-symmetric small-component point at d=199: solves the
        # X-overlap equation but is not a SIC fiducial
        from flatsic import to_rescaled, x_overlap_residual

        vec = build_legendre_vector(199, +1)
        x = to_rescaled(vec.ansatz).components
        for j in range(1, 199):
            assert abs(x[(43 * j) % 199] - x[j]) < 1e-13  # 43 has order 9 mod 199
        psi = to_normalized(vec.ansatz)
        assert x_overlap_residual(psi) < 1e-9
        report = is_sic(psi)
        assert not report.is_sic
        assert report.max_modulus_deviation > 0.01

    def test_d67_rescaled_catalog_matches_builder(self):
        # the hard-coded catalog pattern and the builder agree
        psi = normalize_rescaled(d67_solution(+1))
        built = to_normalized(build_legendre_vector(67, +1).ansatz)
        assert_allclose(psi.components, built.components, atol=1e-12)


class TestHalfRowScan:
    """is_sic and gik_residual read rows 0..floor(d/2) of both tables;
    helpers.full_scan reads every row."""

    @staticmethod
    def _agrees_with_full_scan(vec):
        report = is_sic(vec)
        unit = vec.components / np.linalg.norm(vec.components)
        dev, gik, naive = full_scan(unit)
        assert abs(report.max_modulus_deviation - dev) <= 1e-15
        assert abs(report.gik_max_deviation - gik) <= 1e-15
        assert abs(report.naive_x_deviation - naive) <= 1e-15
        assert report.is_sic == (dev <= report.tolerance_used)
        assert gik_residual(vec) == report.gik_max_deviation
        # worst_pair attains the maximum, in a scanned row
        d = vec.d
        j, k = report.worst_pair
        assert j <= d // 2
        moduli_sq = abs(overlap_table(vec).entries[j, k]) ** 2
        assert abs(abs(moduli_sq - 1.0 / (d + 1.0)) - dev) <= 1e-15

    @pytest.mark.parametrize("p", primes_3mod4(500))
    def test_legendre_branches(self, p):
        for sign in (+1, -1):
            self._agrees_with_full_scan(to_normalized(build_legendre_vector(p, sign).ansatz))

    def test_random_vectors_even_and_odd_d(self):
        rng = np.random.default_rng(2060)
        for d in range(2, 61):
            self._agrees_with_full_scan(random_unit(rng, d))


class TestCsv:
    def test_overlap_csv_cells(self):
        table = overlap_table(D3_FIDUCIAL)
        text = overlap_table_csv(table)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["j\\k", "0", "1", "2"]
        assert len(rows) == 4
        re0, im0 = map(float, rows[1][1].split(","))
        assert re0 == pytest.approx(1.0, abs=1e-14)
        assert im0 == pytest.approx(0.0, abs=1e-14)
        # every non-corner entry has modulus 1/2
        for j in range(3):
            for k in range(3):
                if (j, k) == (0, 0):
                    continue
                re, im = map(float, rows[1 + j][1 + k].split(","))
                assert math.hypot(re, im) == pytest.approx(0.5, abs=1e-13)

    def test_overlap_csv_moduli_flag(self):
        table = overlap_table(D3_FIDUCIAL)
        text = overlap_table_csv(table, moduli_only=True)
        rows = list(csv.reader(io.StringIO(text)))
        assert float(rows[2][2]) == pytest.approx(0.5, abs=1e-13)

    def test_gik_csv(self):
        text = gik_table_csv(D3_FIDUCIAL)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "i\\k"
        re, im = map(float, rows[1][1].split(","))
        assert re == pytest.approx(0.5, abs=1e-13)  # G(0,0) = 2/(d+1)
        assert im == pytest.approx(0.0, abs=1e-13)

    def test_gik_table_values(self):
        d = 3
        table = gik_table(D3_FIDUCIAL)
        target = np.zeros((d, d))
        target[0, :] += 1.0
        target[:, 0] += 1.0
        target /= d + 1.0
        assert_allclose(table, target, atol=1e-13)

    def test_byte_stable(self):
        table = overlap_table(D3_FIDUCIAL)
        assert overlap_table_csv(table) == overlap_table_csv(table)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(0, 4),
        data=st.data(),
        corner=st.sampled_from(["j\\k", "i\\k"]),
        moduli_only=st.booleans(),
    )
    def test_table_csv_matches_csv_writer_oracle(self, n, data, corner, moduli_only):
        # one `%` per row against csv.writer with one formatted string per
        # cell, on every float: a modulus beyond the largest float is inf
        special = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e300, -1e300]
        special += [1e-300, -1e-300, 1.7e308, -1.7e308]
        part = st.one_of(st.sampled_from(special), st.floats())
        parts = data.draw(st.lists(part, min_size=2 * n * n, max_size=2 * n * n))
        entries = np.array(parts, dtype=np.float64).view(np.complex128).reshape(n, n)
        assert _table_csv(entries, corner, moduli_only) == table_csv(entries, corner, moduli_only)


class TestCanonicalMatchCost:
    def test_a_pair_takes_one_transform_below_the_search_crossover(self):
        # one numpy.fft transform of d points, not the d x d DFT matrix of a
        # search plan (about 1.5 MB at d = 199)
        rng = np.random.default_rng(7)
        a, b = random_unit(rng, 199), random_unit(rng, 199)
        canonical_match(a, b)  # numpy.fft's first call at a length sets up its cache
        tracemalloc.start()
        try:
            matched = canonical_match(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not matched
        assert peak < 64 * 1024


class TestMatchAcrossForms:
    def test_every_form_matches_every_other(self):
        forms, _ = d7_forms()
        for a in forms.values():
            for b in forms.values():
                assert canonical_match(a, b)

    def test_a_moved_angle_matches_no_form(self):
        forms, moved = d7_forms()
        for a in forms.values():
            assert not canonical_match(a, moved)
            assert not canonical_match(moved, a)
