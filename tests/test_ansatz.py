"""Ansatz construction, overlap residuals, and the row-sum identity."""

import functools
import json
import math

import numpy as np
import pytest
from helpers import (
    SUBNORMAL_D7,
    UNDERFLOWING_D7,
    basis_vector,
    d7_solution,
    displacement_matrix,
    normalize_rescaled,
    random_complex,
    random_unit,
    rescaled_cvec,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from flatsic import (
    DegenerateComponentError,
    SearchConfig,
    VectorFileError,
    as_normalized,
    build_ansatz,
    build_legendre_vector,
    build_system,
    cvec,
    displacement_row_identity,
    to_normalized,
    to_rescaled,
    to_vform,
    x_overlap_deviations,
    x_overlap_residual,
    z_overlap_residual,
    z_shift,
)


def random_ansatz(rng, d, ghost=False):
    return build_ansatz(d, rng.uniform(0, 2 * np.pi, (d - 1) // 2), ghost=ghost)


PROPERTY = settings(max_examples=20, derandomize=True, database=None, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@functools.cache
def _row_sums(d: int) -> np.ndarray:
    """sum_k D_{m,k} for every m, as explicit matrices (oracle path)."""
    return np.array([sum(displacement_matrix(d, m, k) for k in range(d)) for m in range(d)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_ansatz(8, [0.0] * 3),
        lambda: x_overlap_deviations(basis_vector(8, 1)),
        lambda: displacement_row_identity(basis_vector(8, 1), 1),
        lambda: SearchConfig(dim=8, objective="xoverlap", seed=0),
        lambda: build_system(8),
    ],
    ids=["build_ansatz", "x_overlap_deviations", "row_identity", "SearchConfig", "build_system"],
)
def test_even_dimension_message_is_shared(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "the almost-flat ansatz requires odd dimension, got d=8"


class TestBuildAnsatz:
    def test_d3_explicit(self):
        av = build_ansatz(3, [0.0])
        assert av.x0 == pytest.approx(-4.0)
        assert_allclose(to_vform(av).components, [2j, 1.0, -1.0], atol=1e-15)

    def test_d7_x0(self):
        av = build_ansatz(7, [0.3, 1.1, 2.9])
        assert av.x0 == pytest.approx(-4.8284271247, abs=1e-9)

    def test_wrong_angle_count(self):
        with pytest.raises(ValueError):
            build_ansatz(7, [0.1, 0.2])

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            build_ansatz(4, [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 2])
    def test_non_finite_angle_rejected(self, bad, index):
        angles = [0.1, 0.2, 0.3]
        angles[index] = bad
        with pytest.raises(ValueError, match=f"angles must be finite.*index {index}"):
            build_ansatz(7, angles)

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 19])
    def test_invariants(self, d):
        rng = np.random.default_rng(d)
        av = random_ansatz(rng, d)
        assert abs((av.x0 + 2) ** 2 - (d + 1)) < 1e-12
        assert np.max(np.abs(np.abs(av.phases) - 1.0)) < 1e-12
        for j in range(1, d):
            assert abs(av.phases[d - j - 1] + np.conj(av.phases[j - 1])) < 1e-12
        assert abs(av.sqrt_x0**2 - av.x0) < 1e-12
        assert av.sqrt_x0.imag > 0
        assert np.linalg.norm(to_vform(av).components) ** 2 == pytest.approx(d - 1 - av.x0)

    def test_ghost_branch(self):
        av = build_ansatz(7, [0.3, 1.1, 2.9], ghost=True)
        assert av.x0 == pytest.approx(-2.0 + math.sqrt(8.0))
        assert abs(av.sqrt_x0**2 - av.x0) < 1e-12
        assert abs(np.linalg.norm(to_normalized(av).components) - 1.0) < 1e-13


class TestConversions:
    def test_normalized_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            av = random_ansatz(rng, 7)
            assert abs(np.linalg.norm(to_normalized(av).components) - 1.0) < 1e-13

    def test_d7_normalization_constant(self):
        av = build_ansatz(7, [0.0, 0.0, 0.0])
        norm_sq = 1.0 / np.linalg.norm(to_vform(av).components) ** 2
        assert norm_sq == pytest.approx(1.0 / (8.0 + 2.0 * math.sqrt(2.0)))
        assert norm_sq == pytest.approx(0.0923495, abs=1e-6)

    def test_rescaled_moduli_and_conjugation(self):
        rng = np.random.default_rng(2)
        av = random_ansatz(rng, 7)
        x = to_rescaled(av).components
        assert x[0] == pytest.approx(av.x0)
        for j in range(1, 7):
            assert abs(abs(x[j]) ** 2 + av.x0) < 1e-12  # |x_j|^2 = -x0
            assert abs(np.conj(x[j]) - x[7 - j]) < 1e-12
            assert abs(x[j] * x[7 - j] + av.x0) < 1e-12

    def test_as_normalized_from_rescaled(self):
        rng = np.random.default_rng(3)
        av = random_ansatz(rng, 7)
        direct = to_normalized(av).components
        via_rescaled = as_normalized(to_rescaled(av)).components
        assert_allclose(via_rescaled, direct, atol=1e-13)

    def test_as_normalized_from_vform(self):
        av = build_ansatz(5, [0.4, 2.2])
        assert_allclose(
            as_normalized(to_vform(av)).components,
            to_normalized(av).components,
            atol=1e-14,
        )

    def test_rescaled_requires_real_first_component(self):
        with pytest.raises(VectorFileError, match="rescaled-x0-real"):
            cvec(np.full(3, 1 + 1j), "rescaled")


class TestZOverlap:
    @pytest.mark.parametrize("d", [3, 7, 19])
    def test_ansatz_built_in(self, d):
        rng = np.random.default_rng(d + 100)
        for _ in range(5):
            psi = to_normalized(random_ansatz(rng, d))
            assert z_overlap_residual(psi) < 1e-12

    def test_basis_vector(self):
        d = 7
        assert z_overlap_residual(basis_vector(d, 0)) == pytest.approx(
            math.sqrt(d + 1.0) - 1.0
        )

    def test_d7_solution(self):
        assert z_overlap_residual(normalize_rescaled(d7_solution(-1))) < 1e-12


class TestXOverlapSymmetries:
    """x_overlap_deviations under the symmetries that map solutions to
    solutions: clock shifts, complex conjugation and multipliers."""

    @pytest.mark.parametrize("d", [3, 7, 9, 15, 19])
    def test_clock_shift_keeps_every_entry(self, d):
        psi = random_unit(np.random.default_rng(300 + d), d)
        dev = x_overlap_deviations(psi)
        for k in range(1, d):
            assert_allclose(x_overlap_deviations(z_shift(psi, k)), dev, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [3, 7, 9, 15, 19])
    def test_conjugation_keeps_every_entry(self, d):
        psi = random_unit(np.random.default_rng(400 + d), d)
        conj = x_overlap_deviations(cvec(np.conj(psi.components)))
        assert_allclose(conj, x_overlap_deviations(psi), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [3, 7, 9, 15, 19])
    def test_multiplier_moves_entry_j_to_aj(self, d):
        # psi'_j = psi_{aj}: <psi'|X^{-m}|psi'> is <psi|X^{-am}|psi>
        psi = random_unit(np.random.default_rng(500 + d), d)
        dev = x_overlap_deviations(psi)
        j = np.arange(1, d)
        for a in range(2, d):
            if math.gcd(a, d) != 1:
                continue
            moved = x_overlap_deviations(cvec(psi.components[(a * np.arange(d)) % d]))
            assert_allclose(moved, dev[(a * j) % d - 1], rtol=0, atol=1e-13)

    def test_multiplier_is_not_the_identity(self):
        psi = random_unit(np.random.default_rng(507), 7)
        moved = x_overlap_deviations(cvec(psi.components[(3 * np.arange(7)) % 7]))
        assert np.max(np.abs(moved - x_overlap_deviations(psi))) > 1e-3


class TestXOverlap:
    def test_d7_solutions(self):
        for coeff in (-1, +1):
            assert x_overlap_residual(normalize_rescaled(d7_solution(coeff))) < 1e-11

    def test_d11_legendre(self):
        psi = to_normalized(build_legendre_vector(11).ansatz)
        assert x_overlap_residual(psi) < 1e-11

    def test_random_ansatz_fails(self):
        rng = np.random.default_rng(7)
        psi = to_normalized(random_ansatz(rng, 7))
        assert x_overlap_residual(psi) > 0.01

    def test_degenerate_component(self):
        # the first j whose squared modulus is 0 or subnormal is named; no
        # nan or inf comes back
        for psi, j in [(basis_vector(7, 0), 1), (UNDERFLOWING_D7, 6), (SUBNORMAL_D7, 6)]:
            with pytest.raises(DegenerateComponentError, match=f"at j = {j}$"):
                x_overlap_residual(psi)

    def test_even_dimension(self):
        with pytest.raises(ValueError):
            x_overlap_residual(basis_vector(4, 1))

    def test_phase_sensitivity(self):
        # multiplying by i keeps every overlap but flips the target sign
        psi = normalize_rescaled(d7_solution(-1))
        rotated = cvec(1j * psi.components)
        assert x_overlap_residual(rotated) > 1.0
        s = math.sqrt(8.0)
        flipped = max(
            abs(
                s * np.vdot(rotated.components, np.roll(rotated.components, (-2 * j) % 7))
                + rotated.components[j] ** 2 / abs(rotated.components[j]) ** 2
            )
            for j in range(1, 7)
        )
        assert flipped < 1e-11

    def test_vform_evaluation_matches(self):
        # on the v-form, |<v|X^{-2j}|v> - (sqrt(d+1)+1) v_j^2| equals the
        # normalized-form deviation scaled by exactly sqrt(d+1)+1
        rng = np.random.default_rng(11)
        for d in (5, 7, 11):
            av = random_ansatz(rng, d)
            w = to_vform(av).components
            c = np.array([np.vdot(w, np.roll(w, (-2 * j) % d)) for j in range(1, d)])
            s = math.sqrt(d + 1.0)
            dev_v = np.abs(c - (s + 1.0) * w[1:] ** 2)
            assert_allclose(dev_v, (s + 1.0) * x_overlap_deviations(to_vform(av)), atol=1e-12)
            assert_allclose(dev_v, (s + 1.0) * x_overlap_deviations(to_normalized(av)), atol=1e-12)


class TestZShift:
    def test_identity_shift(self):
        psi = normalize_rescaled(d7_solution(+1))
        assert_allclose(z_shift(psi, 0).components, psi.components)

    def test_basis_zero_unchanged(self):
        assert_allclose(
            z_shift(basis_vector(5, 0), 3).components, basis_vector(5, 0).components
        )

    def test_closure_on_solution(self):
        psi = normalize_rescaled(d7_solution(-1))
        for k in range(1, 7):
            assert x_overlap_residual(z_shift(psi, k)) < 1e-11

    @PROPERTY
    @given(seed=SEEDS)
    def test_residual_invariance(self, seed):
        # clock shifts change each per-index deviation only by a phase
        d = 7
        psi = to_normalized(random_ansatz(np.random.default_rng(seed), d))
        base = x_overlap_deviations(psi)
        for k in range(1, d):
            shifted = z_shift(psi, k)
            expect = displacement_matrix(d, 0, k) @ psi.components
            assert_allclose(shifted.components, expect, atol=1e-13)
            assert_allclose(x_overlap_deviations(shifted), base, atol=1e-12)

    def test_form_preserved(self):
        x = rescaled_cvec(d7_solution(-1))
        assert z_shift(x, 2).form == "rescaled"


class TestRowIdentity:
    def test_random_d5(self):
        rng = np.random.default_rng(5)
        psi = random_complex(rng, 5)
        report = displacement_row_identity(psi, 2)
        assert report.deviation < 1e-12

    def test_matrix_oracle(self):
        # sum_k D_{-2j,k} collapses to d |(-j)><(j)|: check as explicit matrices
        d, j = 5, 2
        m = (-2 * j) % d
        total = sum(displacement_matrix(d, m, k) for k in range(d))
        expect = np.zeros((d, d), complex)
        expect[(-j) % d, j] = d
        assert_allclose(total, expect, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 19])
    @PROPERTY
    @given(seed=SEEDS)
    def test_random_vectors_all_j(self, d, seed):
        psi = random_complex(np.random.default_rng(seed), d)
        # the matrix oracle rounds tau^{jk} at every entry, so it is held to
        # a bound that scales with the squared norm
        oracle_tol = 1e-12 * np.vdot(psi, psi).real
        for j in range(1, d):
            report = displacement_row_identity(psi, j)
            assert report.deviation < 1e-12
            oracle = np.vdot(psi, _row_sums(d)[(-2 * j) % d] @ psi)
            assert abs(report.lhs - oracle) < oracle_tol

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            displacement_row_identity(basis_vector(4, 0), 1)

    def test_sic_consequence(self):
        # on the solution the k>=1 part of the row equals
        # -sqrt(d+1) <Psi|X^m|Psi>
        psi = normalize_rescaled(d7_solution(-1))
        arr = psi.components
        s = math.sqrt(8.0)
        for j in range(1, 7):
            m = (-2 * j) % 7
            report = displacement_row_identity(psi, j)
            assert report.deviation < 1e-12
            xov = np.vdot(arr, np.roll(arr, m))
            tail = report.lhs - xov
            assert abs(tail + s * xov) < 1e-11

    def test_equivalence_scaling(self):
        # on ansatz vectors the two residuals are proportional with ratio
        # (sqrt(d+1)-1)/sqrt(d+1)
        rng = np.random.default_rng(23)
        d = 7
        s = math.sqrt(d + 1.0)
        for _ in range(100):
            psi = to_normalized(random_ansatz(rng, d))
            arr = psi.components
            for j in (1, 3):
                m = (-2 * j) % d
                report = displacement_row_identity(psi, j)
                assert report.deviation < 1e-12
                xov = np.vdot(arr, np.roll(arr, m))
                r10 = abs((report.lhs - xov) + s * xov)
                r7 = abs(s * xov - arr[j] ** 2 / abs(arr[j]) ** 2)
                assert abs(r10 - (s - 1.0) / s * r7) < 1e-10 * (1.0 + r7)


class TestJson:
    # angles interchange as a JSON list: build_ansatz(d, angles, ghost) rebuilds
    # the vector from the verbatim av.angles
    def test_round_trip_exact(self):
        av = build_ansatz(7, [0.1, 5.0, 2.25], ghost=False)
        text = json.dumps([float(a) for a in av.angles])
        back = build_ansatz(7, json.loads(text), ghost=False)
        assert back.dim.d == 7
        assert back.ghost is False
        assert tuple(back.angles) == tuple(av.angles)
        assert_allclose(back.phases, av.phases, rtol=0, atol=0)

    def test_ghost_round_trip(self):
        av = build_ansatz(5, [1.5, 0.25], ghost=True)
        back = build_ansatz(5, json.loads(json.dumps(av.angles.tolist())), ghost=av.ghost)
        assert back.ghost is True
        assert back.x0 == av.x0

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            build_ansatz(7, json.loads("[0.1]"))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_angle_payload(self, token):
        with pytest.raises(ValueError, match="angles must be finite"):
            build_ansatz(7, json.loads(f"[0.1, {token}, 0.3]"))
