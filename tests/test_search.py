"""Multistart search: determinism, objective consistency, and matching."""

import copy
import json
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from helpers import (
    NON_REAL_TOLERANCES,
    basis_vector,
    d7_solution,
    nearest_clock_shift_distance,
    normalize_rescaled,
    random_complex,
    small_first_component_pair,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import flatsic.search
from flatsic import (
    SearchConfig,
    build_legendre_vector,
    canonical_match,
    cvec,
    is_sic,
    make_dimension,
    minimize,
    objective,
    objective_and_gradient,
    search_results_json,
    to_normalized,
    to_vform,
    x_overlap_deviations,
    z_shift,
)


def config(d, obj="xoverlap", seed=42, restarts=5, **kw):
    return SearchConfig(
        dim=make_dimension(d), objective=obj, seed=seed, restarts=restarts, **kw
    )


def catalog_angles(d, sign):
    av = build_legendre_vector(d, sign).ansatz
    return np.angle(av.phases[: (d - 1) // 2])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(4)
        with pytest.raises(ValueError):
            config(7, obj="frobenius")
        with pytest.raises(ValueError):
            config(7, restarts=0)
        with pytest.raises(ValueError):
            config(7, seed=-1)
        with pytest.raises(ValueError):
            config(7, convergence_threshold=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("convergence_threshold", float("nan")),
            ("convergence_threshold", float("inf")),
            ("convergence_threshold", -float("inf")),
            *[("convergence_threshold", t) for t in (None, *NON_REAL_TOLERANCES)],
            ("max_iterations", 0),
            ("max_iterations", -1),
            ("max_iterations", 2.5),
            ("max_iterations", True),
            ("seed", True),
            ("seed", 1.5),
            ("restarts", True),
            ("restarts", 2.5),
        ],
    )
    def test_rejects_non_finite_threshold_and_iteration_cap_below_one(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            config(7, **{field: value})

    def test_stores_threshold_as_float(self):
        cfg = config(7, restarts=1, convergence_threshold=np.float32(0.5))
        assert type(cfg.convergence_threshold) is float
        assert cfg.convergence_threshold == 0.5
        assert json.loads(search_results_json(cfg, []))["config"]["convergence_threshold"] == 0.5

    def test_no_gradient_step_setting(self):
        with pytest.raises(TypeError):
            config(7, gradient_step=1e-6)


class TestObjective:
    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for obj in ("xoverlap", "sic", "naive_x"):
            cfg = config(7, obj=obj)
            for _ in range(5):
                assert objective(cfg, rng.uniform(0, 2 * np.pi, 3)) >= 0.0

    def test_wrong_angle_count(self):
        with pytest.raises(ValueError):
            objective(config(7), [0.1, 0.2])

    @pytest.mark.parametrize("obj", ["xoverlap", "sic", "naive_x"])
    @pytest.mark.parametrize(
        "angles",
        [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [0.1, float("nan"), 0.3],
         [float("inf"), 0.2, 0.3], [0.1, 0.2, -float("inf")]],
    )
    def test_rejects_angles_as_build_ansatz_does(self, obj, angles):
        from flatsic import build_ansatz

        with pytest.raises(ValueError) as expected:
            build_ansatz(7, angles)
        with pytest.raises(ValueError) as got:
            objective_and_gradient(config(7, obj=obj), angles)
        assert str(got.value) == str(expected.value)

    def test_solution_angles_xoverlap(self):
        for sign in (+1, -1):
            val = objective(config(7), catalog_angles(7, sign))
            assert val < 1e-20

    def test_d11_legendre_angles(self):
        angles = catalog_angles(11, +1)
        assert objective(config(11), angles) < 1e-20
        assert objective(config(11, obj="sic"), angles) > 1e-4

    def test_sic_objective_at_solution(self):
        assert objective(config(7, obj="sic"), catalog_angles(7, -1)) < 1e-20

    def test_naive_x_at_solution(self):
        assert objective(config(7, obj="naive_x"), catalog_angles(7, +1)) < 1e-20

    def test_xoverlap_consistency_with_residual_machinery(self):
        # objective equals the sum of squared v-form deviations: the
        # verification path's deviations scaled by sqrt(d+1)+1
        rng = np.random.default_rng(3)
        cfg = config(7)
        from flatsic import build_ansatz

        for _ in range(20):
            angles = rng.uniform(0, 2 * np.pi, 3)
            devs = (np.sqrt(8.0) + 1.0) * x_overlap_deviations(to_vform(build_ansatz(7, angles)))
            expect = float(np.sum(devs**2))
            got = objective(cfg, angles)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-30)

    def test_sic_objective_matches_quartic_table(self):
        # the transform-side rows used inside the objective must reproduce
        # the direct quartic table
        from flatsic import build_ansatz, gik_table

        rng = np.random.default_rng(9)
        cfg = config(7, obj="sic")
        d = 7
        target = np.zeros((d, d))
        target[0, :] += 1.0
        target[:, 0] += 1.0
        target /= d + 1.0
        for _ in range(5):
            angles = rng.uniform(0, 2 * np.pi, 3)
            psi = to_normalized(build_ansatz(7, angles))
            expect = float(np.sum(np.abs(gik_table(psi) - target) ** 2))
            assert objective(cfg, angles) == pytest.approx(expect, rel=1e-12)

    def test_sic_objective_implies_is_sic(self):
        cfg = config(7, obj="sic")
        angles = catalog_angles(7, +1)
        assert objective(cfg, angles) < 1e-16
        from flatsic import build_ansatz

        psi = to_normalized(build_ansatz(7, angles))
        assert is_sic(psi, tol=1e-7).is_sic


def central_difference(cfg, angles, step=1e-6):
    """The oracle for objective_and_gradient: one central difference per angle."""
    grad = np.empty(angles.size)
    for i in range(angles.size):
        e = np.zeros(angles.size)
        e[i] = step
        grad[i] = (objective(cfg, angles + e) - objective(cfg, angles - e)) / (2 * step)
    return grad


#: The largest odd d whose plan multiplies by the DFT matrix, and the next
#: odd d, whose plan calls numpy.fft.
DENSE_D = flatsic.search._DENSE_MAX_D - 1 + flatsic.search._DENSE_MAX_D % 2
FFT_D = DENSE_D + 2


class TestTransformPair:
    def test_sides_of_the_crossover(self):
        assert flatsic.search._transform_pair(FFT_D) == (np.fft.fft, np.fft.ifft)
        assert flatsic.search._transform_pair(DENSE_D)[0] is not np.fft.fft

    @pytest.mark.parametrize("d", [3, 7, DENSE_D, FFT_D])
    def test_equals_numpy_fft(self, d):
        fft, ifft = flatsic.search._transform_pair(d)
        rng = np.random.default_rng(d)
        for shape in ((d,), (4, d)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for got, expect in ((fft(x), np.fft.fft(x)), (ifft(x), np.fft.ifft(x))):
                assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        real = rng.standard_normal(d)  # the objectives transform |spectrum|^2
        assert np.linalg.norm(ifft(real) - np.fft.ifft(real)) <= 1e-12 * np.linalg.norm(real)

    @pytest.mark.parametrize("d", [3, 7, 19, DENSE_D])
    def test_dense_matrix_keeps_its_rounding(self, d):
        # fft of the identity is the DFT matrix.  It equals the matrix built
        # as exp(-2 pi i ((j k) mod d) / d) bit for bit, except that conj
        # gives the zero imaginary parts (j k = 0 mod d) the other sign
        fft, _ = flatsic.search._transform_pair(d)
        index = np.arange(d)
        expect = np.exp(-2j * np.pi * (np.outer(index, index) % d / d))
        got = fft(np.eye(d))
        assert np.array_equal(got, expect)
        assert got.real.tobytes() == expect.real.tobytes()
        nonzero = expect.imag != 0
        assert got.imag[nonzero].tobytes() == expect.imag[nonzero].tobytes()

    @pytest.mark.parametrize(
        "obj, d", [("xoverlap", 7), ("xoverlap", 11), ("naive_x", 11), ("sic", 19)]
    )
    def test_dense_and_fft_searches_agree(self, monkeypatch, obj, d):
        cfg = config(d, obj=obj, seed=3, restarts=20)
        dense = {r.restart_index: r for r in minimize(cfg)[1] if r.converged}
        monkeypatch.setattr(flatsic.search, "_transform_pair", lambda n: (np.fft.fft, np.fft.ifft))
        fft = {r.restart_index: r for r in minimize(cfg)[1] if r.converged}
        assert dense and dense.keys() == fft.keys()
        for i, r in fft.items():
            assert np.max(np.abs(np.subtract(r.angles, dense[i].angles))) <= 1e-12


class TestGradient:
    @pytest.mark.parametrize("obj", ["xoverlap", "sic", "naive_x"])
    @pytest.mark.parametrize("d", [7, 11, 19, 43, FFT_D])
    def test_matches_central_difference(self, obj, d):
        cfg = config(d, obj=obj)
        rng = np.random.default_rng([d, len(obj)])
        for _ in range(3):
            angles = rng.uniform(0, 2 * np.pi, (d - 1) // 2)
            value, grad = objective_and_gradient(cfg, angles)
            assert value == objective(cfg, angles)
            assert grad.shape == angles.shape
            expect = central_difference(cfg, angles)
            assert np.linalg.norm(grad - expect) <= 1e-6 * np.linalg.norm(expect)

    @pytest.mark.parametrize(
        "obj, d, sign",
        [("xoverlap", 7, +1), ("xoverlap", 7, -1), ("xoverlap", 11, +1),
         ("sic", 7, -1), ("naive_x", 7, +1)],
    )
    def test_vanishes_at_legendre_solution(self, obj, d, sign):
        _, grad = objective_and_gradient(config(d, obj=obj), catalog_angles(d, sign))
        assert np.linalg.norm(grad) < 1e-8


class TestReproducibility:
    @pytest.mark.parametrize("obj", ["xoverlap", "sic", "naive_x"])
    def test_same_config_same_results(self, obj):
        cfg = config(11, obj=obj, seed=5, restarts=4, max_iterations=200)
        assert minimize(cfg) == minimize(cfg)

    @pytest.mark.parametrize("obj", ["xoverlap", "sic", "naive_x"])
    def test_restart_independent_of_restart_count(self, obj):
        _, results = minimize(config(11, obj=obj, seed=9, restarts=5, max_iterations=200))
        by_index = {r.restart_index: r for r in results}
        for r in (0, 2, 4):
            _, alone = minimize(config(11, obj=obj, seed=9, restarts=r + 1, max_iterations=200))
            assert [t for t in alone if t.restart_index == r] == [by_index[r]]


class TestBatch:
    """A restart's result and a point's evaluation do not depend on the rest
    of the batch they run in."""

    @pytest.mark.parametrize("obj", ["xoverlap", "sic", "naive_x"])
    @pytest.mark.parametrize("d, max_iterations", [(11, 30), (FFT_D, 3)])
    def test_restart_result_independent_of_batch_size(self, obj, d, max_iterations):
        runs = [
            {
                r.restart_index: r
                for r in minimize(
                    config(d, obj=obj, seed=11, restarts=restarts, max_iterations=max_iterations)
                )[1]
            }
            for restarts in (1, 2, 5, 40)
        ]
        for r in (0, 1, 4):
            alone_or_among = [run[r] for run in runs if r in run]
            assert all(result == runs[-1][r] for result in alone_or_among)
        if d == 11:  # restarts left the batch at different steps
            assert len({(t.status, t.iterations) for t in runs[-1].values()}) > 1

    @pytest.mark.parametrize("obj", ["xoverlap", "sic", "naive_x"])
    @pytest.mark.parametrize("d", [11, FFT_D])
    def test_single_point_is_a_row_of_the_batch(self, obj, d):
        cfg = config(d, obj=obj)
        angles = np.random.default_rng(d).uniform(0, 2 * np.pi, (7, (d - 1) // 2))
        values, grads = flatsic.search._plan(cfg)(angles)
        for r in range(len(angles)):
            value, grad = objective_and_gradient(cfg, angles[r])
            assert value == values[r]
            assert np.array_equal(grad, grads[r])

    @pytest.mark.parametrize("d, rows", [(19, 50), (43, 10), (67, 10)])
    def test_sic_table_budget_changes_no_bit(self, monkeypatch, d, rows):
        angles = np.random.default_rng(d).uniform(0, 2 * np.pi, (rows, (d - 1) // 2))
        evaluations = []
        for budget in (1 << 16, 1 << 19):  # several slices, then one or two
            monkeypatch.setattr(flatsic.search, "_SIC_TABLE_BYTES", budget)
            evaluations.append(flatsic.search._plan(config(d, obj="sic"))(angles))
        (v1, g1), (v2, g2) = evaluations
        assert v1.tobytes() == v2.tobytes() and g1.tobytes() == g2.tobytes()

    def test_sic_evaluation_memory_is_bounded(self):
        # unsliced, 50 rows at d = 199 hold a few 50-table arrays of about
        # 32 MB each at once
        d, rows = DENSE_D, 50
        evaluate = flatsic.search._plan(config(d, obj="sic"))
        angles = np.random.default_rng(5).uniform(0, 2 * np.pi, (rows, (d - 1) // 2))
        tracemalloc.start()
        try:
            evaluate(angles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * max(flatsic.search._SIC_TABLE_BYTES, 16 * d * d)
        assert peak < 16 * d * d * rows


class TestMinimize:
    def test_deterministic(self):
        cfg = config(7, restarts=4, max_iterations=120)
        best1, all1 = minimize(cfg)
        best2, all2 = minimize(cfg)
        assert best1 == best2
        assert all1 == all2

    def test_sorted_and_flags(self):
        cfg = config(7, restarts=6, max_iterations=150)
        best, results = minimize(cfg)
        assert best == results[0]
        values = [r.objective_value for r in results]
        assert values == sorted(values)
        for r in results:
            assert r.converged == (r.objective_value < cfg.convergence_threshold)
            assert r.objective_value >= 0.0

    def test_d7_finds_solution(self):
        best, _ = minimize(config(7, restarts=10))
        assert best.objective_value < 1e-16
        from flatsic import build_ansatz

        found = to_normalized(build_ansatz(7, best.angles))
        targets = [normalize_rescaled(d7_solution(c)) for c in (-1, +1)]
        assert any(canonical_match(found, t, tol=1e-6) for t in targets)

    def test_naive_x_spurious_solutions_exist(self):
        # the weaker modulus-only condition admits non-SIC solutions in
        # dimension 7; with this seed the multistart search lands on several
        cfg = config(7, obj="naive_x", seed=123, restarts=40)
        _, results = minimize(cfg)
        spurious = 0
        from flatsic import build_ansatz

        for r in results:
            if not r.converged:
                continue
            psi = to_normalized(build_ansatz(7, r.angles))
            if is_sic(psi).max_modulus_deviation > 0.01:
                spurious += 1
        assert spurious > 0

    @pytest.mark.parametrize("obj", ["xoverlap", "sic", "naive_x"])
    def test_records_how_each_restart_ended(self, obj):
        cfg = config(11, obj=obj, seed=2, restarts=6, max_iterations=60)
        _, results = minimize(cfg)
        for r in results:
            assert r.evaluations >= r.iterations >= 0
            assert r.status in (0, 1, 2)
        assert [(r.evaluations, r.status) for r in minimize(cfg)[1]] == [
            (r.evaluations, r.status) for r in results
        ]

    def test_nonconvergent_reported_not_raised(self):
        cfg = config(11, restarts=3, max_iterations=2)
        best, results = minimize(cfg)
        assert len(results) == 3
        assert any(not r.converged for r in results)
        assert all(r.status == 1 for r in results if not r.converged)  # the iteration cap


def synthetic(points):
    """A row-wise test objective for _lbfgs on points (x0, x1, kind), whose
    kind coordinate has zero gradient and so never moves.

    kind 0: f = (x0^2 + 4 x1^2) / 2 with its true gradient.
    kind 1: the same f, but inside the unit disc the gradient has the wrong
            sign, so no step along a direction built from it descends.
    kind 2: f = x0 - 1e17, whose unit steps round to the current point near
            x0 = 1e17.
    """
    x0, x1, kind = points.T
    values = 0.5 * (x0 * x0 + 4.0 * x1 * x1)
    grads = np.stack([x0, 4.0 * x1, np.zeros(len(points))], axis=1)
    liar = (kind == 1) & (x0 * x0 + x1 * x1 <= 1.0)
    grads[liar, :2] *= -1.0
    linear = kind == 2
    values[linear] = x0[linear] - 1e17
    grads[linear] = [1.0, 0.0, 0.0]
    return values, grads


#: Starting points of every kind; the batch runs them together.
SYNTHETIC_STARTS = [(3.0, 1.0, 0.0), (3.0, 1.0, 1.0), (1e17, 0.0, 2.0), (-2.0, 0.5, 0.0),
                    (2.5, -1.5, 1.0)]


def run_lbfgs(starts, max_iterations=200):
    """_lbfgs on the synthetic objective: row -> (point bytes, value,
    iterations, evaluations, status).  A loop that never stops its rows
    fails instead of hanging."""
    calls = iter(range(10_000))

    def f(points):
        assert next(calls, None) is not None, "the minimizer did not stop"
        return synthetic(points)

    return {
        int(r): (x.tobytes(), float(v), int(i), int(e), int(s))
        for r, x, v, i, e, s in flatsic.search._lbfgs(
            f, np.array(starts, dtype=float), max_iterations
        )
    }


def recording_clear(monkeypatch):
    """Patch _Pairs.clear to record the pair counts of the rows it clears."""
    cleared, clear = [], flatsic.search._Pairs.clear

    def record(self, mask):
        cleared.extend(self.count[mask].tolist())
        clear(self, mask)

    monkeypatch.setattr(flatsic.search._Pairs, "clear", record)
    return cleared


class TestLbfgsBranches:
    """The minimizer's rare branches, which no search configuration
    reaches, on a synthetic objective; each row ends the same alone as in a
    batch with rows of every kind."""

    def assert_rows_alone_match_batch(self):
        batch = run_lbfgs(SYNTHETIC_STARTS)
        assert batch.keys() == set(range(len(SYNTHETIC_STARTS)))
        for r, start in enumerate(SYNTHETIC_STARTS):
            assert run_lbfgs([start]) == {0: batch[r]}
        return batch

    def test_failed_line_search_with_pairs_retries_along_minus_g(self, monkeypatch):
        cleared = recording_clear(monkeypatch)
        batch = self.assert_rows_alone_match_batch()
        assert [batch[r][4] for r in range(5)] == [0, 2, 2, 0, 2]
        assert cleared and min(cleared) > 0  # every clear was a retry with pairs stored
        for r in (1, 4):  # both liars end inside the disc, where no step descends
            x0, x1, _ = np.frombuffer(batch[r][0])
            assert x0 * x0 + x1 * x1 <= 1.0

    def test_failed_line_searches_run_out_of_trials(self, monkeypatch):
        # a liar's line search from its pairs and its retry along -g both
        # end after _MAX_TRIALS trial points: seven fewer trials each cost
        # 14 evaluations fewer, and nothing else moves
        full = run_lbfgs(SYNTHETIC_STARTS)
        monkeypatch.setattr(flatsic.search, "_MAX_TRIALS", flatsic.search._MAX_TRIALS - 7)
        short = self.assert_rows_alone_match_batch()
        for r in (1, 4):
            point, value, iterations, evaluations, status = full[r]
            assert short[r] == (point, value, iterations, evaluations - 14, status)

    def test_status_2_when_the_trial_point_rounds_to_the_current_point(self):
        # 1e17 - 1 rounds to 1e17: the first line search fails at once, with
        # no pairs to retry from
        batch = self.assert_rows_alone_match_batch()
        assert batch[2] == (np.array(SYNTHETIC_STARTS[2]).tobytes(), 0.0, 0, 2, 2)

    def test_non_descent_direction_clears_pairs(self, monkeypatch):
        # with pairs s.y > 0 the compact form descends up to rounding, so
        # the branch is reached through a crafted state: a row whose second
        # pair arrives has its pairs zeroed and gamma set to -1, which gives
        # the direction +g
        push = flatsic.search._Pairs.push

        def crafted_push(self, mask, s, y, sy):
            push(self, mask, s, y, sy)
            second = mask & (self.count == 2)
            self.stack[second] = 0.0
            self.rinv[second] = np.eye(flatsic.search._MEMORY)
            self.gamma[second] = -1.0

        monkeypatch.setattr(flatsic.search._Pairs, "push", crafted_push)
        cleared = recording_clear(monkeypatch)
        batch = self.assert_rows_alone_match_batch()
        assert 2 in cleared  # a crafted row's direction ascended and was cleared
        assert batch[0][4] == batch[3][4] == 0  # the convex rows still converge


class TestPairs:
    def test_push_keeps_the_rows_outside_its_mask(self):
        # row 1 has y = 0 and s.y = 0 (so no gamma); it and row 3 are outside
        # the mask and keep their state bit for bit, without a warning.  The
        # rows of the mask get what a push to them alone gives.
        rng = np.random.default_rng(8)
        pairs = flatsic.search._Pairs(4, 3)
        for _ in range(12):
            s = rng.standard_normal((4, 3))
            y = s + 0.1 * rng.standard_normal((4, 3))
            sy = np.add.reduce(s * y, axis=1)
            pairs.push(sy > 0.0, s, y, sy)
        assert np.array_equal(pairs.count, [10, 10, 10, 10])
        mask = np.array([True, False, True, False])
        inside, outside = copy.deepcopy(pairs), copy.deepcopy(pairs)
        inside.keep(mask)
        outside.keep(~mask)
        s = rng.standard_normal((4, 3))
        y = s.copy()
        y[1] = 0.0
        sy = np.add.reduce(s * y, axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs.push(mask, s, y, sy)
        inside.push(np.ones(2, dtype=bool), s[mask], y[mask], sy[mask])
        for name in ("stack", "rinv", "gamma", "count"):
            after = getattr(pairs, name)
            assert after[~mask].tobytes() == getattr(outside, name).tobytes(), name
            assert after[mask].tobytes() == getattr(inside, name).tobytes(), name
        assert np.array_equal(pairs.stack[mask][:, 9], s[mask])


class TestCanonicalMatch:
    def test_reflexive(self):
        psi = normalize_rescaled(d7_solution(-1))
        assert canonical_match(psi, psi, tol=1e-10)

    def test_z_shift_matches(self):
        psi = normalize_rescaled(d7_solution(-1))
        assert canonical_match(psi, z_shift(psi, 3), tol=1e-10)
        assert canonical_match(z_shift(psi, 5), psi, tol=1e-10)

    def test_zero_anchor_does_not_match(self):
        # b is anchored at component 0, where every Z^k a vanishes
        assert not canonical_match(basis_vector(5, 1), basis_vector(5, 0))

    def test_global_phase_matches(self):
        psi = normalize_rescaled(d7_solution(+1))
        rotated = cvec(np.exp(0.7j) * psi.components)
        assert canonical_match(psi, rotated, tol=1e-10)

    def test_small_first_component_matches_in_either_order(self):
        a, b = small_first_component_pair()
        assert canonical_match(a, b, tol=1e-8)
        assert canonical_match(b, a, tol=1e-8)

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(
        d=st.sampled_from([3, 5, 11, 19, 67, DENSE_D, FFT_D, 401]),
        seed=st.integers(0, 2**32 - 1),
        near_basis=st.booleans(),
        log_noise=st.floats(-13.0, -1.0),
        log_tol=st.floats(-10.0, np.log10(0.5)),
    )
    def test_agrees_with_the_nearest_distance_and_is_symmetric(
        self, d, seed, near_basis, log_noise, log_tol
    ):
        # b is a phase times a clock shift of a, plus noise; near a basis
        # vector every other component of a is about 1e-6
        rng = np.random.default_rng(seed)
        a = random_complex(rng, d)
        if near_basis:
            a = np.eye(d)[rng.integers(d)] + 1e-6 * a / np.linalg.norm(a)
        a = cvec(a / np.linalg.norm(a))
        noise = random_complex(rng, d)
        b = z_shift(a, int(rng.integers(d))).components * np.exp(1j * rng.uniform(0.0, 7.0))
        b = b + 10.0**log_noise * noise / np.linalg.norm(noise)
        b = cvec(b / np.linalg.norm(b))
        tol = 10.0**log_tol
        expect = nearest_clock_shift_distance(a, b) < tol
        assert canonical_match(a, b, tol=tol) == expect
        assert canonical_match(b, a, tol=tol) == expect

    def test_tolerance_beyond_the_largest_distance(self):
        # orthogonal unit vectors lie sqrt(2) apart at every shift and phase
        a, b = basis_vector(5, 1), basis_vector(5, 0)
        assert canonical_match(a, b, tol=1.5)
        assert not canonical_match(a, b, tol=1.4)

    def test_distinct_branches_do_not_match(self):
        a = normalize_rescaled(d7_solution(-1))
        b = normalize_rescaled(d7_solution(+1))
        assert not canonical_match(a, b, tol=1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), None, *NON_REAL_TOLERANCES])
    def test_rejects_bad_tolerance(self, tol):
        psi = normalize_rescaled(d7_solution(-1))
        with pytest.raises(ValueError, match="tolerance"):
            canonical_match(psi, psi, tol=tol)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            canonical_match(
                normalize_rescaled(d7_solution(-1)),
                to_normalized(build_legendre_vector(11).ansatz),
            )


class TestJson:
    def test_payload_shape(self):
        cfg = config(5, restarts=2, max_iterations=50)
        best, results = minimize(cfg)
        payload = json.loads(search_results_json(cfg, results))
        assert payload["config"]["d"] == 5
        assert payload["config"]["objective"] == "xoverlap"
        assert payload["config"]["seed"] == 42
        assert len(payload["results"]) == 2
        first = payload["results"][0]
        assert set(first) == {
            "angles",
            "objective_value",
            "restart_index",
            "iterations",
            "converged",
            "evaluations",
            "status",
        }
        assert first["objective_value"] == best.objective_value
        assert tuple(first["angles"]) == best.angles

    def test_payload_equals_the_asdict_payload(self):
        cfg = config(7, restarts=3, max_iterations=50)
        _, results = minimize(cfg)
        echo = {"d": 7, **asdict(cfg)}
        del echo["dim"]
        expect = json.dumps({"config": echo, "results": [asdict(r) for r in results]}, indent=2)
        assert search_results_json(cfg, results) == expect
