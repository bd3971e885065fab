"""Seeded multistart local search over the free ansatz angles.

Objectives are sums of squared residuals of the X-overlap equation (on the
v-form), of the quartic SIC conditions, or of the naive shift-modulus
conditions.  Each comes with its exact gradient in the free angles
(objective_and_gradient), which the quasi-Newton minimizer uses; no finite
differences are taken.  minimize evaluates them from one plan per search,
which holds every constant that depends only on d, among them one pair of
length-d transforms (fft, ifft) that every objective reads.  For
d <= _DENSE_MAX_D (199) the pair is a product with the d x d DFT matrix,
since numpy.fft's fixed cost per call dominates an evaluation at small d;
above it the pair is numpy.fft.  Per xoverlap evaluation, numpy.fft
throughout against the pair (median microseconds, one core):

    d            7    19    67   199   201   487   1999
    numpy.fft   98   113   132   224   178   397   1567
    pair        60    62    79   192   170   391   1364

Every restart draws its starting point from a generator seeded by
(seed, restart_index), so runs are reproducible bit for bit and restarts
could execute in any order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .ansatz import _branch, _vform_array, as_normalized, z_shift
from .verify import _naive_x_gaps, check_tolerance
from .weyl import CVec, Dim, _check_integer, _odd_dim, clock_shift_rows

__all__ = [
    "OBJECTIVES",
    "SearchConfig",
    "SearchResult",
    "objective",
    "objective_and_gradient",
    "minimize",
    "canonical_match",
    "search_results_json",
]

OBJECTIVES = ("xoverlap", "sic", "naive_x")

@dataclass(frozen=True)
class SearchConfig:
    """Search settings; the free parameters are the (d-1)/2 ansatz angles."""

    dim: Dim
    objective: str
    seed: int
    restarts: int = 1
    max_iterations: int = 500
    convergence_threshold: float = 1e-16

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _odd_dim(self.dim))
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}"
            )
        for field in ("seed", "restarts", "max_iterations"):
            object.__setattr__(self, field, _check_integer(getattr(self, field), field))
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        threshold = check_tolerance(self.convergence_threshold, "convergence threshold")
        object.__setattr__(self, "convergence_threshold", threshold)


@dataclass(frozen=True)
class SearchResult:
    """One restart's outcome; converged means objective below the threshold.

    iterations, evaluations and status are the minimizer's nit, nfev and
    integer status: 0 when its own stopping test (ftol, gtol) was met, 1 at
    the iteration or evaluation cap, 2 when it stopped otherwise, such as
    after a failed line search.
    """

    angles: tuple[float, ...]
    objective_value: float
    restart_index: int
    iterations: int
    converged: bool
    evaluations: int
    status: int


def objective_and_gradient(config: SearchConfig, angles) -> tuple[float, np.ndarray]:
    """The configured objective at a set of free angles and its exact gradient
    with respect to those angles, from one pass over the kernel quantities.

    Angles are checked exactly as build_ansatz checks them.  The vector is
    always a default-branch ansatz vector, so the clock-overlap condition
    holds identically and only the X-side structure is penalized.  Each
    objective is first differentiated by conj(w_k) for the vector w it reads
    (the v-form for xoverlap, the unit vector otherwise; its norm is the same
    at every angle), then chained to the angles by _angle_gradient.

    Each call builds a fresh plan, the d x d DFT matrix included below the
    crossover; repeated evaluation belongs in minimize, which builds one.
    """
    return _plan(config)(angles)


def _plan(config: SearchConfig):
    """The objective_and_gradient function of one configuration.

    Everything that depends only on d is computed here, once per search:
    the transform pair among it.  Each evaluation builds the v-form array of
    its angles and the kernel quantities of that vector, and nothing else.
    """
    d = config.dim.d
    _, sqrt_x0 = _branch(d, ghost=False)
    pos = np.arange(1, (d + 1) // 2)
    neg = d - pos
    fft, ifft = _transform_pair(d)

    if config.objective == "xoverlap":
        lags = (2 * np.arange(1, d)) % d
        s_plus_1 = math.sqrt(d + 1.0) + 1.0
        scale = 2.0 * s_plus_1

        def xoverlap(angles):
            _, w = _vform_array(d, angles, sqrt_x0)
            spectrum = fft(w)
            # gap j, at lag 2j: <v|X^{-2j}|v> - (sqrt(d+1)+1) v_j^2
            gaps = ifft(np.abs(spectrum) ** 2)[lags] - s_plus_1 * w[1:] ** 2
            lagged = np.zeros(d, dtype=np.complex128)
            lagged[lags] = gaps
            grad = _lag_adjoint(fft, ifft, spectrum, lagged)
            grad[1:] -= scale * np.conj(w[1:]) * gaps
            return float(np.sum(np.abs(gaps) ** 2)), _angle_gradient(w, grad, pos, neg)

        return xoverlap

    def unit_vector(angles):
        _, v = _vform_array(d, angles, sqrt_x0)
        return v / np.linalg.norm(v)

    if config.objective == "naive_x":

        def naive_x(angles):
            w = unit_vector(angles)
            spectrum = fft(w)
            c = ifft(np.abs(spectrum) ** 2)
            gaps = _naive_x_gaps(c)
            grad = _lag_adjoint(fft, ifft, spectrum, 2.0 * gaps * c)
            return float(np.sum(gaps**2)), _angle_gradient(w, grad, pos, neg)

        return naive_x

    # sic: by Parseval over k, sum_ik |G(i,k) - target|^2 = (1/d) sum_ij E_ij^2 with
    # E_ij = |C_ij|^2 - t_ij, C_ij = <w|Z^j X^i|w> the clock-shift rows (the
    # overlaps up to a unit phase), t_00 = 1 and t_ij = 1/(d+1) elsewhere.
    # (Z^j X^i w)_q = omega^{jq} w_{q-i}, so the gradient
    # (4/d) sum_ij E_ij conj(C_ij) (Z^j X^i w)_q is one inverse transform per row.
    indices = np.arange(d)
    target = np.full((d, d), 1.0 / (d + 1.0))
    target[0, 0] = 1.0
    shifted = (indices - indices[:, None]) % d  # [i, q] -> q - i

    def sic(angles):
        w = unit_vector(angles)
        table = clock_shift_rows(w, indices)
        gaps = np.abs(table) ** 2 - target
        spectra = ifft(gaps * np.conj(table))
        grad = 4.0 * np.sum(w[shifted] * spectra, axis=0)
        return float(np.sum(gaps**2) / d), _angle_gradient(w, grad, pos, neg)

    return sic


#: Largest d whose search transforms are products with the d x d DFT matrix.
#: Below it numpy.fft's fixed cost per call outweighs the d^2 arithmetic of a
#: matrix product; above it the O(d log d) transform wins (the module
#: docstring has the per-evaluation table this is read from).
_DENSE_MAX_D = 199


def _transform_pair(d: int):
    """(fft, ifft): numpy.fft's unnormalized length-d DFT and its inverse,
    along the last axis of their argument.

    For d <= _DENSE_MAX_D both are products with the DFT matrix, built here,
    F_jk = exp(-2 pi i ((j k) mod d) / d) with the exponent reduced exactly
    before it is scaled, and conj(F) / d.  F is symmetric, so x @ F
    transforms every row of x.  Above that d they are numpy.fft itself.
    """
    if d > _DENSE_MAX_D:
        return np.fft.fft, np.fft.ifft
    index = np.arange(d)
    forward = np.exp(-2j * np.pi * (np.outer(index, index) % d / d))
    inverse = np.conj(forward) / d
    return (lambda x: x @ forward), (lambda x: x @ inverse)


def _lag_adjoint(fft, ifft, spectrum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """g_k = sum_m r_m w_{k-m} + sum_m conj(r_m) w_{k+m}, one convolution and
    one correlation: the conj(w_k) derivative of sum_m conj(r_m) c_m + c.c.
    with r held fixed, where c is the autocorrelation of w, spectrum is
    fft(w), and fft, ifft is the plan's transform pair."""
    rf = fft(r)
    return ifft((rf + np.conj(rf)) * spectrum)


def _angle_gradient(
    w: np.ndarray, grad: np.ndarray, pos: np.ndarray, neg: np.ndarray
) -> np.ndarray:
    """Chain a gradient grad_k = df/dconj(w_k) of a real f through
    w_j = |w_j| exp(i a_j) and w_{d-j} = -conj(w_j), j = 1..(d-1)/2, for
    pos = j and neg = d - j."""
    return 2.0 * (np.imag(np.conj(grad[neg]) * w[neg]) - np.imag(np.conj(grad[pos]) * w[pos]))


def objective(config: SearchConfig, angles) -> float:
    """The configured objective at a set of free angles: the value that
    objective_and_gradient returns, from a fresh plan per call."""
    return objective_and_gradient(config, angles)[0]


def minimize(config: SearchConfig) -> tuple[SearchResult, list[SearchResult]]:
    """Run the multistart search; returns (best, all results).

    Each restart starts from angles drawn uniformly on [0, 2 pi) by a
    generator seeded with (seed, restart_index) and runs a quasi-Newton
    minimizer fed with the exact gradients of objective_and_gradient.
    Results are sorted by (objective_value, restart_index); non-convergent
    restarts are kept, flagged converged=False.
    """
    # imported here, not at module level: no other part of flatsic needs scipy
    from scipy.optimize import minimize as _scipy_minimize

    half = (config.dim.d - 1) // 2
    f = _plan(config)
    results = []
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        start = rng.uniform(0.0, 2.0 * np.pi, half)
        res = _scipy_minimize(
            f,
            start,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": config.max_iterations,
                "ftol": 1e-20,
                "gtol": 1e-14,
            },
        )
        value = float(res.fun)
        results.append(
            SearchResult(
                angles=tuple(float(v) for v in res.x),
                objective_value=value,
                restart_index=r,
                iterations=int(res.nit),
                converged=bool(value < config.convergence_threshold),
                evaluations=int(res.nfev),
                status=int(res.status),
            )
        )
    results.sort(key=lambda t: (t.objective_value, t.restart_index))
    return results[0], results


def canonical_match(a: CVec, b: CVec, tol: float = 1e-8) -> bool:
    """True when some clock shift Z^k of a equals b up to a global phase.

    The phase is fixed per shift by aligning the first non-negligible
    component of b; distance is the Euclidean norm of the difference.  tol
    must satisfy 0 < tol < inf, or a ValueError is raised.
    """
    tol = check_tolerance(tol)
    if a.dim.d != b.dim.d:
        raise ValueError(f"dimension mismatch: {a.dim.d} vs {b.dim.d}")
    ua = as_normalized(a)
    ub = as_normalized(b).components
    d = a.dim.d
    i0 = int(np.flatnonzero(np.abs(ub) > 1e-12)[0])  # ub has unit norm
    if abs(ua.components[i0]) < 1e-12:  # |(Z^k a)_i0| = |a_i0| for every k
        return False
    for k in range(d):
        za = z_shift(ua, k).components
        phase = za[i0] / ub[i0]
        phase /= abs(phase)
        if np.linalg.norm(za - phase * ub) < tol:
            return True
    return False


def search_results_json(config: SearchConfig, results: list[SearchResult]) -> str:
    """Config echo plus the sorted result list, as JSON."""
    echo = {"d": config.dim.d, **asdict(config)}
    del echo["dim"]
    return json.dumps({"config": echo, "results": [asdict(r) for r in results]}, indent=2)
