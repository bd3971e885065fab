"""Seeded multistart local search over the free ansatz angles.

Objectives are sums of squared residuals of the X-overlap equation (on the
v-form), of the quartic SIC conditions, or of the naive shift-modulus
conditions.  Every restart draws its starting point from a generator seeded
by (seed, restart_index), so runs are reproducible bit for bit and restarts
could execute in any order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .ansatz import (
    as_normalized,
    build_ansatz,
    to_normalized,
    to_vform,
    vform_x_overlap_deviations,
    z_shift,
)
from .verify import _check_tolerance, _gik_gaps, _naive_x_gaps
from .weyl import CVec, Dim, _as_dim, gik_rows

__all__ = [
    "OBJECTIVES",
    "SearchConfig",
    "SearchResult",
    "objective",
    "minimize",
    "canonical_match",
    "search_results_json",
]

OBJECTIVES = ("xoverlap", "sic", "naive_x")

_GRADIENT_STEP = 1e-6  # central-difference step of the gradients fed to the minimizer


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
        object.__setattr__(self, "dim", _as_dim(self.dim))
        if not self.dim.is_odd:
            raise ValueError(f"search requires odd dimension, got d={self.dim.d}")
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}"
            )
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.convergence_threshold <= 0:
            raise ValueError("convergence threshold must be positive")


@dataclass(frozen=True)
class SearchResult:
    """One restart's outcome; converged means objective below the threshold."""

    angles: tuple[float, ...]
    objective_value: float
    restart_index: int
    iterations: int
    converged: bool


def objective(config: SearchConfig, angles) -> float:
    """Evaluate the configured objective at a set of free angles.

    All three objectives go through build_ansatz, so the clock-overlap
    condition holds identically and only the X-side structure is penalized.
    """
    av = build_ansatz(config.dim, angles)
    if config.objective == "xoverlap":
        return float(np.sum(vform_x_overlap_deviations(to_vform(av)) ** 2))
    psi = to_normalized(av).components
    if config.objective == "naive_x":
        return float(np.sum(_naive_x_gaps(psi) ** 2))
    # sic: all d^2 quartic conditions from one batched G table, O(d^2 log d)
    rows = np.arange(config.dim.d)
    return float(np.sum(np.abs(_gik_gaps(rows, gik_rows(psi, rows))) ** 2))


def _central_diff_grad(f, x: np.ndarray) -> np.ndarray:
    g = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += _GRADIENT_STEP
        xm = x.copy()
        xm[i] -= _GRADIENT_STEP
        g[i] = (f(xp) - f(xm)) / (2.0 * _GRADIENT_STEP)
    return g


def minimize(config: SearchConfig) -> tuple[SearchResult, list[SearchResult]]:
    """Run the multistart search; returns (best, all results).

    Each restart starts from angles drawn uniformly on [0, 2 pi) by a
    generator seeded with (seed, restart_index) and runs a quasi-Newton
    minimizer fed with central finite-difference gradients.  Results are
    sorted by (objective_value, restart_index); non-convergent restarts are
    kept, flagged converged=False.
    """
    half = (config.dim.d - 1) // 2

    def f(a):
        return objective(config, a)

    results = []
    for r in range(config.restarts):
        rng = np.random.default_rng([config.seed, r])
        start = rng.uniform(0.0, 2.0 * np.pi, half)
        res = _scipy_minimize(
            f,
            start,
            jac=lambda a: _central_diff_grad(f, a),
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
    tol = _check_tolerance(tol)
    if a.dim.d != b.dim.d:
        raise ValueError(f"dimension mismatch: {a.dim.d} vs {b.dim.d}")
    ua = as_normalized(a)
    ub = as_normalized(b).components
    d = a.dim.d
    anchors = np.flatnonzero(np.abs(ub) > 1e-12)
    if anchors.size == 0:
        raise ValueError("cannot match against a zero vector")
    i0 = int(anchors[0])
    for k in range(d):
        za = z_shift(ua, k).components
        if abs(za[i0]) < 1e-12:
            continue
        phase = za[i0] / ub[i0]
        phase /= abs(phase)
        if np.linalg.norm(za - phase * ub) < tol:
            return True
    return False


def search_results_json(config: SearchConfig, results: list[SearchResult]) -> str:
    """Config echo plus the sorted result list, as JSON."""
    payload = {
        "config": {
            "d": config.dim.d,
            "objective": config.objective,
            "seed": config.seed,
            "restarts": config.restarts,
            "max_iterations": config.max_iterations,
            "convergence_threshold": config.convergence_threshold,
        },
        "results": [
            {
                "angles": list(r.angles),
                "objective_value": r.objective_value,
                "restart_index": r.restart_index,
                "iterations": r.iterations,
                "converged": r.converged,
            }
            for r in results
        ],
    }
    return json.dumps(payload, indent=2)
