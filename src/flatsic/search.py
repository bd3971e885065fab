"""Seeded multistart local search over the free ansatz angles.

Objectives are sums of squared residuals of the X-overlap equation (on the
v-form), of the quartic SIC conditions, or of the naive shift-modulus
conditions.  Each comes with its exact gradient in the free angles
(objective_and_gradient); no finite differences are taken.  A search
evaluates them from one plan (_plan), which holds every constant that
depends only on d, among them one pair of length-d transforms (fft, ifft)
that every objective reads: products with the d x d DFT matrix for
d <= _DENSE_MAX_D (199) and numpy.fft above it.  Whole minimize runs at
d = 127-199 show no one crossover: numpy.fft wins xoverlap and naive_x
searches of 5 or more restarts, the dense product single-restart ones, and
sic searches are level or favour the dense product (CHANGES.md, "Timings
moved out of the README").

All restarts of a search advance together.  The plan maps an (R, (d-1)/2)
array of angles to R values and an (R, (d-1)/2) gradient, and minimize runs
one limited-memory BFGS (Liu and Nocedal, Math. Programming 45, 1989: the
method L-BFGS-B applies when no bound is set) over all R restarts at once,
calling the plan once per step on the restarts still running.  Each restart
keeps its own 10 curvature pairs, takes min(1, 1/|g|) as its first step and
1 afterwards, backtracks until the Armijo test holds, and leaves the batch
when it stops:

    status 0   its own test: a step lowered the objective by at most
               1e-20 * max(|f_old|, |f_new|, 1), or max |g| <= 1e-14
    status 1   max_iterations accepted steps
    status 2   a line search failed (20 trial points, or a trial point that
               rounds to the current point) with no curvature pair stored

Every operation acts on each row alone, the same way whatever the batch
holds, so a restart's result is bit-identical however many restarts run
beside it.  Each restart draws its starting point from a generator seeded by
(seed, restart_index).  CHANGES.md, "Timings moved out of the README", has
the timings per minimize call and per step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .ansatz import _branch, _one_row, _vform_array
from .weyl import Dim, _check_integer, _odd_dim, _omega_phase, _x_lags, check_tolerance

__all__ = [
    "OBJECTIVES",
    "SearchConfig",
    "SearchResult",
    "objective",
    "objective_and_gradient",
    "minimize",
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
            raise ValueError(f"unknown objective {self.objective!r}, expected one of {OBJECTIVES}")
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

    iterations counts the minimizer's accepted steps and evaluations the
    objective evaluations of the restart, its start included.  status is 0
    when its own stopping test (_FTOL, _GTOL) was met, 1 at max_iterations,
    and 2 after a line search failed with no curvature pair stored.
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

    This is the search plan applied to a batch of one row, so it equals, bit
    for bit, that row of any batch minimize evaluates.  Angles are checked
    exactly as build_ansatz checks them.  The vector is always a
    default-branch ansatz vector, so the clock-overlap condition holds
    identically and only the X-side structure is penalized.  Each objective
    is first differentiated by conj(w_k) for the vector w it reads (the
    v-form for xoverlap, the unit vector otherwise; its norm is the same at
    every angle), then chained to the angles by _angle_gradient.

    Each call builds a fresh plan, the d x d DFT matrix included below the
    crossover; repeated evaluation belongs in minimize, which builds one.
    """
    values, grads = _plan(config)(_one_row(angles))
    return float(values[0]), grads[0]


def _plan(config: SearchConfig):
    """The objective of one configuration as a function of a batch of angle
    rows, shape (R, (d-1)/2), returning the R values and their (R, (d-1)/2)
    gradient.

    Everything that depends only on d is computed here, once per search:
    the transform pair among it.  Each evaluation builds the v-form array of
    its angles and the kernel quantities of those vectors, and nothing else.
    Every operation acts on each row alone, in the same way whatever the
    number of rows, so a row's value and gradient do not depend on the rest
    of the batch.  Gathers along the last axis use take: an index array
    there (a[:, idx]) returns a batch in another memory order than a single
    row, and numpy's sums and products then round the two differently.
    """
    d = config.dim.d
    _, sqrt_x0 = _branch(d, ghost=False)
    half = (d - 1) // 2
    fft, ifft = _transform_pair(d)

    if config.objective == "xoverlap":
        lags = _x_lags(d)
        s_plus_1 = math.sqrt(d + 1.0) + 1.0
        scale = 2.0 * s_plus_1

        def xoverlap(angles):
            _, w = _vform_array(d, angles, sqrt_x0)
            spectrum = fft(w)
            # gap j, at lag 2j: <v|X^{-2j}|v> - (sqrt(d+1)+1) v_j^2
            gaps = ifft(np.abs(spectrum) ** 2).take(lags, axis=1) - s_plus_1 * w[:, 1:] ** 2
            lagged = np.zeros(w.shape, dtype=np.complex128)
            lagged[:, lags] = gaps
            grad = _lag_adjoint(fft, ifft, spectrum, lagged)
            grad[:, 1:] -= scale * np.conj(w[:, 1:]) * gaps
            return np.add.reduce(np.abs(gaps) ** 2, axis=-1), _angle_gradient(w, grad, half)

        return xoverlap

    # the v-form norm sqrt(|x0| + d - 1) is the same at every angle
    unit_scale = 1.0 / math.sqrt(abs(sqrt_x0) ** 2 + d - 1.0)

    def unit_vectors(angles):
        return _vform_array(d, angles, sqrt_x0)[1] * unit_scale

    if config.objective == "naive_x":

        def naive_x(angles):
            w = unit_vectors(angles)
            spectrum = fft(w)
            c = ifft(np.abs(spectrum) ** 2)
            gaps = _naive_x_gaps(c)
            grad = _lag_adjoint(fft, ifft, spectrum, 2.0 * gaps * c)
            return np.add.reduce(gaps**2, axis=-1), _angle_gradient(w, grad, half)

        return naive_x

    # sic: by Parseval over k, sum_ik |G(i,k) - target|^2 = (1/d) sum_ij E_ij^2 with
    # E_ij = |C_ij|^2 - t_ij, C_ij = <w|Z^j X^i|w> the clock-shift rows (the
    # overlaps up to a unit phase), t_00 = 1 and t_ij = 1/(d+1) elsewhere.
    # Row i of C is d * ifft(conj(w) * X^i w), and (Z^j X^i w)_q = omega^{jq} w_{q-i},
    # so the gradient (4/d) sum_ij E_ij conj(C_ij) (Z^j X^i w)_q is one inverse
    # transform per row: one gather of w_{q-i} serves the table and the gradient.
    # Each vector needs a few d x d tables at once, so the batch is evaluated
    # in slices whose clock-shift tables take at most _SIC_TABLE_BYTES.
    target = np.full((d, d), 1.0 / (d + 1.0))
    target[0, 0] = 1.0
    shifted = (np.arange(d) - np.arange(d)[:, None]) % d  # [i, q] -> q - i
    slice_rows = max(1, _SIC_TABLE_BYTES // (16 * d * d))

    def sic(angles):
        w = unit_vectors(angles)
        values = np.empty(len(w))
        grad = np.empty(w.shape, dtype=np.complex128)
        for start in range(0, len(w), slice_rows):
            part = slice(start, start + slice_rows)
            moved = w[part].take(shifted, axis=1)  # [r, i, q] -> w_{q-i}
            table = d * ifft(np.conj(w[part])[:, None, :] * moved)
            gaps = np.abs(table) ** 2 - target
            # named: numpy would round moved * <temporary> as <temporary> * moved
            spectra = ifft(gaps * np.conj(table))
            grad[part] = 4.0 * np.add.reduce(moved * spectra, axis=1)
            values[part] = np.add.reduce(gaps**2, axis=(-2, -1)) / d
        return values, _angle_gradient(w, grad, half)

    return sic


#: Bytes of the clock-shift tables of one slice of a sic evaluation, 16 d^2
#: per row (a slice has at least one row); the slice's other temporaries
#: are a few times that.  Rows are evaluated alone, so the budget changes
#: only the time: one evaluation took 0.67, 2.7 and 6.3 ms at (d, R) =
#: (19, 50), (67, 10) and (101, 10), against 1.1, 4.5 and 9.3 ms at 512 KiB
#: (interleaved, best of 7, a 2-vCPU virtual machine, numpy 2.4.6).
_SIC_TABLE_BYTES = 1 << 16

#: Largest d whose search transforms are products with the d x d DFT matrix.
#: Whole minimize runs at d = 127-199 keep the dense product level or ahead
#: for sic and for single-restart searches, while numpy.fft wins xoverlap
#: and naive_x from 5 restarts on (CHANGES.md, "Timings moved out of the
#: README", has them), so no d below 199 favours numpy.fft for every
#: search; no benchmarked search runs above d = 19.
_DENSE_MAX_D = 199


def _transform_pair(d: int):
    """(fft, ifft): numpy.fft's unnormalized length-d DFT and its inverse,
    along the last axis of their argument.

    For d <= _DENSE_MAX_D both are products with the DFT matrix
    F_jk = omega^{-jk}, read from weyl._omega_phase (the exponent reduced
    exactly before it is scaled), and conj(F) / d.  F is symmetric, so x @ F
    transforms every row of x.  A batch of vectors, shape (R, d), goes
    through one vector-matrix product per row, since a matrix-matrix product
    may round a row differently from the product of that row alone; a batch
    of d x d tables, shape (R, d, d), through one matrix-matrix product per
    table, the same for each table whatever R is.  Above that d they are
    numpy.fft itself.
    """
    if d > _DENSE_MAX_D:
        return np.fft.fft, np.fft.ifft
    forward = np.conj(_omega_phase(d, np.outer(np.arange(d), np.arange(d))))
    inverse = np.conj(forward) / d

    def product(x, matrix):
        return x @ matrix if x.ndim > 2 else (x[..., None, :] @ matrix)[..., 0, :]

    return (lambda x: product(x, forward)), (lambda x: product(x, inverse))


def _lag_adjoint(fft, ifft, spectrum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """g_k = sum_m r_m w_{k-m} + sum_m conj(r_m) w_{k+m}, one convolution and
    one correlation: the conj(w_k) derivative of sum_m conj(r_m) c_m + c.c.
    with r held fixed, where c is the autocorrelation of w, spectrum is
    fft(w), and fft, ifft is the plan's transform pair."""
    rf = fft(r)
    return ifft((rf + np.conj(rf)) * spectrum)


def _naive_x_gaps(c: np.ndarray) -> np.ndarray:
    """|c_m|^2 - 1/(d+1) at every lag m of an autocorrelation c, lag 0 set
    to 0; at lag m = -j this is |<Psi|X^j|Psi>|^2 - 1/(d+1).  The lags run
    along the last axis of c."""
    gaps = np.abs(c) ** 2 - 1.0 / (c.shape[-1] + 1.0)
    gaps[..., 0] = 0.0
    return gaps


def _angle_gradient(w: np.ndarray, grad: np.ndarray, half: int) -> np.ndarray:
    """Chain a gradient grad_k = df/dconj(w_k) of a real f through
    w_j = |w_j| exp(i a_j) and w_{d-j} = -conj(w_j), j = 1..half, row by
    row."""
    rates = (np.conj(grad) * w).imag
    return 2.0 * (rates[:, -1:half:-1] - rates[:, 1 : half + 1])  # j = 1..half at d - j and j


def objective(config: SearchConfig, angles) -> float:
    """The configured objective at a set of free angles: the value that
    objective_and_gradient returns, from a fresh plan per call."""
    return objective_and_gradient(config, angles)[0]


#: Curvature pairs the minimizer keeps per restart (L-BFGS-B's default).
_MEMORY = 10
#: A restart stops by its own test (status 0) when a step lowers the
#: objective by at most _FTOL * max(|f_old|, |f_new|, 1), or when no gradient
#: component exceeds _GTOL in modulus.
_FTOL = 1e-20
_GTOL = 1e-14
#: The Armijo sufficient-decrease constant, and the trial points one line
#: search may evaluate before it fails.
_ARMIJO = 1e-4
_MAX_TRIALS = 20


def minimize(config: SearchConfig) -> tuple[SearchResult, list[SearchResult]]:
    """Run the multistart search; returns (best, all results).

    Each restart starts from angles drawn uniformly on [0, 2 pi) by a
    generator seeded with (seed, restart_index).  All restarts run together
    through one limited-memory BFGS (_lbfgs) fed with the plan's values and
    exact gradients, and each leaves the batch when it stops; a restart's
    result does not depend on how many others run.  Results are sorted by
    (objective_value, restart_index); non-convergent restarts are kept,
    flagged converged=False.
    """
    half = (config.dim.d - 1) // 2
    starts = np.array(
        [
            np.random.default_rng([config.seed, r]).uniform(0.0, 2.0 * np.pi, half)
            for r in range(config.restarts)
        ]
    )
    results = [
        SearchResult(
            angles=tuple(x.tolist()),
            objective_value=float(value),
            restart_index=int(r),
            iterations=int(iterations),
            converged=bool(value < config.convergence_threshold),
            evaluations=int(evaluations),
            status=int(status),
        )
        for r, x, value, iterations, evaluations, status in _lbfgs(
            _plan(config), starts, config.max_iterations
        )
    ]
    results.sort(key=lambda t: (t.objective_value, t.restart_index))
    return results[0], results


def _lbfgs(f, x: np.ndarray, max_iterations: int):
    """Limited-memory BFGS (Liu and Nocedal, Math. Programming 45, 1989) from
    every row of x at once, in lockstep.

    f maps an (R, n) array of points to their R values and (R, n) gradient,
    as new arrays that the loop keeps and may write to.  Every loop
    evaluates f once, at the trial points of all rows still running, and
    each row then accepts its trial point (the Armijo test), backtracks
    along its direction, or stops.  A row's arithmetic never mixes in
    another row, so its path is the same in any batch.

    The first trial step along a fresh direction is 1, or min(1, 1/|g|) for
    a row without curvature pairs; a backtrack takes the minimizer of the
    quadratic through f(0), f'(0) and f(t), kept within [t/10, t/2].  A pair
    with s.y <= 0 is not stored, and a direction that does not descend
    clears the row's pairs.  A line search fails after _MAX_TRIALS trial
    points, or as soon as its trial point rounds to the current point.  A
    row stops with status 0 by its own test (_FTOL, _GTOL, checked first),
    with status 1 after max_iterations accepted steps, and with status 2
    when a line search fails from no pairs; a failure with pairs stored
    clears them and retries along -g.

    Yields (row, point, value, iterations, evaluations, status) for each
    row as it stops.
    """
    count, n = x.shape
    rows = np.arange(count)
    x = x.copy()  # the loop writes to x
    fx, gx = f(x)
    pairs = _Pairs(count, n)
    iterations = np.zeros(count, dtype=np.int64)
    trials = np.zeros(count, dtype=np.int64)
    evaluations = 1  # every running row is evaluated once per loop
    stop = own_test = capped = np.maximum.reduce(np.abs(gx), axis=1) <= _GTOL
    fresh = ~stop  # rows that need a new direction
    p, slope, t = np.zeros((count, n)), np.zeros(count), np.zeros(count)  # set where fresh
    while True:
        if np.count_nonzero(stop):
            status = np.where(own_test, 0, np.where(capped, 1, 2))
            for i in stop.nonzero()[0]:
                yield rows[i], x[i], fx[i], iterations[i], evaluations, status[i]
            running = ~stop
            if not np.count_nonzero(running):
                return
            pairs.keep(running)
            rows, x, fx, gx, p, slope, t, fresh, iterations, trials = (
                a[running] for a in (rows, x, fx, gx, p, slope, t, fresh, iterations, trials)
            )

        if np.count_nonzero(fresh):
            direction = pairs.direction(gx)
            descent = _row_dot(gx, direction)
            ascent = fresh & ~(descent < 0.0)
            if np.count_nonzero(ascent):
                pairs.clear(ascent)
                direction[ascent] = -gx[ascent]
                descent = _row_dot(gx, direction)
            first = np.ones(len(gx))
            empty = pairs.count == 0
            if np.count_nonzero(empty):
                np.copyto(first, np.minimum(1.0, 1.0 / np.sqrt(_row_dot(gx, gx))), where=empty)
            np.copyto(p, direction, where=fresh[:, None])
            np.copyto(slope, descent, where=fresh)
            np.copyto(t, first, where=fresh)
        trials = np.where(fresh, 1, trials + 1)

        trial = x + t[:, None] * p
        ft, gt = f(trial)
        evaluations += 1
        accept = ft <= fx + _ARMIJO * t * slope
        s, y = trial - x, gt - gx
        sy = _row_dot(s, y)
        store = accept & (sy > 0.0)
        if np.count_nonzero(store):
            pairs.push(store, s, y, sy)
        flat = fx - ft <= _FTOL * np.maximum(np.maximum(np.abs(fx), np.abs(ft)), 1.0)
        own_test = accept & (flat | (np.maximum.reduce(np.abs(gt), axis=1) <= _GTOL))
        iterations += accept
        capped = accept & (iterations >= max_iterations)
        stop = own_test | capped
        fresh = accept ^ stop  # stop holds only where accept does
        failed = ~accept & ((trials >= _MAX_TRIALS) | np.logical_and.reduce(trial == x, axis=1))
        if np.count_nonzero(failed):
            retry = failed & (pairs.count > 0)
            pairs.clear(retry)
            stop |= failed & ~retry
            fresh |= retry
        back = (~(accept | failed)).nonzero()[0]
        if back.size:  # the quadratic's denominator is positive where Armijo fails
            tb, sb = t[back], slope[back]
            quadratic = -sb * tb * tb / (2.0 * ((ft - fx)[back] - sb * tb))
            t[back] = quadratic.clip(0.1 * tb, 0.5 * tb)
        np.copyto(x, trial, where=accept[:, None])
        np.copyto(fx, ft, where=accept)
        np.copyto(gx, gt, where=accept[:, None])


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b."""
    return np.add.reduce(a * b, axis=1)


class _Pairs:
    """The curvature pairs (s, y) of each row of a batch, at most _MEMORY of
    them, with what the compact form of the inverse Hessian needs (Byrd,
    Nocedal and Schnabel, Math. Programming 63, 1994, eq. 3.1), updated as
    each pair arrives so that no system is solved per step.

    A row's pairs sit oldest first in the last `count` of the _MEMORY slots;
    unused slots hold zero pairs, which drop out of every product.  stack
    is [S; Y] (the s of each slot, then the y), rinv the inverse of R, the
    upper triangle of S'Y with 1 on the diagonal of unused slots, and gamma
    = s.y / y.y of the newest pair (1 without pairs).  R stays upper
    triangular, so dropping the oldest pair keeps the trailing block of
    rinv, and adding a pair borders it.
    """

    def __init__(self, count: int, n: int):
        m = _MEMORY
        self.stack = np.zeros((count, 2 * m, n))
        self.rinv = np.broadcast_to(np.eye(m), (count, m, m)).copy()
        self.gamma = np.ones(count)
        self.count = np.zeros(count, dtype=np.int64)

    def keep(self, mask: np.ndarray) -> None:
        self.stack, self.rinv = self.stack[mask], self.rinv[mask]
        self.gamma, self.count = self.gamma[mask], self.count[mask]

    def clear(self, mask: np.ndarray) -> None:
        self.stack[mask] = 0.0
        self.rinv[mask] = np.eye(_MEMORY)
        self.gamma[mask] = 1.0
        self.count[mask] = 0

    def push(self, mask: np.ndarray, s: np.ndarray, y: np.ndarray, sy: np.ndarray) -> None:
        """Add the pair (s, y) to each row of mask, where s.y = sy > 0,
        dropping the row's oldest pair when all slots are in use.  The new
        state is computed for every row and kept where mask holds."""
        m = _MEMORY
        stack = np.concatenate(
            (self.stack[:, 1:m], s[:, None], self.stack[:, m + 1 :], y[:, None]), axis=1
        )
        border = stack[:, : m - 1] @ y[..., None]  # s_j . y for the pairs kept
        inv = 1.0 / np.where(mask, sy, 1.0)
        kept = self.rinv[:, 1:, 1:]
        rinv = np.zeros(self.rinv.shape)
        rinv[:, :-1, :-1] = kept
        np.multiply(kept @ border, -inv[:, None, None], out=rinv[:, :-1, -1:])
        rinv[:, -1, -1] = inv
        np.copyto(self.stack, stack, where=mask[:, None, None])
        np.copyto(self.rinv, rinv, where=mask[:, None, None])
        np.divide(sy, _row_dot(y, y), out=self.gamma, where=mask)
        self.count += mask
        np.minimum(self.count, m, out=self.count)

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g for each row: H g = gamma g + S'u - gamma Y'v with
        v = R^-1 S g and u = R^-T ((D + gamma Y Y') v - gamma Y g), where S
        and Y hold one pair per row and D is the diagonal of R; -g for a
        row without pairs."""
        m = _MEMORY
        gamma = self.gamma[:, None, None]
        s_mem, y_mem = self.stack[:, :m], self.stack[:, m:]
        products = self.stack @ g[..., None]  # [S g; Y g]
        v = self.rinv @ products[:, :m]
        y_v = y_mem.swapaxes(1, 2) @ v
        diag = 1.0 / self.rinv.diagonal(0, 1, 2)[..., None]
        u = self.rinv.swapaxes(1, 2) @ (diag * v + gamma * (y_mem @ y_v - products[:, m:]))
        return ((gamma * y_v - s_mem.swapaxes(1, 2) @ u)[..., 0]) - self.gamma[:, None] * g


def search_results_json(config: SearchConfig, results: list[SearchResult]) -> str:
    """Config echo plus the sorted result list, as JSON.  Each record is
    built from the dataclass fields directly; dataclasses.asdict would
    deep-copy every angle first."""
    echo = {"d": config.dim.d}
    echo.update((f.name, getattr(config, f.name)) for f in fields(config) if f.name != "dim")
    names = [f.name for f in fields(SearchResult)]
    records = [{name: getattr(r, name) for name in names} for r in results]
    return json.dumps({"config": echo, "results": records}, indent=2)
