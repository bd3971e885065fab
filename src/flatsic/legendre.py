"""Legendre vectors: two-phase ansatz vectors patterned by quadratic residues.

For a prime d = p congruent to 3 mod 4 a Legendre vector is the ansatz vector
whose phase is x1 at every quadratic-residue index and -1/x1 elsewhere; the
pattern is consistent with v_{d-j} = -conj(v_j) because -1 is a non-residue.
The closed-form phase that solves the X-overlap equation is

    x1 = (beta - 1) / sqrt(x0),                       d = 3 mod 8,
    x1 = (beta - x0) / (sqrt(d+1) sqrt(x0)),          d = 7 mod 8,

where beta is a square root of -(sqrt(d+1)+1), respectively of
-(d-3)(sqrt(d+1)+1); both branches of beta give solutions.  Since beta and
sqrt(x0) are imaginary and |x1| = 1, the beta = -1 vector is -conj of the
beta = +1 vector.

Perron's counting theorems drive the closed-form autocorrelation: with
"Reste" meaning quadratic residues together with 0, shifting the Reste by
any coprime a yields (p+1)/4 Reste and (p+1)/4 Nichtreste, and shifting the
Nichtreste yields (p+1)/4 Reste and (p-3)/4 Nichtreste.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import verify
from .ansatz import (
    AnsatzVector,
    _branch,
    _vform_array,
    build_ansatz,
    to_normalized,
    x_overlap_residual,
)
from .weyl import (
    Dim,
    _as_dim,
    _check_integer,
    _linear_autocorrelation,
    _x_lags,
    autocorrelation,
    is_prime,
    make_dimension,
)

__all__ = [
    "PerronCounts",
    "LegendreVector",
    "BranchReport",
    "LegendreClassification",
    "legendre_symbol",
    "perron_counts",
    "legendre_x1",
    "build_legendre_vector",
    "lemma1_closed_form",
    "classify_legendre",
    "primes_3mod4",
    "lemma1_deviation",
    "perron_table",
    "perron_sweep",
    "legendre_sweep",
]


def legendre_symbol(n: int, p: int) -> int:
    """Legendre symbol (n|p) by Euler's criterion with fast modular power."""
    p = _check_integer(p, "p")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    n = _check_integer(n, "n") % p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def primes_3mod4(limit: int) -> list[int]:
    """All primes p <= limit with p = 3 mod 4, ascending."""
    return [p for p in range(3, _check_integer(limit, "limit") + 1, 4) if is_prime(p)]


def _require_3mod4_prime(dim: Dim | int) -> Dim:
    dim = _as_dim(dim)
    if not dim.is_prime or dim.mod4 != 3:
        raise ValueError(
            f"Legendre construction requires a prime d = 3 mod 4, got d={dim.d}"
        )
    return dim


@functools.lru_cache(maxsize=128)
def _residue_signs(d: int) -> np.ndarray:
    """Lookup table of Legendre symbols: signs[j] in {-1, 0, +1}."""
    signs = np.full(d, -1, dtype=np.int8)
    signs[0] = 0
    signs[(np.arange(1, d, dtype=np.int64) ** 2) % d] = 1
    signs.setflags(write=False)
    return signs


@dataclass(frozen=True)
class PerronCounts:
    """Residue-class counts of a shifted residue class mod p.

    "Rest" follows Perron's convention: a quadratic residue or 0.  The four
    counts classify r_i + a over the Reste r_i and n_i + a over the
    Nichtreste n_i.
    """

    p: int
    a: int
    reste_from_reste: int
    nichtreste_from_reste: int
    reste_from_nichtreste: int
    nichtreste_from_nichtreste: int


def perron_counts(p: Dim | int, a: int) -> PerronCounts:
    """perron_table's row for the shift a (reduced mod p) as a PerronCounts
    record."""
    dim = _require_3mod4_prime(p)
    p = dim.d
    a = _check_integer(a, "a")
    if math.gcd(a, p) != 1:
        raise ValueError(f"shift must be coprime to p, got a={a}, p={p}")
    return PerronCounts(*perron_table(dim)[a % p - 1].tolist())


def legendre_x1(dim: Dim | int, beta_sign: int = +1) -> complex:
    """Closed-form unit phase solving the X-overlap equation for the
    Legendre pattern.

    beta_sign selects the branch of the inner square root; the radicand is a
    negative real in both the 3 mod 8 and 7 mod 8 cases, so beta is purely
    imaginary, beta = +- i sqrt(|radicand|).
    """
    dim = _require_3mod4_prime(dim)
    if _check_integer(beta_sign, "beta_sign") not in (+1, -1):
        raise ValueError(f"beta_sign must be +1 or -1, got {beta_sign}")
    d = dim.d
    s = math.sqrt(d + 1.0)
    x0, sx0 = _branch(d, ghost=False)
    if dim.mod8 == 3:
        beta = beta_sign * 1j * math.sqrt(s + 1.0)
        return complex((beta - 1.0) / sx0)
    beta = beta_sign * 1j * math.sqrt((d - 3.0) * (s + 1.0))
    return complex((beta - x0) / (s * sx0))


@dataclass(frozen=True)
class LegendreVector:
    """A Legendre vector: the phase x1, its branch, and the ansatz data."""

    dim: Dim
    x1: complex
    beta_sign: int
    ansatz: AnsatzVector


def build_legendre_vector(dim: Dim | int, beta_sign: int = +1) -> LegendreVector:
    """Construct the Legendre vector with phases x1 / -1/x1 by residue class."""
    dim = _require_3mod4_prime(dim)
    x1 = legendre_x1(dim, beta_sign)
    av = build_ansatz(dim, _pattern_angles(dim, [x1])[0])
    return LegendreVector(dim=dim, x1=x1, beta_sign=int(beta_sign), ansatz=av)


def _pattern_angles(dim: Dim, x1s) -> np.ndarray:
    """The free angles of the Legendre vectors with phases x1s, one row per
    phase, shape (len(x1s), (d-1)/2): angle j-1 is that of x1 at a quadratic
    residue j and of -1/x1 elsewhere.  The only place the residue pattern
    is laid over the angles.  -1/x1 is taken by Python's complex division:
    numpy's differs from it in the last bit for some x1."""
    half = (dim.d - 1) // 2
    residue = _residue_signs(dim.d)[1 : half + 1] > 0
    return np.angle(np.where(residue, [[x1] for x1 in x1s], [[-1.0 / x1] for x1 in x1s]))


def lemma1_closed_form(dim: Dim | int, x1: complex, j_is_residue: bool) -> complex:
    """Closed-form autocorrelation <v|X^{-2j}|v> of a Legendre vector.

    One expression in a unit phase z,

        (d-3)/2 - (d-3)/(4 z^2) - (d+1)/4 z^2 + 2 sqrt(x0)/z,

    taken at z = x1 for a residue j when d = 3 mod 8 and at z = -1/x1 for a
    non-residue; d = 7 mod 8 exchanges the two classes.
    """
    dim = _require_3mod4_prime(dim)
    d = dim.d
    z = complex(x1) if j_is_residue == (dim.mod8 == 3) else -1.0 / complex(x1)
    _, sx0 = _branch(d, ghost=False)
    return complex(
        (d - 3) / 2.0
        - (d - 3) / 4.0 / z**2
        - (d + 1) / 4.0 * z**2
        + 2.0 * sx0 / z
    )


@dataclass(frozen=True)
class BranchReport:
    """One beta branch of the Legendre vector: its X-overlap residual and
    verify.is_sic's report on it."""

    beta_sign: int
    x_overlap_residual: float
    sic: verify.SicReport


@dataclass(frozen=True)
class LegendreClassification:
    """X-overlap and SIC verdicts for both branches at one dimension."""

    dim: Dim
    branches: tuple[BranchReport, BranchReport]


def classify_legendre(dim: Dim | int, tol: float | None = None) -> LegendreClassification:
    """X-overlap residuals and verify.is_sic reports of both Legendre
    branches; tol is passed to is_sic."""
    dim = _require_3mod4_prime(dim)
    reports = []
    for sign in (+1, -1):
        psi = to_normalized(build_legendre_vector(dim, sign).ansatz)
        reports.append(BranchReport(sign, x_overlap_residual(psi), verify.is_sic(psi, tol)))
    return LegendreClassification(dim=dim, branches=tuple(reports))


def lemma1_deviation(dim: Dim | int) -> float:
    """max over both beta branches and j = 1..p-1 of |<v|X^{-2j}|v> minus
    lemma1_closed_form|.  Both branches' v-forms come from one _vform_array
    build of their two angle rows, the direct side of both from one
    autocorrelation of that (2, p) array, and the closed form is evaluated
    once per branch and residue class."""
    dim = _require_3mod4_prime(dim)
    p = dim.d
    residue = _residue_signs(p)[1:] > 0
    plus, minus = legendre_x1(dim, +1), legendre_x1(dim, -1)
    _, v = _vform_array(p, _pattern_angles(dim, (plus, minus)), _branch(p, ghost=False)[1])

    def closed(x1):
        on_residues = lemma1_closed_form(dim, x1, True)
        return np.where(residue, on_residues, lemma1_closed_form(dim, x1, False))

    direct = autocorrelation(v)[:, _x_lags(p)]
    return float(np.max(np.abs(direct - [closed(plus), closed(minus)])))


def perron_table(dim: Dim | int) -> np.ndarray:
    """perron_counts for every shift a = 1..p-1 as one (p-1) x 6 integer
    array, row a-1 for shift a, its columns the PerronCounts fields in order.

    reste_from_reste, #{x in Rest : x + a in Rest}, is the lag-a circular
    autocorrelation of the Rest indicator; _perron_rows reads it for every a
    from one rfft/irfft pair and rounds it to the integer it is."""
    return _perron_rows([_require_3mod4_prime(dim).d])


#: Bytes of the spectra of one transform block of _perron_rows, 16 (n/2 + 1)
#: per prime of transform length n; a block has at least one prime, so the
#: memory of a sweep is O(sum of p).  The sweep to p = 500 took 0.8 ms at
#: every budget from 64 KiB to 1 MiB and 1.1 ms at 32 KiB (best of 5 x 100,
#: one thread, a 2-vCPU virtual machine, numpy 2.4.6).
_PERRON_BLOCK_BYTES = 1 << 17


def _perron_rows(primes) -> np.ndarray:
    """perron_table of each prime p = 3 mod 4 in primes (not checked),
    stacked in their order: shape (sum(p - 1), 6).

    The primes are grouped by the power of two n above 2p - 1, and each group
    is cut into blocks whose spectra take at most _PERRON_BLOCK_BYTES.  A
    block's Rest indicators, zero-padded to its largest prime, go through
    one rfft/irfft pair (weyl._linear_autocorrelation), and the lag-a
    circular count of a prime p is lin[a] + lin[n - (p - a)], rounded: the
    counts are integers, and max |c - rint(c)| was 1.7e-10 at p = 10^6 + 3.
    A prime has (p + 1)/2 Reste, and a shift permutes Z_p, so the
    Nichtreste counts are the class sizes minus the Reste counts.  Each
    block writes its rows of the output in place."""
    primes = np.asarray(primes, dtype=np.int64)
    sizes = primes - 1
    out = np.empty((int(sizes.sum()), 6), dtype=np.int64)
    lengths = [1 << (2 * int(p) - 1).bit_length() for p in primes]
    start = row = 0
    while start < len(primes):
        n = lengths[start]
        stop = start + 1
        per_block = max(1, _PERRON_BLOCK_BYTES // (16 * (n // 2 + 1)))
        while stop < len(primes) and stop - start < per_block and lengths[stop] == n:
            stop += 1
        block, m = primes[start:stop], sizes[start:stop]
        # Rest: 0 and the squares j^2, j <= (p - 1)/2, each row zero past its p
        j = np.arange((int(block.max()) + 1) // 2)
        rest = np.zeros((len(block), int(block.max())), dtype=bool)
        rest[np.arange(len(block))[:, None], j * j % block[:, None]] = True
        lin = _linear_autocorrelation(rest).ravel()
        rows = out[row : row + int(m.sum())]
        rows[:, 0] = np.repeat(block, m)
        rows[:, 1] = np.arange(1, len(rows) + 1) - np.repeat(np.cumsum(m) - m, m)
        at = np.repeat(np.arange(len(block)) * n, m) + rows[:, 1]  # lag a of its prime's row
        rows[:, 2] = np.rint(lin[at] + lin[at + n - rows[:, 0]])
        rows[:, 3] = (rows[:, 0] + 1) // 2 - rows[:, 2]
        rows[:, 4] = rows[:, 3]
        rows[:, 5] = rows[:, 2] - 1  # p - 2 (p + 1)/2 + rr
        start, row = stop, row + len(rows)
    return out


def perron_sweep(pmax: int) -> np.ndarray:
    """perron_table of every prime p <= pmax with p = 3 mod 4, stacked in
    ascending p: shape (sum(p - 1), 6), the primes in column 0.  Requires
    pmax >= 3, as legendre_sweep does."""
    return _perron_rows(_sweep_primes(pmax))


def _sweep_primes(pmax: int) -> list[int]:
    """primes_3mod4(pmax), requiring pmax >= 3 so that it is not empty."""
    pmax = _check_integer(pmax, "pmax")
    if pmax < 3:
        raise ValueError(f"sweep needs pmax >= 3 to reach a prime p = 3 mod 4, got pmax={pmax}")
    return primes_3mod4(pmax)


def legendre_sweep(pmax: int, check: Callable[[Dim], object]) -> list[tuple[int, object]]:
    """(p, check(p)) for every prime p <= pmax with p = 3 mod 4, ascending;
    check is a per-prime function such as lemma1_deviation (perron_sweep
    stacks the Perron tables of a sweep in one array).
    Requires pmax >= 3, so that the sweep is not empty."""
    return [(p, check(make_dimension(p))) for p in _sweep_primes(pmax)]
