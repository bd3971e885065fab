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
from .ansatz import AnsatzVector, _branch, build_ansatz, to_normalized, x_overlap_residual
from .weyl import Dim, _as_dim, _x_lags, autocorrelation, is_prime, make_dimension

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
    "legendre_sweep",
]


def legendre_symbol(n: int, p: int) -> int:
    """Legendre symbol (n|p) by Euler's criterion with fast modular power."""
    p = int(p)
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    n = int(n) % p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def primes_3mod4(limit: int) -> list[int]:
    """All primes p <= limit with p = 3 mod 4, ascending."""
    return [p for p in range(3, limit + 1, 4) if is_prime(p)]


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
    a = int(a)
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
    if beta_sign not in (+1, -1):
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
    d = dim.d
    half = (d - 1) // 2
    signs = _residue_signs(d)
    phases = np.where(signs[1 : half + 1] > 0, x1, -1.0 / x1)
    av = build_ansatz(dim, np.angle(phases))
    return LegendreVector(dim=dim, x1=x1, beta_sign=beta_sign, ansatz=av)


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
    lemma1_closed_form|, the direct side of both branches read from one
    autocorrelation of their stacked v-forms and the closed form evaluated
    once per branch and residue class."""
    dim = _require_3mod4_prime(dim)
    p = dim.d
    residue = _residue_signs(p)[1:] > 0
    plus, minus = build_legendre_vector(dim, +1), build_legendre_vector(dim, -1)
    # both v-forms, unchecked (this runs per prime); the branches share sqrt(x0)
    phases = np.stack([plus.ansatz.phases, minus.ansatz.phases])
    v = np.insert(phases, 0, plus.ansatz.sqrt_x0, axis=1)

    def closed(vec):
        on_residues = lemma1_closed_form(dim, vec.x1, True)
        return np.where(residue, on_residues, lemma1_closed_form(dim, vec.x1, False))

    direct = autocorrelation(v)[:, _x_lags(p)]
    return float(np.max(np.abs(direct - [closed(plus), closed(minus)])))


def perron_table(dim: Dim | int) -> np.ndarray:
    """perron_counts for every shift a = 1..p-1 as one (p-1) x 6 integer
    array, row a-1 for shift a, its columns the PerronCounts fields in order.

    reste_from_reste, #{x in Rest : x + a in Rest}, is the lag-a circular
    autocorrelation of the Rest indicator, read for all a in O(p) memory and
    rounded (the counts are integers; the error was 5.8e-10 at p = 10^6 + 3);
    lag 0 counts the Reste.  A shift permutes Z_p, so the Nichtreste counts
    are the class sizes minus the Reste counts."""
    dim = _require_3mod4_prime(dim)
    p = dim.d
    counts = np.rint(autocorrelation(_residue_signs(p) >= 0).real).astype(np.int64)
    n_rest, rr = counts[0], counts[1:]
    return np.column_stack(
        [np.full(p - 1, p), np.arange(1, p), rr, n_rest - rr, n_rest - rr, p - 2 * n_rest + rr]
    )


def legendre_sweep(pmax: int, check: Callable[[Dim], object]) -> list[tuple[int, object]]:
    """(p, check(p)) for every prime p <= pmax with p = 3 mod 4, ascending;
    check is a per-prime function such as lemma1_deviation or perron_table.
    Requires pmax >= 3, so that the sweep is not empty."""
    if pmax < 3:
        raise ValueError(f"sweep needs pmax >= 3 to reach a prime p = 3 mod 4, got pmax={pmax}")
    return [(p, check(make_dimension(p))) for p in primes_3mod4(pmax)]
