"""SIC verification: displacement overlaps and quartic autocorrelation checks.

A unit vector is a SIC fiducial when every displacement overlap
<Psi|D_{j,k}|Psi> with (j,k) != (0,0) has squared modulus 1/(d+1).  The same
condition can be tested entirely through the components via the quartic
autocorrelation functional

    G(i,k) = sum_r psi*_{r+i} psi*_{r+k} psi_r psi_{r+i+k}
           = (1/d) sum_j omega^{kj} |<Psi|X^i Z^j|Psi>|^2,

whose SIC target is (delta_{i,0} + delta_{k,0}) / (d+1).  canonical_match
decides whether two vectors agree up to a clock shift and a global phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import _unit_components, as_normalized, z_shift
from .weyl import CVec, Dim, _check_bool, check_tolerance, clock_shift_rows, overlap_rows

__all__ = [
    "OverlapTable",
    "SicReport",
    "overlap_table",
    "gik_residual",
    "gik_table",
    "is_sic",
    "naive_x_residual",
    "overlap_table_csv",
    "gik_table_csv",
    "canonical_match",
]

# Rows per kernel call in is_sic, so that its memory stays O(_BLOCK_ROWS * d)
# however large d is.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class OverlapTable:
    """All d^2 overlaps <Psi|D_{j,k}|Psi>; entry (0,0) is the squared norm."""

    dim: Dim
    entries: np.ndarray


def overlap_table(psi: CVec) -> OverlapTable:
    """Compute every displacement overlap of a vector.

    Non-normalized input (any form tag) is normalized internally, so entry
    (0,0) is always 1 up to rounding.
    """
    unit, _ = _unit_components(psi)
    entries = overlap_rows(unit, np.arange(psi.dim.d))
    entries.setflags(write=False)
    return OverlapTable(psi.dim, entries)


def _gik_gaps(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """G(i,k) - (delta_{i,0}+delta_{k,0})/(d+1) for the rows i of g."""
    target = np.zeros(g.shape)
    target[:, 0] = 1.0
    target[rows == 0] += 1.0
    return g - target / (g.shape[1] + 1.0)


def gik_residual(psi: CVec) -> float:
    """max over all (i,k) of |G(i,k) - (delta_{i,0}+delta_{k,0})/(d+1)|.

    The input is normalized internally.  This reads is_sic's report, so it
    costs one scan of rows 0..floor(d/2) (see is_sic).
    """
    return is_sic(psi).gik_max_deviation


def gik_table(psi: CVec) -> np.ndarray:
    """The full d x d table of G(i,k) values for the normalized vector.

    Row i is (1/d) sum_j omega^{kj} |<Psi|X^i Z^j|Psi>|^2, the inverse FFT
    of squared clock-shift moduli.  The package computes G(i,k) only here and
    in is_sic.
    """
    unit, _ = _unit_components(psi)
    table = np.fft.ifft(np.abs(clock_shift_rows(unit, np.arange(unit.shape[0]))) ** 2)
    table.setflags(write=False)
    return table


def naive_x_residual(psi: CVec) -> float:
    """max over j = 1..d-1 of | |<Psi|X^j|Psi>|^2 - 1/(d+1) |.

    This checks only the moduli of the bare shift overlaps, a strictly weaker
    condition than the X-overlap equation, and the k = 0 column of the SIC
    conditions.  It reads is_sic's report, so it costs a scan, as
    gik_residual does.
    """
    return is_sic(psi).naive_x_deviation


@dataclass(frozen=True)
class SicReport:
    """Verdict and residuals of a SIC check.

    The verdict applies to the internally normalized vector; input_norm
    records the norm found before normalization (1.0 for unit input).
    naive_x_deviation, max over j != 0 of | |<Psi|X^j|Psi>|^2 - 1/(d+1) |, is
    column k = 0 of max_modulus_deviation's deviations, so it never exceeds
    that maximum and equals it whenever worst_pair[1] == 0.
    """

    max_modulus_deviation: float
    worst_pair: tuple[int, int]
    gik_max_deviation: float
    naive_x_deviation: float
    is_sic: bool
    tolerance_used: float
    input_norm: float


def is_sic(psi: CVec, tol: float | None = None) -> SicReport:
    """Decide the SIC property from the overlap moduli.

    tol defaults to 1e-9 * d and must lie in (0, inf).  The decision uses the
    squared-modulus deviations only; the quartic and naive-X residuals are
    reported alongside.  All three are reduced block by block over the rows
    0..floor(d/2), so memory stays O(d); worst_pair is a pair attaining the
    maximum, the first in row-major order among those rows.

    Those rows decide every maximum.  D_{-j,-k} is D_{j,k}^dagger, so row -j
    of the moduli is row j with its columns reversed (in column 0,
    |c_{-j}| = |c_j|), and G row -i, the inverse transform of that reversed
    row, is the conjugate of G row i against the same real target.  For
    even d, row d/2 is its own mirror and is scanned.
    """
    tol = check_tolerance(1e-9 * psi.dim.d if tol is None else tol)
    unit, nrm = _unit_components(psi)
    d = unit.shape[0]
    n_rows = d // 2 + 1
    maxima, pairs, naive, gik = [], [], [], []
    for start in range(0, n_rows, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, n_rows))
        moduli_sq = np.abs(clock_shift_rows(unit, rows)) ** 2
        dev = np.abs(moduli_sq - 1.0 / (d + 1.0))
        if start == 0:
            dev[0, 0] = 0.0
        flat = int(np.argmax(dev))
        maxima.append(dev.flat[flat])
        pairs.append((start + flat // d, flat % d))
        naive.append(dev[:, 0].max())
        # G rows from the same moduli, as gik_table computes them
        gik.append(np.abs(_gik_gaps(rows, np.fft.ifft(moduli_sq))).max())
    worst = int(np.argmax(maxima))
    return SicReport(
        max_modulus_deviation=float(maxima[worst]),
        worst_pair=pairs[worst],
        gik_max_deviation=float(np.max(gik)),
        naive_x_deviation=float(np.max(naive)),
        is_sic=bool(maxima[worst] <= tol),
        tolerance_used=tol,
        input_norm=nrm,
    )


def canonical_match(a: CVec, b: CVec, tol: float = 1e-8) -> bool:
    """True when some clock shift Z^k a lies within tol of b, up to the
    global phase that brings them nearest; the rule is symmetric in a and b.

    Both are normalized first.  For unit vectors that nearest distance is
    sqrt(2 - 2 |<b|Z^k|a>|), and one inverse transform of conj(b) a gives
    <b|Z^k|a> for every k, so only the shifts whose overlap can reach
    1 - tol^2 / 2 are checked directly: Z^k a against b turned by the phase
    of <b|Z^k a>, by the Euclidean norm of the difference, which does not
    cancel even at tol = 1e-10.  tol must satisfy 0 < tol < inf, or a
    ValueError is raised.
    """
    tol = check_tolerance(tol)
    if a.dim.d != b.dim.d:
        raise ValueError(f"dimension mismatch: {a.dim.d} vs {b.dim.d}")
    ua = as_normalized(a)
    ub = as_normalized(b).components
    d = a.dim.d
    overlaps = np.abs(d * np.fft.ifft(np.conj(ub) * ua.components))  # |<b|Z^k|a>| at k
    # each overlap sums d products whose moduli total at most 1 (Cauchy-
    # Schwarz), so the transform rounds it by less than d * eps; the slack
    # keeps every shift within tol a candidate
    slack = 4.0 * d * np.finfo(float).eps
    for k in np.flatnonzero(overlaps >= 1.0 - 0.5 * tol * tol - slack).tolist():
        za = z_shift(ua, k).components
        overlap = np.vdot(ub, za)
        phase = overlap / abs(overlap) if overlap else 1.0  # every phase is nearest at 0
        if np.linalg.norm(za - phase * ub) < tol:
            return True
    return False


def _table_csv(entries: np.ndarray, corner: str, moduli_only: bool) -> str:
    """CSV rendering of a square table: header row of column indices, then
    one row per row index with cells "re,im" (or moduli).  Each row is one
    `%` over its floats, quoted as csv.writer quotes them; a modulus is
    Python's abs of its numpy entry, which np.abs over the row can miss in
    the last bit."""
    moduli_only = _check_bool(moduli_only, "moduli_only")
    n = entries.shape[1]
    row_text = ",".join(["%d"] + ["%.17g" if moduli_only else '"%.17g,%.17g"'] * n) + "\n"
    lines = [",".join([corner, *map(str, range(n))]) + "\n"]
    for row, values in enumerate(np.ascontiguousarray(entries, dtype=np.complex128)):
        cells = map(abs, values) if moduli_only else values.view(np.float64).tolist()
        lines.append(row_text % (row, *cells))
    return "".join(lines)


def overlap_table_csv(table: OverlapTable, moduli_only: bool = False) -> str:
    """CSV rendering: row index j, column index k, cells "re,im" (or moduli)."""
    return _table_csv(table.entries, "j\\k", moduli_only)


def gik_table_csv(psi: CVec, moduli_only: bool = False) -> str:
    """CSV rendering of the G(i,k) table: row index i, column index k."""
    return _table_csv(gik_table(psi), "i\\k", moduli_only)
