"""SIC verification: displacement overlaps and quartic autocorrelation checks.

A unit vector is a SIC fiducial when every displacement overlap
<Psi|D_{j,k}|Psi> with (j,k) != (0,0) has squared modulus 1/(d+1).  The same
condition can be tested entirely through the components via the quartic
autocorrelation functional

    G(i,k) = sum_r psi*_{r+i} psi*_{r+k} psi_r psi_{r+i+k}
           = (1/d) sum_j omega^{kj} |<Psi|X^i Z^j|Psi>|^2,

whose SIC target is (delta_{i,0} + delta_{k,0}) / (d+1).
"""

from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass

import numpy as np

from .ansatz import _unit_components
from .weyl import CVec, Dim, autocorrelation, clock_shift_rows, overlap_rows

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
    "check_tolerance",
]

# Rows per kernel call in _scan, so that its memory stays O(_BLOCK_ROWS * d)
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


def _scan(unit: np.ndarray) -> tuple[float, tuple[int, int], float]:
    """Reduce the overlap and G tables block by block: the largest
    | |<Psi|D_{j,k}|Psi>|^2 - 1/(d+1) | over (j,k) != (0,0), its first (j,k)
    in row-major order, and the largest |G(i,k) - target|."""
    d = unit.shape[0]
    maxima, pairs, gik = [], [], []
    for start in range(0, d, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, d))
        moduli_sq = np.abs(clock_shift_rows(unit, rows)) ** 2
        dev = np.abs(moduli_sq - 1.0 / (d + 1.0))
        if start == 0:
            dev[0, 0] = 0.0
        flat = int(np.argmax(dev))
        maxima.append(dev.flat[flat])
        pairs.append((start + flat // d, flat % d))
        # G rows from the same moduli, as gik_table computes them
        gik.append(np.abs(_gik_gaps(rows, np.fft.ifft(moduli_sq))).max())
    worst = int(np.argmax(maxima))
    return float(maxima[worst]), pairs[worst], float(np.max(gik))


def gik_residual(psi: CVec) -> float:
    """max over all (i,k) of |G(i,k) - (delta_{i,0}+delta_{k,0})/(d+1)|.

    The input is normalized internally.  All d^2 pairs are evaluated, block
    by block, even though the target has symmetry.
    """
    unit, _ = _unit_components(psi)
    return _scan(unit)[2]


def gik_table(psi: CVec) -> np.ndarray:
    """The full d x d table of G(i,k) values for the normalized vector.

    Row i is (1/d) sum_j omega^{kj} |<Psi|X^i Z^j|Psi>|^2, the inverse FFT
    of squared clock-shift moduli.  The package computes G(i,k) only here and
    in _scan.
    """
    unit, _ = _unit_components(psi)
    table = np.fft.ifft(np.abs(clock_shift_rows(unit, np.arange(unit.shape[0]))) ** 2)
    table.setflags(write=False)
    return table


def naive_x_residual(psi: CVec) -> float:
    """max over j = 1..d-1 of | |<Psi|X^j|Psi>|^2 - 1/(d+1) |.

    This checks only the moduli of the bare shift overlaps, a strictly weaker
    condition than the X-overlap equation.
    """
    unit, _ = _unit_components(psi)
    return float(np.max(np.abs(_naive_x_gaps(autocorrelation(unit)))))


def _naive_x_gaps(c: np.ndarray) -> np.ndarray:
    """|c_m|^2 - 1/(d+1) at every lag m of an autocorrelation c, lag 0 set
    to 0; at lag m = -j this is |<Psi|X^j|Psi>|^2 - 1/(d+1).  The lags run
    along the last axis of c."""
    gaps = np.abs(c) ** 2 - 1.0 / (c.shape[-1] + 1.0)
    gaps[..., 0] = 0.0
    return gaps


@dataclass(frozen=True)
class SicReport:
    """Verdict and residuals of a SIC check.

    The verdict applies to the internally normalized vector; input_norm
    records the norm found before normalization (1.0 for unit input).
    """

    max_modulus_deviation: float
    worst_pair: tuple[int, int]
    gik_max_deviation: float
    is_sic: bool
    tolerance_used: float
    input_norm: float


def is_sic(psi: CVec, tol: float | None = None) -> SicReport:
    """Decide the SIC property from the overlap moduli.

    tol defaults to 1e-9 * d and must lie in (0, inf).  The decision uses the
    squared-modulus deviations only; the quartic residual is reported
    alongside.  Both are reduced block by block, so memory stays O(d).
    """
    tol = check_tolerance(1e-9 * psi.dim.d if tol is None else tol)
    unit, nrm = _unit_components(psi)
    worst, pair, gik = _scan(unit)
    return SicReport(
        max_modulus_deviation=worst,
        worst_pair=pair,
        gik_max_deviation=gik,
        is_sic=bool(worst <= tol),
        tolerance_used=tol,
        input_norm=nrm,
    )


def check_tolerance(tol: float, name: str = "tolerance") -> float:
    """tol as a float in (0, inf); a ValueError naming it for anything else,
    a bool, NaN, None, text and a complex value included."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and 0.0 < tol < np.inf):  # false for NaN too
        raise ValueError(f"{name} must be positive and finite, got {tol}")
    return float(tol)


def _complex_cell(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def _table_csv(entries: np.ndarray, corner: str, moduli_only: bool) -> str:
    """CSV rendering of a square table: header row of column indices, then
    one row per row index with cells "re,im" (or moduli)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([corner] + [str(k) for k in range(entries.shape[1])])
    for row, values in enumerate(entries):
        if moduli_only:
            cells = [f"{abs(z):.17g}" for z in values]
        else:
            cells = [_complex_cell(z) for z in values]
        writer.writerow([str(row)] + cells)
    return buf.getvalue()


def overlap_table_csv(table: OverlapTable, moduli_only: bool = False) -> str:
    """CSV rendering: row index j, column index k, cells "re,im" (or moduli)."""
    return _table_csv(table.entries, "j\\k", moduli_only)


def gik_table_csv(psi: CVec, moduli_only: bool = False) -> str:
    """CSV rendering of the G(i,k) table: row index i, column index k."""
    return _table_csv(gik_table(psi), "i\\k", moduli_only)
