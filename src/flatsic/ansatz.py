"""Almost-flat ansatz vectors and their overlap residuals.

An ansatz vector in odd dimension d has v-form (sqrt(x0), v_1, ..., v_{d-1})
with x0 = -2 - sqrt(d+1), unit phases v_j constrained by v_{d-j} = -conj(v_j),
and normalization N^2 = 1/(d-1-x0).  The free parameters are the (d-1)/2
angles of v_1..v_{(d-1)/2}.  sqrt(x0) is taken purely imaginary with positive
imaginary part; the opposite phase convention flips the sign of the X-overlap
right-hand side and is not separately represented.

The ghost flag selects x0 = -2 + sqrt(d+1) instead.  Ghost vectors are
constructible, but the X-overlap and SIC claims in this package apply only to
the default branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .weyl import (
    CVec,
    Dim,
    _carray,
    _odd_dim,
    _omega_phase,
    _x_lags,
    autocorrelation,
    clock_shift_rows,
    overlap_rows,
)

__all__ = [
    "AnsatzVector",
    "DegenerateComponentError",
    "IdentityReport",
    "build_ansatz",
    "to_normalized",
    "to_rescaled",
    "to_vform",
    "as_normalized",
    "z_shift",
    "z_overlap_residual",
    "x_overlap_residual",
    "x_overlap_deviations",
    "displacement_row_identity",
]


class DegenerateComponentError(ValueError):
    """A vanishing component makes the X-overlap right-hand side undefined."""


@dataclass(frozen=True)
class AnsatzVector:
    """Phase data of an almost-flat candidate vector.

    phases holds v_1..v_{d-1} (index j-1 for v_j); angles holds the free
    angles that generated the first half, kept verbatim, so that
    build_ansatz(d, av.angles, av.ghost) rebuilds the vector exactly.
    """

    dim: Dim
    x0: float
    angles: np.ndarray
    phases: np.ndarray
    sqrt_x0: complex
    ghost: bool = False

    @property
    def d(self) -> int:
        return self.dim.d


def build_ansatz(dim: Dim | int, angles, ghost: bool = False) -> AnsatzVector:
    """Build an ansatz vector from its (d-1)/2 free angles (radians).

    Raises for even d, for a wrong angle count and for a non-finite angle.
    ghost=True selects the x0 = -2 + sqrt(d+1) branch.
    """
    dim = _odd_dim(dim)
    d = dim.d
    x0, sqrt_x0 = _branch(d, ghost)
    ang, w = _vform_array(d, _one_row(angles), sqrt_x0)
    ang = ang[0].copy()
    ang.setflags(write=False)
    v = w[0, 1:]
    v.setflags(write=False)
    return AnsatzVector(dim=dim, x0=x0, angles=ang, phases=v, sqrt_x0=sqrt_x0, ghost=ghost)


def _branch(d: int, ghost: bool) -> tuple[float, complex]:
    """x0 of the chosen branch and its square root sqrt(x0)."""
    s = math.sqrt(d + 1.0)
    x0 = -2.0 + s if ghost else -2.0 - s
    return x0, complex(cmath.sqrt(complex(x0)))


def _one_row(angles) -> np.ndarray:
    """One vector of free angles as a batch of one row for _vform_array; a
    scalar is a single angle."""
    return np.atleast_1d(np.asarray(angles, dtype=float))[None]


def _vform_array(d: int, angles, sqrt_x0: complex) -> tuple[np.ndarray, np.ndarray]:
    """The checked free angles and the v-form arrays (sqrt_x0, v_1, ..., v_{d-1})
    they generate, for odd d >= 3: angles holds one vector of (d-1)/2 angles
    per row, shape (R, (d-1)/2), and row r of the v-form array, shape (R, d),
    is built from row r alone.

    The only place the v-form is built from angles, and the only place
    angles are checked: raises for a wrong angle count and then for a
    non-finite angle, naming its index within its row.  The returned angle
    array may share memory with the input.
    """
    half = (d - 1) // 2
    ang = np.asarray(angles, dtype=float)
    if ang.ndim != 2 or ang.shape[1] != half:
        raise ValueError(f"expected {half} angles for d={d}, got {ang[0].size}")
    finite = np.isfinite(ang)
    if not finite.all():
        r, i = np.argwhere(~finite)[0]
        raise ValueError(f"angles must be finite, got {ang[r, i]} at index {i}")
    w = np.empty((ang.shape[0], d), dtype=np.complex128)
    w[:, 0] = sqrt_x0
    w[:, 1 : half + 1] = np.exp(1j * ang)
    w[:, half + 1 :] = -np.conj(w[:, half:0:-1])
    return ang, w


def to_vform(av: AnsatzVector) -> CVec:
    """The v-form vector (sqrt(x0), v_1, ..., v_{d-1})."""
    w = np.concatenate(([av.sqrt_x0], av.phases))
    return CVec(av.dim, w, "v-form")


def to_normalized(av: AnsatzVector) -> CVec:
    """Unit-norm vector N (sqrt(x0), v_1, ..., v_{d-1}): the v-form divided
    by its computed norm, which on the default branch is 1/N with
    N^2 = 1/(d-1-x0)."""
    return as_normalized(to_vform(av))


def to_rescaled(av: AnsatzVector) -> CVec:
    """Rescaled vector (x0, sqrt(x0) v_1, ..., sqrt(x0) v_{d-1})."""
    x = np.concatenate(([complex(av.x0)], av.sqrt_x0 * av.phases))
    return CVec(av.dim, x, "rescaled")


def _unit_components(vec: CVec) -> tuple[np.ndarray, float]:
    """Convert any form to unit-norm components; returns (components, norm).

    The returned norm is the norm of the phase-corrected vector before the
    final division (1.0 means the input was already a unit vector).
    Rescaled input is divided by sqrt(x0) first, which restores the
    phase convention that the X-overlap equation is sensitive to.
    """
    arr = vec.components
    if vec.form == "rescaled":
        # x0 replaces component 0: an Im x0 within the load slack is dropped
        x0 = arr[0].real
        arr = np.concatenate(([x0], arr[1:])) / cmath.sqrt(complex(x0))
    nrm = float(np.linalg.norm(arr))
    return arr / nrm, nrm


def as_normalized(vec: CVec) -> CVec:
    """Convert a vector of any form tag to the normalized form."""
    unit, _ = _unit_components(vec)
    return CVec(vec.dim, unit, "normalized")


def z_shift(psi: CVec, k: int) -> CVec:
    """Apply Z^k = D_{0,k}: component r is multiplied by omega^{(k mod d) r}.

    All three form tags are preserved: component 0 is untouched and all
    moduli are unchanged.
    """
    d = psi.dim.d
    return CVec(psi.dim, psi.components * _omega_phase(d, (k % d) * np.arange(d)), psi.form)


def z_overlap_residual(psi: CVec) -> float:
    """max_k |sqrt(d+1) <Psi|Z^k|Psi> - 1| over k = 1..d-1.

    Non-normalized input is converted/normalized internally.  The ansatz
    satisfies this identically, whatever the free angles.
    """
    unit, _ = _unit_components(psi)
    s = math.sqrt(unit.shape[0] + 1.0)
    vals = clock_shift_rows(unit, [0])[0]  # row j = 0: <Psi|Z^k|Psi>
    return float(np.max(np.abs(s * vals[1:] - 1.0)))


def x_overlap_deviations(psi: CVec) -> np.ndarray:
    """Per-index deviations |sqrt(d+1) <Psi|X^{-2j}|Psi> - psi_j^2/|psi_j|^2|.

    Entry j-1 is the deviation at j, for j = 1..d-1.  Every form is accepted
    and normalized first; for the v-form v of a default-branch ansatz vector
    the entries are |<v|X^{-2j}|v> - (sqrt(d+1)+1) v_j^2| / (sqrt(d+1)+1).
    Requires odd d; raises, naming the first such j, if |psi_j|^2 is below
    the smallest normal float for a j != 0 (psi_j = 0, or so small that its
    square underflows to 0 or to a subnormal whose reciprocal overflows),
    since the right-hand side is then undefined in floating point.
    """
    _odd_dim(psi.dim)
    unit, _ = _unit_components(psi)
    d = unit.shape[0]
    moduli = np.abs(unit[1:]) ** 2
    degenerate = moduli < np.finfo(float).tiny
    if degenerate.any():
        j = int(np.argmax(degenerate)) + 1
        raise DegenerateComponentError(
            f"degenerate component: |psi_j|^2 is below the smallest normal float at j = {j}"
        )
    s = math.sqrt(d + 1.0)
    lhs = s * autocorrelation(unit)[_x_lags(d)]
    rhs = unit[1:] ** 2 / moduli
    return np.abs(lhs - rhs)


def x_overlap_residual(psi: CVec) -> float:
    """Max deviation from the X-overlap equation over j = 1..d-1."""
    return float(np.max(x_overlap_deviations(psi)))


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the displacement row-sum identity at one index."""

    j: int
    lhs: complex
    rhs: complex
    deviation: float


def displacement_row_identity(psi, j: int) -> IdentityReport:
    """Check the unconditional identity
    <Psi|X^{-2j}|Psi> + sum_{k=1}^{d-1} <Psi|D_{-2j,k}|Psi> = d psi_{-j}^* psi_j.

    Holds for every complex vector in odd dimension (the row sum of the
    displacement operators at fixed shift collapses to a rank-one operator;
    the exponent -2j needs 2 invertible mod d).  Accepts a CVec or a plain
    array.
    """
    arr = _carray(psi)
    d = _odd_dim(arr.shape[0]).d
    # k = 0 contributes the bare <Psi|X^{-2j}|Psi> term
    lhs = complex(np.sum(overlap_rows(arr, [(-2 * j) % d])))  # reduced first: 2j may exceed int64
    rhs = d * np.conj(arr[(-j) % d]) * arr[j % d]
    return IdentityReport(j=j % d, lhs=lhs, rhs=complex(rhs), deviation=abs(lhs - rhs))

