"""Weyl-Heisenberg operators on complex vectors of dimension d.

Conventions used throughout the package: the clock and shift operators act
on length-d complex vectors as Z|r> = omega^r |r> and X|r> = |r+1> with
omega = exp(2 pi i / d), indices modulo d.  Displacement unitaries are
D_{j,k} = tau^{jk} X^j Z^k with tau = -exp(pi i / d).  Inner products
conjugate the first argument.

All operations are pure functions; vectors are immutable after construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: The names flatsic re-exports.  The spectral kernel (autocorrelation,
#: clock_shift_rows, overlap_rows) is read by the other modules and not
#: re-exported.
__all__ = [
    "FORMS",
    "Dim",
    "CVec",
    "norm_tolerance",
    "is_prime",
    "make_dimension",
    "check_tolerance",
    "cvec",
    "apply_displacement",
    "inner_product",
]

#: Recognized vector forms.  "normalized" is a unit vector; "v-form" has
#: first component sqrt(x0) and unit-modulus phases elsewhere; "rescaled"
#: has first component x0 and the other components scaled by sqrt(x0).
FORMS = ("normalized", "v-form", "rescaled")

_PRIMALITY_LIMIT = 10**12


def norm_tolerance(d: int) -> float:
    """Default absolute tolerance for d-term aggregate sums."""
    return 1e-9 * d


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk scale only)."""
    n = _check_integer(n, "n")
    if n > _PRIMALITY_LIMIT:
        raise ValueError(f"primality test supports n <= {_PRIMALITY_LIMIT}, got {n}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Dim:
    """A validated dimension with its arithmetic classification.

    n_sq_plus_3 is the integer n with d = n^2 + 3 when d - 3 is a perfect
    square, else None.
    """

    d: int
    is_odd: bool
    is_prime: bool
    n_sq_plus_3: int | None
    mod4: int
    mod8: int


def _check_integer(value, name: str) -> int:
    """value as an int; a ValueError naming it for a bool (numpy's too) or a
    non-integral value, NaN, an infinity, None and text included."""
    try:
        integral = not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):  # None, non-numeric text, NaN, inf
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_bool(value, name: str) -> bool:
    """value as a bool; a ValueError naming it for anything but a bool or
    numpy's bool, 0, 1, None and text included."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_tolerance(tol: float, name: str = "tolerance") -> float:
    """tol as a float in (0, inf); a ValueError naming it for anything else,
    a bool, NaN, None, text and a complex value included."""
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and 0.0 < tol < np.inf):  # false for NaN too
        raise ValueError(f"{name} must be positive and finite, got {tol}")
    return float(tol)


def _odd_dim(dim: Dim | int) -> Dim:
    """dim as a Dim; a ValueError for even d, since the ansatz pairing, the
    X-overlap equation and the row identity need 2 invertible mod d."""
    dim = _as_dim(dim)
    if not dim.is_odd:
        raise ValueError(f"the almost-flat ansatz requires odd dimension, got d={dim.d}")
    return dim


def make_dimension(d: int) -> Dim:
    """Classify an integer dimension; rejects d < 2."""
    d = _check_integer(d, "dimension")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    n = None
    if d >= 3:
        root = math.isqrt(d - 3)
        if root * root == d - 3:
            n = root
    return Dim(
        d=d,
        is_odd=bool(d % 2),
        is_prime=is_prime(d),
        n_sq_plus_3=n,
        mod4=d % 4,
        mod8=d % 8,
    )


def _as_dim(dim: Dim | int) -> Dim:
    return dim if isinstance(dim, Dim) else make_dimension(dim)


#: Slack for the v-form and rescaled invariants, which vector files state
#: with limited digits; normalized vectors are held to norm_tolerance(d).
_LOAD_TOL = 1e-6


class VectorFileError(ValueError):
    """Raised for malformed vector files and for vectors that break a form
    invariant."""

    def __init__(self, message: str, invariant: str | None = None):
        if invariant:
            message = f"{message} [invariant: {invariant}]"
        super().__init__(message)
        self.invariant = invariant


@dataclass(frozen=True)
class CVec:
    """Dense complex vector of length d with a form tag.

    Every CVec is valid for its form when it is built: a known form, d
    finite components and the form's invariants (_check_form).  So they hold
    for every vector the library builds, and every dump_vector output loads;
    a broken invariant raises VectorFileError naming it.
    """

    dim: Dim
    components: np.ndarray
    form: str = "normalized"

    def __post_init__(self) -> None:
        arr = np.array(self.components, dtype=np.complex128)
        if self.form not in FORMS:
            raise VectorFileError(
                f"unknown form {self.form!r}, expected one of {FORMS}", invariant="known-form"
            )
        if arr.shape != (self.dim.d,):
            raise VectorFileError(
                f"expected {self.dim.d} components, got array of shape {arr.shape}",
                invariant="components-length",
            )
        finite = np.isfinite(arr)
        if not finite.all():
            i = int(np.argmin(finite))
            raise VectorFileError(f"component {i} is not finite", invariant="finite-components")
        with np.errstate(over="ignore"):
            _check_form(self.dim.d, self.form, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @property
    def d(self) -> int:
        return self.dim.d


def _check_form(d: int, form: str, arr: np.ndarray) -> None:
    """The invariants of each form (see FORMS) on finite components, each
    raising VectorFileError with its name.  The v-form and rescaled checks
    allow the slack _LOAD_TOL, relative where the value can be large; a huge
    finite component fails them as an inf, not an OverflowError."""
    if form == "normalized":
        nrm = float(np.linalg.norm(arr))
        if abs(nrm - 1.0) > norm_tolerance(d):
            raise VectorFileError(
                f"normalized vector has norm {nrm!r}, outside tolerance {norm_tolerance(d):g}",
                invariant="normalized-norm",
            )
    elif form == "v-form":
        if np.any(np.abs(np.abs(arr[1:]) - 1.0) > _LOAD_TOL):
            raise VectorFileError(
                "v-form phases must have unit modulus", invariant="vform-unit-moduli"
            )
        c0 = complex(arr[0])
        h = abs(c0)  # |Re c0 Im c0| <= slack * (1 + h^2), divided by h^2 so nothing overflows
        if h and abs((c0.real / h) * (c0.imag / h)) > _LOAD_TOL * (1.0 / h / h + 1.0):
            raise VectorFileError(
                "v-form first component must be purely real or purely imaginary",
                invariant="vform-first-component",
            )
    else:
        c0 = complex(arr[0])
        if abs(c0.imag) > _LOAD_TOL * (1.0 + abs(c0)):
            raise VectorFileError(
                f"rescaled first component must be real, got {c0!r}", invariant="rescaled-x0-real"
            )
        x0 = c0.real
        if x0 == 0.0:  # the conversion to unit form divides by sqrt(x0)
            raise VectorFileError(
                "rescaled first component must be nonzero", invariant="rescaled-x0-nonzero"
            )
        if abs((x0 + 2.0) * (x0 + 2.0) - (d + 1.0)) > _LOAD_TOL * (d + 1.0):
            raise VectorFileError(
                f"rescaled first component {x0:.6g} does not satisfy (x0+2)^2 = d+1 = {d + 1}",
                invariant="rescaled-x0-quadratic",
            )
        if np.any(np.abs(np.abs(arr[1:]) ** 2 - abs(x0)) > _LOAD_TOL * (1.0 + abs(x0))):
            raise VectorFileError(
                "rescaled components must have squared modulus |x0|",
                invariant="rescaled-moduli",
            )


def cvec(components, form: str = "normalized") -> CVec:
    """Build a CVec from any complex sequence, inferring the dimension."""
    arr = _carray(components)
    return CVec(make_dimension(arr.shape[0]), arr, form)


def _carray(psi) -> np.ndarray:
    """Coerce a CVec or array-like to a 1-d complex128 array."""
    if isinstance(psi, CVec):
        return psi.components
    arr = np.asarray(psi, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional complex vector")
    return arr


def _tau_phase(d: int, m) -> np.ndarray:
    """tau^m = (-1)^m exp(i pi m / d) for an integer or integer array m, the
    exponent reduced mod 2d first.  The only place tau^m is computed."""
    m = np.asarray(m) % (2 * d)
    return np.where(m & 1, -1.0, 1.0) * np.exp(1j * np.pi * m / d)


def _omega_phase(d: int, m) -> np.ndarray:
    """omega^m = exp(2 pi i (m mod d) / d) for an integer or integer array m,
    m mod d divided by d before 2 pi i scales it: the only omega^m site."""
    return np.exp(2j * np.pi * (np.asarray(m) % d / d))


def _x_lags(d: int) -> np.ndarray:
    """The lag 2j mod d of each index j = 1..d-1: the X-overlap equation at j
    reads <Psi|X^{-2j}|Psi>, autocorrelation lag 2j mod d.  The only place
    this pairing is formed."""
    return (2 * np.arange(1, d)) % d


def apply_displacement(psi: CVec, j: int, k: int) -> CVec:
    """Apply D_{j,k} = tau^{jk} X^j Z^k without materializing a matrix.

    Component r of the result is tau^{jk} omega^{k(r-j)} psi_{r-j} with all
    indices mod d.  Norm-preserving; the form tag is carried through.  X^j
    moves component 0, so a v-form or rescaled vector is valid only for
    j = 0 mod d; other j raise VectorFileError.  No package function calls it.
    """
    d = psi.dim.d
    j = _check_integer(j, "j") % d
    k = _check_integer(k, "k") % d
    phases = _omega_phase(d, k * (np.arange(d) - j))
    out = _tau_phase(d, j * k) * phases * np.roll(psi.components, j)
    return CVec(psi.dim, out, psi.form)


def inner_product(phi: CVec, psi: CVec) -> complex:
    """<phi|psi> with conjugation on the first argument."""
    if phi.dim.d != psi.dim.d:
        raise ValueError(f"dimension mismatch: {phi.dim.d} vs {psi.dim.d}")
    return complex(np.vdot(phi.components, psi.components))


# Spectral kernel.  Every displacement-overlap quantity of the package is read
# from the three functions below; apply_displacement and inner_product stay
# as the entry-by-entry definitions, and no package function calls them.


def autocorrelation(arr) -> np.ndarray:
    """Circular correlation c[m] = sum_k conj(arr_k) arr_{k+m} for all lags m,
    so that <Psi|X^{-m}|Psi> is c[m].  The lags run along the last axis, and
    each row of a stacked array is correlated alone.

    Complex input goes through one complex transform pair of its own length
    d.  Real input (bool, integer or float) goes through one rfft/irfft pair
    at the power of two n above 2d - 1 and comes back real: the zero padding
    makes that pair's result the linear correlation, whose lags m and m - d
    add up to the circular lag m.
    """
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return np.fft.ifft(np.abs(np.fft.fft(arr)) ** 2)
    d = arr.shape[-1]
    linear = _linear_autocorrelation(arr)
    n = linear.shape[-1]
    return linear[..., :d] + linear[..., n - d :]


def _linear_autocorrelation(arr) -> np.ndarray:
    """The linear autocorrelation of each row of a real array, from one
    rfft/irfft pair at the power of two n above 2d - 1, d the row length:
    shape (..., n), lag m >= 0 at index m and lag -m at index n - m.  n is
    above 2d - 1, so lags d and -d are empty, and a row that is zero past
    some length p <= d has its circular lag-a correlation at indices a and
    n - (p - a)."""
    n = 1 << (2 * arr.shape[-1] - 1).bit_length()
    return np.fft.irfft(np.abs(np.fft.rfft(arr, n)) ** 2, n)


def clock_shift_rows(psi, rows) -> np.ndarray:
    """<psi|Z^k X^j|psi> for every j in rows and every k, shape (len(rows), d).

    Row j is d * ifft(conj(psi) * X^j psi), one gather of psi serving every
    row.  These rows carry no tau phase, so the squared overlap moduli and
    G(i,k) are read from them.  No normalization is applied.  psi is one
    vector, a CVec or a 1-d array; the sic search objective forms a batch's
    rows with the plan's transform pair, one gather serving table and gradient.
    """
    arr = _carray(psi)
    d = arr.shape[0]
    j = np.asarray(rows, dtype=np.int64)[:, None] % d
    return d * np.fft.ifft(np.conj(arr) * arr[(np.arange(d) - j) % d])


def overlap_rows(psi, rows) -> np.ndarray:
    """<psi|D_{j,k}|psi> for every j in rows and every k, shape (len(rows), d).

    D_{j,k} = tau^{-jk} Z^k X^j, so row j is clock_shift_rows row j times
    tau^{-jk}.  The only place the tau convention enters a table.  No
    normalization is applied.
    """
    d = _carray(psi).shape[0]
    j = np.asarray(rows, dtype=np.int64)[:, None] % d
    return clock_shift_rows(psi, rows) * _tau_phase(d, -j * np.arange(d))
