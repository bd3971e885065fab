"""Shared test helpers: published solution vectors, explicit-matrix oracles
and the two G(i,k) table oracles (direct quartic sum, direct clock-shift sum).

The catalog vectors are hard-coded from their closed-form components so that
the package code is checked against independently constructed data.
"""

import json

import numpy as np

from flatsic import CVec, cvec
from flatsic.weyl import _LOAD_TOL

# quadratic residues, computed here by brute squaring (independent of the
# package's residue machinery)
QR7 = sorted({(k * k) % 7 for k in range(1, 7)})
QR19 = sorted({(k * k) % 19 for k in range(1, 19)})
QR67 = sorted({(k * k) % 67 for k in range(1, 67)})

#: Inputs that are not integers, each of which an integer argument such as a
#: dimension or a symmetry multiplier must reject with a ValueError.
NON_INTEGERS = [True, False, 7.5, 2.5, float("nan"), float("inf"), -float("inf"), None]

#: Tolerances that are not real numbers, each of which a tolerance argument
#: must reject with a ValueError naming it (None where it is not the default).
NON_REAL_TOLERANCES = [True, np.True_, "1e-3", 1e-3 + 0j]


def d7_solution(beta_coeff: int) -> np.ndarray:
    """Rescaled dimension-7 solutions.

    Components are (sqrt2 (b + 1) + 2)/2 at residue indices and
    (sqrt2 (-b + 1) + 2)/2 elsewhere, with b = beta_coeff * sqrt(-2 sqrt2 - 1)
    and first component -2 - 2 sqrt2.  beta_coeff=-1 gives the first printed
    solution, +1 the second.
    """
    beta = beta_coeff * 1j * np.sqrt(2.0 * np.sqrt(2.0) + 1.0)
    hi = (np.sqrt(2.0) * (beta + 1.0) + 2.0) / 2.0
    lo = (np.sqrt(2.0) * (-beta + 1.0) + 2.0) / 2.0
    x = np.empty(7, dtype=complex)
    x[0] = -2.0 - 2.0 * np.sqrt(2.0)
    for j in range(1, 7):
        x[j] = hi if j in QR7 else lo
    return x


def d19_solution(beta_coeff: int = +1) -> np.ndarray:
    """Rescaled dimension-19 solution: beta-1 on residues, -beta-1 elsewhere,
    beta = beta_coeff * sqrt(-2 sqrt5 - 1)."""
    beta = beta_coeff * 1j * np.sqrt(2.0 * np.sqrt(5.0) + 1.0)
    x = np.empty(19, dtype=complex)
    x[0] = -2.0 - 2.0 * np.sqrt(5.0)
    for j in range(1, 19):
        x[j] = beta - 1.0 if j in QR19 else -beta - 1.0
    return x


def d67_solution(beta_coeff: int = +1) -> np.ndarray:
    """Rescaled dimension-67 X-overlap solution (not a SIC): beta-1 on
    squares mod 67, -beta-1 elsewhere, beta = beta_coeff * sqrt(-2 sqrt17 - 1)."""
    beta = beta_coeff * 1j * np.sqrt(2.0 * np.sqrt(17.0) + 1.0)
    x = np.empty(67, dtype=complex)
    x[0] = -2.0 - 2.0 * np.sqrt(17.0)
    for j in range(1, 67):
        x[j] = beta - 1.0 if j in QR67 else -beta - 1.0
    return x


def normalize_rescaled(x: np.ndarray) -> CVec:
    """Independent conversion of a rescaled vector to the normalized form:
    divide by the purely imaginary sqrt(x0), then by the norm."""
    sx0 = 1j * np.sqrt(-x[0].real)
    w = x / sx0
    return cvec(w / np.linalg.norm(w))


def rescaled_cvec(x: np.ndarray) -> CVec:
    return cvec(x, "rescaled")


def rescaled_d7_text(slack_fraction: float) -> str:
    """A rescaled vector file of d7_solution(-1) whose x0 carries an imaginary
    part of slack_fraction times the load slack of the vector files."""
    x = d7_solution(-1)
    x[0] += 1j * slack_fraction * _LOAD_TOL * (1.0 + abs(x[0]))
    return json.dumps({"d": 7, "form": "rescaled", "components": [[z.real, z.imag] for z in x]})


#: The ghost branch at d = 3 in rescaled form: x0 = -2 + sqrt(4) = 0, so every
#: component is 0.
ZERO_D3_RESCALED = json.dumps({"d": 3, "form": "rescaled", "components": [[0.0, 0.0]] * 3})


def xz_matrices(d: int):
    """Explicit clock and shift matrices (oracle path)."""
    om = np.exp(2j * np.pi / d)
    X = np.zeros((d, d), dtype=complex)
    Z = np.zeros((d, d), dtype=complex)
    for r in range(d):
        X[(r + 1) % d, r] = 1.0
        Z[r, r] = om**r
    return X, Z


def displacement_matrix(d: int, j: int, k: int) -> np.ndarray:
    """Explicit D_{j,k} = tau^{jk} X^j Z^k with indices reduced mod d first."""
    X, Z = xz_matrices(d)
    j %= d
    k %= d
    tau = -np.exp(1j * np.pi / d)
    return tau ** (j * k) * (
        np.linalg.matrix_power(X, j) @ np.linalg.matrix_power(Z, k)
    )


def _components(psi) -> np.ndarray:
    return np.asarray(psi.components if isinstance(psi, CVec) else psi, dtype=complex)


def gik_quartic(psi) -> np.ndarray:
    """Every G(i,k) as the direct quartic sum over the components,
    G(i,k) = sum_r conj(psi_{r+i}) conj(psi_{r+k}) psi_r psi_{r+i+k},
    as a d x d table.  Accepts a CVec or plain array; no normalization is
    applied, so the Fourier-side identity holds for arbitrary vectors."""
    a = _components(psi)
    d = a.shape[0]
    n = np.arange(d)
    up = a[(n[:, None] + n) % d]  # up[i, r] = psi_{r+i}
    table = np.empty((d, d), dtype=complex)
    for i in range(d):
        # row i: sum over r of conj(psi_{r+k}) psi_{r+i+k} times conj(psi_{r+i}) psi_r
        table[i] = (np.conj(up) * np.roll(up, -i, axis=0)) @ (np.conj(up[i]) * a)
    return table


def gik_fourier(psi) -> np.ndarray:
    """Every G(i,k) = (1/d) sum_j omega^{kj} |<Psi|X^i Z^j|Psi>|^2 as a d x d
    table, with the clock-shift overlaps and the sum over j both taken as
    products with an explicit omega-power matrix (no FFT).  Agrees with
    gik_quartic for every vector, normalized or not."""
    a = _components(psi)
    d = a.shape[0]
    n = np.arange(d)
    omega = np.exp(2j * np.pi * ((n[:, None] * n) % d) / d)  # omega^{jr}
    # <Psi|X^i Z^j|Psi> = sum_s conj(psi_{s+i}) omega^{js} psi_s
    overlaps = (np.conj(a[(n[:, None] + n) % d]) * a) @ omega
    return np.abs(overlaps) ** 2 @ omega / d


def random_complex(rng, d: int) -> np.ndarray:
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def random_unit(rng, d: int) -> CVec:
    v = random_complex(rng, d)
    return cvec(v / np.linalg.norm(v))
