"""Reference values for the output checks, computed without flatsic.

Everything here is written from the paper's definitions with numpy alone, so
a check never compares the program against itself:

- the almost-flat ansatz: psi = N (sqrt(x0), v_1, ..., v_{d-1}) with
  x0 = -2 - sqrt(d+1), |v_j| = 1 and v_{d-j} = -conj(v_j);
- the Legendre vector: v_j = x1 on quadratic residues, -1/x1 elsewhere, with
  the closed-form x1 for d = 3 and d = 7 mod 8;
- overlap moduli |<Psi|X^j Z^k|Psi>|^2 and G(i,k) by the Fourier identity;
- the X-overlap and naive shift residuals;
- the generator count of the exported polynomial system.
"""

from __future__ import annotations

import math

import numpy as np


def primes_3mod4(limit: int) -> list[int]:
    """Primes p <= limit with p = 3 mod 4, by a sieve."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for n in range(2, math.isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n :: n] = False
    return [int(p) for p in np.flatnonzero(sieve) if p % 4 == 3]


def residue_signs(p: int) -> np.ndarray:
    """signs[j] = +1 for a quadratic residue j mod p, -1 otherwise (j != 0)."""
    signs = -np.ones(p, dtype=int)
    signs[0] = 0
    signs[(np.arange(1, p) ** 2) % p] = 1
    return signs


def ansatz_vector(d: int, angles) -> np.ndarray:
    """Unit almost-flat vector from its (d-1)/2 free angles."""
    half = (d - 1) // 2
    ang = np.asarray(angles, dtype=float)
    if ang.shape != (half,):
        raise ValueError(f"expected {half} angles for d={d}, got {ang.shape}")
    v = np.exp(1j * ang)
    comps = np.empty(d, dtype=complex)
    comps[0] = 1j * math.sqrt(2.0 + math.sqrt(d + 1.0))
    comps[1 : half + 1] = v
    comps[half + 1 :] = -np.conj(v[::-1])
    return comps / np.linalg.norm(comps)


def legendre_vector(p: int, beta_sign: int) -> np.ndarray:
    """Unit Legendre vector of a prime p = 3 mod 4, branch beta_sign = +-1."""
    if p % 4 != 3:
        raise ValueError(f"Legendre vectors need p = 3 mod 4, got {p}")
    s = math.sqrt(p + 1.0)
    sqrt_x0 = 1j * math.sqrt(2.0 + s)
    if p % 8 == 3:
        beta = beta_sign * 1j * math.sqrt(s + 1.0)
        x1 = (beta - 1.0) / sqrt_x0
    else:
        beta = beta_sign * 1j * math.sqrt((p - 3.0) * (s + 1.0))
        x1 = (beta + 2.0 + s) / (s * sqrt_x0)
    signs = residue_signs(p)
    comps = np.where(signs > 0, x1, -1.0 / x1).astype(complex)
    comps[0] = sqrt_x0
    return comps / np.linalg.norm(comps)


def autocorrelation(psi: np.ndarray) -> np.ndarray:
    """c[m] = sum_r conj(psi_r) psi_{r+m}, indices mod d."""
    d = psi.shape[0]
    idx = (np.arange(d)[:, None] + np.arange(d)[None, :]) % d  # [m, r] -> r+m
    return psi[idx] @ np.conj(psi)


def x_overlap_residual(psi: np.ndarray) -> float:
    """max_j |sqrt(d+1) <Psi|X^{-2j}|Psi> - psi_j^2/|psi_j|^2|, j = 1..d-1."""
    d = psi.shape[0]
    c = autocorrelation(psi)
    j = np.arange(1, d)
    lhs = math.sqrt(d + 1.0) * c[(2 * j) % d]
    rhs = psi[j] ** 2 / np.abs(psi[j]) ** 2
    return float(np.max(np.abs(lhs - rhs)))


def naive_x_residual(psi: np.ndarray) -> float:
    """max_j | |<Psi|X^j|Psi>|^2 - 1/(d+1) |, j = 1..d-1."""
    d = psi.shape[0]
    c = autocorrelation(psi)
    return float(np.max(np.abs(np.abs(c[1:]) ** 2 - 1.0 / (d + 1.0))))


def overlap_moduli(psi: np.ndarray) -> np.ndarray:
    """M[j, k] = |<Psi|X^j Z^k|Psi>|^2; displacement phases drop out."""
    d = psi.shape[0]
    r = np.arange(d)
    shifted = psi[(r[None, :] - r[:, None]) % d]  # [j, r] -> psi_{r-j}
    return np.abs(np.fft.fft(np.conj(psi)[None, :] * shifted, axis=1)) ** 2


def sic_residual(psi: np.ndarray) -> float:
    """max over (j,k) != (0,0) of | |<Psi|D_{j,k}|Psi>|^2 - 1/(d+1) |."""
    dev = np.abs(overlap_moduli(psi) - 1.0 / (psi.shape[0] + 1.0))
    dev[0, 0] = 0.0
    return float(dev.max())


def gik_table(psi: np.ndarray) -> np.ndarray:
    """G(i,k) = (1/d) sum_j omega^{kj} |<Psi|X^i Z^j|Psi>|^2."""
    return np.fft.ifft(overlap_moduli(psi), axis=1)


def matches_up_to_clock_shift(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """True when Z^k a equals b up to a global phase for some k."""
    d = a.shape[0]
    r = np.arange(d)
    for k in range(d):
        za = a * np.exp(2j * np.pi * ((k * r) % d) / d)
        phase = np.vdot(za, b)
        if abs(phase) == 0.0:
            continue
        if np.linalg.norm(za * (phase / abs(phase)) - b) < tol:
            return True
    return False


def polysys_generator_count(d: int, m: int | None) -> int:
    """Pair relations, the x0 quadratic, d-1 cubics, and x_j - x_{mj}."""
    count = (d - 1) // 2 + 1 + (d - 1)
    if m is not None:
        count += sum(1 for j in range(1, d) if (m * j) % d != j)
    return count
