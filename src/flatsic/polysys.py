"""Polynomial systems for the rescaled almost-flat vector, with exact
rational coefficients.

In the rescaled coordinates x_0..x_{d-1} the ansatz contributes the pair
relations x_j x_{d-j} + x_0 and the quadratic (x_0+2)^2 - (d+1); the
X-overlap equation becomes, after eliminating conjugates via
conj(x_r) = x_{d-r}, the moduli via |x_j|^2 = -x_0, and the surd via
sqrt(d+1) = -(x_0+2), the cubic generators

    P_j = sum_m x_m x_{2j-m mod d} - (x_0 + 1) x_j^2,      j = 1..d-1.

The polynomialization is a derived identity, so build_system output is
validated by evaluating the generators at known solution vectors before any
export is trusted (the tests do exactly that).

Gröbner bases themselves are out of scope: systems are exported for external
computer-algebra engines, and candidate points are only checked for
membership numerically.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

import numpy as np

from .weyl import Dim, _as_dim, _check_integer, _odd_dim

__all__ = [
    "Poly",
    "PolySystem",
    "poly",
    "build_system",
    "eval_system",
    "check_d7_component_basis",
    "export_system",
    "parse_system",
    "parse_poly",
    "system_manifest",
]


@dataclass(frozen=True)
class Poly:
    """Polynomial in x_0..x_{d-1}; monomials maps each monomial to its
    nonzero rational coefficient.  A monomial is the tuple of its variable
    indices, one entry per power, in the variable order x_1 < ... < x_{d-1}
    < x_0: x_0 x_j^2 is (j, j, 0) and the constant monomial is ()."""

    d: int
    monomials: dict[tuple[int, ...], Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "monomials", dict(self.monomials))

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The same terms keyed by dense exponent tuples of length d, in the
        same order."""
        dense = {}
        for mono, coeff in self.monomials.items():
            exps = [0] * self.d
            for v in mono:
                exps[v] += 1
            dense[tuple(exps)] = coeff
        return dense

    def evaluate(self, point) -> complex:
        """Evaluate at a complex point of length d (double precision)."""
        pt = np.asarray(point, dtype=np.complex128)
        if pt.shape != (self.d,):
            raise ValueError(f"expected a point of length {self.d}, got {pt.shape}")
        values = pt.tolist()
        total = 0j
        for mono, coeff in self.monomials.items():
            term = complex(coeff)
            for v in mono:
                term *= values[v]
            total += term
        return total


def poly(d: int, terms: dict[tuple[int, ...], Fraction | int]) -> Poly:
    """Build a Poly from dense exponent tuples of length d, dropping zero
    terms."""
    order = _var_order(d)
    clean: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in terms.items():
        exps = tuple(int(e) for e in exps)
        if len(exps) != d or min(exps, default=0) < 0:
            raise ValueError(f"exponent vector {exps} is not {d} nonnegative integers")
        coeff = Fraction(coeff)
        if coeff:
            clean[tuple(v for v in order for _ in range(exps[v]))] = coeff
    return Poly(d=d, monomials=clean)


def _from_monomials(d: int, terms: dict[tuple[int, ...], Fraction | int]) -> Poly:
    """Poly with the nonzero terms of a monomial-keyed dict."""
    return Poly(d=d, monomials={mono: Fraction(c) for mono, c in terms.items() if c})


@dataclass(frozen=True)
class PolySystem:
    """A generator list over Q[x_0..x_{d-1}], optionally with a permutation
    symmetry multiplier m (adding x_j - x_{mj mod d})."""

    dim: Dim
    polys: tuple[Poly, ...]
    symmetry_multiplier: int | None = None


def build_system(dim: Dim | int, symmetry_multiplier: int | None = None) -> PolySystem:
    """Generators: pair relations, the x_0 quadratic, the X-overlap cubics,
    and optional symmetry constraints x_j - x_{mj}.

    Requires odd d; a symmetry multiplier must be coprime to d.
    """
    dim = _odd_dim(dim)
    d = dim.d
    m = symmetry_multiplier
    if m is not None:
        m = _check_integer(m, "symmetry multiplier") % d
        if math.gcd(m, d) != 1:
            raise ValueError(
                f"symmetry multiplier must be coprime to d, got m={symmetry_multiplier}"
            )
    gens: list[Poly] = []
    for j in range(1, (d - 1) // 2 + 1):
        gens.append(_from_monomials(d, {(j, d - j): 1, (0,): 1}))
    gens.append(_from_monomials(d, {(0, 0): 1, (0,): 4, (): 3 - d}))
    for j in range(1, d):
        # sum_m x_m x_{2j-m} as counts of index pairs (x_0 last), first seen at
        # m = min; the -x_j^2 of -(x_0 + 1) x_j^2 cancels the m = j term
        pairs = Counter()
        for a in range(d):
            b = (2 * j - a) % d
            lo, hi = (a, b) if a < b else (b, a)
            pairs[(lo, hi) if lo else (hi, 0)] += 1
        pairs[j, j] -= 1
        pairs[j, j, 0] = -1
        gens.append(_from_monomials(d, pairs))
    if m is not None:
        for j in range(1, d):
            t = (m * j) % d
            if t != j:
                gens.append(_from_monomials(d, {(j,): 1, (t,): -1}))
    return PolySystem(dim=dim, polys=tuple(gens), symmetry_multiplier=m)


def eval_system(system: PolySystem, point) -> list[float]:
    """Residual moduli |p(point)| of every generator, double precision."""
    pt = np.asarray(point, dtype=np.complex128)
    return [abs(p.evaluate(pt)) for p in system.polys]


# Known lexicographic basis of the permutation-symmetric component of the
# d=7 system (x1 = x2 = x4, x3 = x5 = x6); hard-coded verbatim.
def _d7_component_basis() -> tuple[Poly, ...]:
    half = Fraction(1, 2)
    gens = []
    for j in (1, 2, 4):
        gens.append(_from_monomials(7, {(j,): 1, (6,): 1, (0,): half, (): -1}))
    for j in (3, 5):
        gens.append(_from_monomials(7, {(j,): 1, (6,): -1}))
    gens.append(_from_monomials(7, {(6, 6): 1, (6, 0): half, (6,): -1, (0,): -1}))
    gens.append(_from_monomials(7, {(0, 0): 1, (0,): 4, (): -4}))
    return tuple(gens)


_D7_BASIS = _d7_component_basis()


def check_d7_component_basis(point) -> float:
    """Max residual modulus of the seven hard-coded d=7 component-basis
    polynomials at a rescaled point of length 7."""
    pt = np.asarray(point, dtype=np.complex128)
    return max(abs(p.evaluate(pt)) for p in _D7_BASIS)


# ---------------------------------------------------------------------------
# plain-text export / parse
#
# Term order: graded lexicographic with variable order x1 > x2 > ... > x0
# (x_0 last, mirroring the lexicographic order used for the published d=7
# basis).  Within a monomial the factors print in that same variable order.
# On index tuples this is: higher degree first, then ascending index tuple
# with x_0 ranked as d, since within one degree a smaller sorted index tuple
# is a larger exponent vector.

def _var_order(d: int) -> list[int]:
    return list(range(1, d)) + [0]


def _poly_line(p: Poly) -> str:
    if not p.monomials:
        return "0"
    ordered = sorted(
        p.monomials.items(), key=lambda item: (-len(item[0]), [v or p.d for v in item[0]])
    )
    parts = []
    for pos, (indices, coeff) in enumerate(ordered):
        powers = [(v, len(list(run))) for v, run in groupby(indices)]
        mono = "*".join(f"x{v}^{n}" if n > 1 else f"x{v}" for v, n in powers)
        num, den = coeff.numerator, coeff.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if mono:
            body = mono if mag == "1" else f"{mag}*{mono}"
        else:
            body = mag
        if pos == 0:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(("+ " if num > 0 else "- ") + body)
    return " ".join(parts)


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_COEFF_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_poly(line: str, d: int) -> Poly:
    """Parse one plain-format polynomial line back to exact rationals."""
    tokens = line.split()
    if not tokens:
        raise ValueError("empty polynomial line")
    terms: dict[tuple[int, ...], Fraction] = {}
    sign = 1
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        if pos > 0:
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise ValueError(f"expected '+' or '-' between terms, got {tok!r}")
            pos += 1
            if pos >= len(tokens):
                raise ValueError("dangling sign at end of line")
            tok = tokens[pos]
        else:
            sign = 1
            if tok.startswith("-"):
                sign = -1
                tok = tok[1:]
        coeff = Fraction(sign)
        indices = []
        for factor in tok.split("*"):
            m = _FACTOR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if idx >= d:
                    raise ValueError(f"variable x{idx} out of range for d={d}")
                indices += [idx] * int(m.group(2) or 1)
                continue
            m = _COEFF_RE.match(factor)
            if m:
                den = int(m.group(2) or 1)
                if den == 0:
                    raise ValueError(f"coefficient {factor!r}: denominators must be nonzero")
                coeff *= Fraction(int(m.group(1)), den)
                continue
            raise ValueError(f"cannot parse factor {factor!r}")
        key = tuple(sorted(indices, key=lambda v: v or d))
        terms[key] = terms.get(key, Fraction(0)) + coeff
        pos += 1
    return _from_monomials(d, terms)


def export_system(system: PolySystem, format: str = "plain") -> str:
    """Render a system as text.

    "plain" is one polynomial per line in the deterministic term order;
    "cas-script" wraps the same lines in a generic ring declaration and a
    lexicographic Gröbner basis request.  Output is byte-stable.
    """
    lines = [_poly_line(p) for p in system.polys]
    if format == "plain":
        return "\n".join(lines) + "\n"
    if format == "cas-script":
        d = system.dim.d
        variables = ", ".join(f"x{v}" for v in _var_order(d))
        out = [
            "# polynomial system over the rationals",
            f"# variables in lexicographic order: {variables}",
            f"ring Q[{variables}]",
            "ideal:",
        ]
        out += ["  " + ln for ln in lines]
        out += ["task: groebner_basis", "order: lexicographic"]
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown export format {format!r}")


def parse_system(text: str, d: int | None = None) -> PolySystem:
    """Parse plain-format text back into a PolySystem.

    When d is omitted it is inferred as 1 + the largest variable index seen.
    The symmetry multiplier is not recoverable from the text and is left
    unset; generator polynomials round-trip exactly.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if d is None:
        seen = [int(m) for ln in lines for m in re.findall(r"x(\d+)", ln)]
        if not seen:
            raise ValueError("cannot infer dimension: no variables in input")
        d = max(seen) + 1
    polys = tuple(parse_poly(ln, d) for ln in lines)
    return PolySystem(dim=_as_dim(d), polys=polys, symmetry_multiplier=None)


def system_manifest(system: PolySystem, text: str) -> dict:
    """Manifest accompanying an export: dimension, multiplier, generator
    count, and the SHA-256 of the exported text."""
    return {
        "d": system.dim.d,
        "symmetry_multiplier": system.symmetry_multiplier,
        "num_generators": len(system.polys),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
