"""Polynomial systems for the rescaled almost-flat vector, with exact
rational coefficients.

In the rescaled coordinates x_0..x_{d-1} the ansatz contributes the pair
relations x_j x_{d-j} + x_0 and the quadratic (x_0+2)^2 - (d+1); the
X-overlap equation becomes, after eliminating conjugates via
conj(x_r) = x_{d-r}, the moduli via |x_j|^2 = -x_0, and the surd via
sqrt(d+1) = -(x_0+2), the cubic generators

    P_j = sum_m x_m x_{2j-m mod d} - (x_0 + 1) x_j^2
        = 2 sum_{a<b, a+b = 2j mod d} x_a x_b - x_0 x_j^2,      j = 1..d-1,

built in that closed form.  A Poly is canonical when it is built: zero terms
are dropped and every coefficient is stored as an exact Fraction.

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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, zip_longest

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
    nonzero rational coefficient.  Building a Poly drops zero terms and
    converts every coefficient to an exact Fraction.  A monomial is the
    tuple of its variable indices, one entry per power, in the variable
    order x_1 < ... < x_{d-1} < x_0: x_0 x_j^2 is (j, j, 0) and the constant
    monomial is ()."""

    d: int
    monomials: dict[tuple[int, ...], Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        # the one place a polynomial is made canonical; Fractions are shared
        clean = {
            m: c if type(c) is Fraction else Fraction(c) for m, c in self.monomials.items() if c
        }
        object.__setattr__(self, "monomials", clean)

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
    """Build a Poly from dense exponent tuples of length d."""
    order = _var_order(d)
    monomials = {}
    for exps, coeff in terms.items():
        exps = tuple(int(e) for e in exps)
        if len(exps) != d or min(exps, default=0) < 0:
            raise ValueError(f"exponent vector {exps} is not {d} nonnegative integers")
        monomials[tuple(v for v in order for _ in range(exps[v]))] = coeff
    return Poly(d, monomials)


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
    gens = [Poly(d, {(j, d - j): 1, (0,): 1}) for j in range(1, (d - 1) // 2 + 1)]
    gens.append(Poly(d, {(0, 0): 1, (0,): 4, (): 3 - d}))
    two, minus_one = Fraction(2), Fraction(-1)
    for j in range(1, d):
        # P_j = 2 sum_{a<b, a+b = 2j} x_a x_b - x_0 x_j^2, pairs keyed with x_0 last
        cubic = {}
        for a in range(d):
            b = (2 * j - a) % d
            if a < b:
                cubic[(a, b) if a else (b, 0)] = two
        cubic[j, j, 0] = minus_one
        gens.append(Poly(d, cubic))
    if m is not None:
        for j in range(1, d):
            t = (m * j) % d
            if t != j:
                gens.append(Poly(d, {(j,): 1, (t,): -1}))
    return PolySystem(dim=dim, polys=tuple(gens), symmetry_multiplier=m)


def eval_system(system: PolySystem, point) -> list[float]:
    """Residual moduli |p(point)| of every generator, double precision."""
    pt = np.asarray(point, dtype=np.complex128)
    return [abs(p.evaluate(pt)) for p in system.polys]


# Known lexicographic basis of the permutation-symmetric component of the
# d=7 system (x1 = x2 = x4, x3 = x5 = x6); hard-coded verbatim.
_D7_BASIS = (
    *(Poly(7, {(j,): 1, (6,): 1, (0,): Fraction(1, 2), (): -1}) for j in (1, 2, 4)),
    *(Poly(7, {(j,): 1, (6,): -1}) for j in (3, 5)),
    Poly(7, {(6, 6): 1, (6, 0): Fraction(1, 2), (6,): -1, (0,): -1}),
    Poly(7, {(0, 0): 1, (0,): 4, (): -4}),
)


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


# ASCII digits only: \d and int() also accept the digits of other scripts
_VAR_RE = re.compile(r"x([0-9]+)")
_FACTOR_RE = re.compile(_VAR_RE.pattern + r"(?:\^([0-9]{1,4}))?|(-?[0-9]+)(?:/([0-9]+))?")


def parse_poly(line: str, d: int) -> Poly:
    """Parse one plain-format polynomial line back to exact rationals.

    Grammar, with tokens separated by whitespace and ASCII digits only:

        line   = ["-"]term {("+" | "-") term}
        term   = factor {"*" factor}
        factor = "x"index["^"exponent] | ["-"]integer["/"integer]

    Every index is below d, an exponent has at most four digits and a
    denominator is nonzero.  A malformed line raises ValueError naming the
    token that breaks the grammar.
    """
    tokens = line.split()
    if not tokens:
        raise ValueError("empty polynomial line")
    head = tokens[0]
    signs = ["-" if head.startswith("-") else "+", *tokens[1::2]]
    bodies = [head.removeprefix("-"), *tokens[2::2]]
    terms = {}
    for sign, body in zip_longest(signs, bodies):
        if sign not in ("+", "-"):
            raise ValueError(f"expected '+' or '-' between terms, got {sign!r}")
        if not body:
            raise ValueError(f"dangling sign {sign!r} with no term")
        coeff = Fraction(1 if sign == "+" else -1)
        indices = []
        for factor in body.split("*"):
            m = _FACTOR_RE.fullmatch(factor)
            if m is None:
                raise ValueError(
                    f"cannot parse factor {factor!r} of term {body!r}: expected "
                    "x<index>[^<exponent of at most 4 digits>] or <integer>[/<integer>]"
                )
            try:  # int() refuses more than sys.get_int_max_str_digits() digits
                var, exp, num, den = (None if g is None else int(g) for g in m.groups())
            except ValueError as exc:
                raise ValueError(f"factor {factor!r}: {exc}") from None
            if var is not None:
                if var >= d:
                    raise ValueError(f"variable {factor!r} out of range for d={d}")
                indices += [var] * (1 if exp is None else exp)
            elif den == 0:
                raise ValueError(f"coefficient {factor!r}: denominators must be nonzero")
            else:
                coeff *= Fraction(num, den or 1)
        key = tuple(sorted(indices, key=lambda v: v or d))
        terms[key] = terms.get(key, 0) + coeff
    return Poly(d, terms)


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
        seen = [int(m) for ln in lines for m in _VAR_RE.findall(ln)]
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
