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
computer-algebra engines, which are the readers of the text; no command reads
an export back.  export_system writes the text in one pass over the
generators, byte for byte the same for the same system.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .weyl import Dim, _check_integer, _odd_dim, _x_lags

__all__ = [
    "Poly",
    "PolySystem",
    "poly",
    "build_system",
    "export_system",
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

    The cubic P_j takes its lag 2j mod d from weyl._x_lags.  Its pairs
    a < b with a + b = 2j mod d have a + b equal to that lag or to the lag
    plus d, so both runs of a are enumerated directly, (d-1)/2 pairs per
    cubic.  Requires odd d; a symmetry multiplier must be coprime to d.
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
    for j, lag in enumerate(_x_lags(d).tolist(), start=1):
        # P_j = 2 sum_{a<b, a+b = 2j} x_a x_b - x_0 x_j^2: a + b is the lag
        # 2j mod d (a < lag/2) or that lag plus d (lag < a < (lag+d)/2), so
        # b = lag - a mod d; the pair (0, lag) is keyed with x_0 last
        runs = chain(range((lag + 1) // 2), range(lag + 1, (lag + d + 1) // 2))
        cubic = {(a, (lag - a) % d) if a else (lag, 0): two for a in runs}
        cubic[j, j, 0] = minus_one
        gens.append(Poly(d, cubic))
    if m is not None:
        for j in range(1, d):
            t = (m * j) % d
            if t != j:
                gens.append(Poly(d, {(j,): 1, (t,): -1}))
    return PolySystem(dim=dim, polys=tuple(gens), symmetry_multiplier=m)


# ---------------------------------------------------------------------------
# plain-text export
#
# Term order: graded lexicographic with variable order x1 > x2 > ... > x0
# (x_0 last, mirroring the lexicographic order used for the published d=7
# basis).  Within a monomial the factors print in that same variable order.
# On index tuples this is: higher degree first, then ascending index tuple
# with x_0 ranked as d, since within one degree a smaller sorted index tuple
# is a larger exponent vector.

def _var_order(d: int) -> list[int]:
    return list(range(1, d)) + [0]


class _VarNames(dict):
    """The text "x<v>" of each variable index v, formatted on first use."""

    def __missing__(self, v: int) -> str:
        self[v] = name = f"x{v}"
        return name


def export_system(system: PolySystem, format: str = "plain") -> str:
    """Render a system as text.

    "plain" is one polynomial per line in the deterministic term order;
    "cas-script" wraps the same lines in a generic ring declaration and a
    lexicographic Gröbner basis request.  Output is byte-stable.  One loop
    formats every generator: the variable names are made once per call and
    each term's index runs are counted as it is written.  A coefficient
    whose integers exceed the interpreter's digit limit for integer text
    raises ValueError naming its generator and term.
    """
    names, lines = _VarNames(), []
    for g, p in enumerate(system.polys):
        d, parts = p.d, []
        # x_0 ranks last, so only a monomial that holds it needs a remapped key
        for mono, coeff in sorted(
            p.monomials.items(),
            key=lambda item: (-len(m := item[0]), tuple([v or d for v in m]) if 0 in m else m),
        ):
            factors, prev, run = [], None, 0
            for v in mono:  # a run of one index is written as a power
                if v != prev:
                    if run:
                        factors.append(f"{names[prev]}^{run}" if run > 1 else names[prev])
                    prev, run = v, 0
                run += 1
            if run:
                factors.append(f"{names[prev]}^{run}" if run > 1 else names[prev])
            num, den = coeff.numerator, coeff.denominator
            try:
                mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            except ValueError:  # str() refuses an int longer than sys.get_int_max_str_digits()
                raise ValueError(
                    f"generator {g}, term {'*'.join(factors) or 'constant'}: the coefficient "
                    f"has more than {sys.get_int_max_str_digits()} digits, the interpreter's "
                    "limit for integer text"
                ) from None
            if mag != "1" or not factors:
                factors.insert(0, mag)
            parts.append(("+ " if num > 0 else "- ") + "*".join(factors))
        if parts:  # the leading term carries only a minus sign
            parts[0] = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        lines.append(" ".join(parts) or "0")
    if format == "plain":
        return "\n".join(lines) + "\n"
    if format == "cas-script":
        variables = ", ".join(f"x{v}" for v in _var_order(system.dim.d))
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


def system_manifest(system: PolySystem, text: str) -> dict:
    """Manifest accompanying an export: dimension, multiplier, generator
    count, and the SHA-256 of the exported text."""
    return {
        "d": system.dim.d,
        "symmetry_multiplier": system.symmetry_multiplier,
        "num_generators": len(system.polys),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
