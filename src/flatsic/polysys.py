"""Polynomial systems for the rescaled almost-flat vector, with exact
rational coefficients.

In the rescaled coordinates x_0..x_{d-1} the ansatz contributes the pair
relations x_j x_{d-j} + x_0 and the quadratic (x_0+2)^2 - (d+1); the
X-overlap equation becomes, after eliminating conjugates via
conj(x_r) = x_{d-r}, the moduli via |x_j|^2 = -x_0, and the surd via
sqrt(d+1) = -(x_0+2), the cubic generators

    P_j = sum_m x_m x_{2j-m mod d} - (x_0 + 1) x_j^2
        = 2 sum_{a<b, a+b = 2j mod d} x_a x_b - x_0 x_j^2,      j = 1..d-1,

built in that closed form, each coefficient value one Fraction shared by
every term that carries it.  A Poly is canonical when it is built: zero
terms are dropped and every coefficient is stored as an exact Fraction.

The polynomialization is a derived identity, so build_system output is
validated by evaluating the generators at known solution vectors before any
export is trusted (the tests do exactly that).

Gröbner bases themselves are out of scope: systems are exported for external
computer-algebra engines, which are the readers of the text; no command reads
an export back.  export_system writes the whole system as one array
program, one sort per degree for the term order and one join of
precomputed pieces for the text, byte for byte the same for the same
system.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

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
    # one Fraction per value, shared by every term that carries it
    one, minus_one, two = Fraction(1), Fraction(-1), Fraction(2)
    gens = [Poly(d, {(j, d - j): one, (0,): one}) for j in range(1, (d - 1) // 2 + 1)]
    gens.append(Poly(d, {(0, 0): one, (0,): Fraction(4), (): Fraction(3 - d)}))
    for j, lag in enumerate(_x_lags(d).tolist(), start=1):
        # P_j = 2 sum_{a<b, a+b = 2j} x_a x_b - x_0 x_j^2: a + b is the lag
        # 2j mod d (0 < a < lag/2, b = lag - a) or that lag plus d
        # (lag < a < (lag+d)/2, b = lag + d - a); the pair (0, lag) is keyed
        # with x_0 last
        pairs = chain(
            [(lag, 0)],
            zip(range(1, (lag + 1) // 2), range(lag - 1, 0, -1)),
            zip(range(lag + 1, (lag + d + 1) // 2), range(d - 1, 0, -1)),
        )
        cubic = dict.fromkeys(pairs, two)
        cubic[j, j, 0] = minus_one
        gens.append(Poly(d, cubic))
    if m is not None:
        for j in range(1, d):
            t = (m * j) % d
            if t != j:
                gens.append(Poly(d, {(j,): one, (t,): minus_one}))
    return PolySystem(dim=dim, polys=tuple(gens), symmetry_multiplier=m)


# ---------------------------------------------------------------------------
# plain-text export
#
# Term order: graded lexicographic with variable order x1 > x2 > ... > x0
# (x_0 last, mirroring the lexicographic order used for the published d=7
# basis).  Within a monomial the factors print in their stored order, which
# is that same variable order.  On index tuples this is: higher degree
# first, then ascending index tuple with x_0 ranked as d, since within one
# degree a smaller sorted index tuple is a larger exponent vector.

def _var_order(d: int) -> list[int]:
    return list(range(1, d)) + [0]


def export_system(system: PolySystem, format: str = "plain") -> str:
    """Render a system as text.

    "plain" is one polynomial per line in the deterministic term order;
    "cas-script" wraps the same lines in a generic ring declaration and a
    lexicographic Gröbner basis request.  Output is byte-stable.

    The whole system is one array program: its monomials are flattened
    into integer arrays once, the terms of each degree are ordered by one
    stable sort of byte-comparable keys (generator, then the indices with
    x0 ranked as d) and a stable sort by generator merges the degrees, and
    the text is one join of precomputed pieces: the names x<v> with and
    without a leading "*", the powers ^r, the line ends, and four prefixes
    per distinct coefficient object (in-line or first, with factors or
    constant), each formatted once.  Memory follows the size of the
    system and of its text.  A
    coefficient whose integers exceed the interpreter's digit limit for
    integer text raises ValueError naming its generator and term; a
    variable index outside 0..d-1 raises ValueError naming its generator.
    """
    if format not in ("plain", "cas-script"):
        raise ValueError(f"unknown export format {format!r}")
    lines = _generator_lines(system)
    if format == "plain":
        return lines or "\n"  # no generators: one empty line
    variables = ", ".join(f"x{v}" for v in _var_order(system.dim.d))
    out = [
        "# polynomial system over the rationals",
        f"# variables in lexicographic order: {variables}",
        f"ring Q[{variables}]",
        "ideal:",
    ]
    out += ["  " + ln for ln in lines.splitlines()]
    out += ["task: groebner_basis", "order: lexicographic"]
    return "\n".join(out) + "\n"


def _generator_lines(system: PolySystem) -> str:
    """Every generator's line, each ending in a newline."""
    d, maps = system.dim.d, [p.monomials for p in system.polys]
    coeffs = list(chain.from_iterable(m.values() for m in maps))
    first_use, coef_row = np.unique(
        np.fromiter(map(id, coeffs), np.intp, len(coeffs)), return_index=True, return_inverse=True
    )[1:]
    distinct = [coeffs[i] for i in first_use.tolist()]
    counts = np.fromiter(map(len, maps), np.intp, len(maps))
    lens = np.fromiter(map(len, chain.from_iterable(maps)), np.intp, len(coeffs))
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(maps)), np.intp, int(lens.sum()))
    gen = np.repeat(np.arange(len(maps)), counts)
    if flat.size and not 0 <= flat.min() <= flat.max() < d:
        e = int(np.flatnonzero((flat < 0) | (flat >= d))[0])
        g = gen[np.searchsorted(np.cumsum(lens), e, side="right")]
        raise ValueError(f"generator {g}: variable index {flat[e]} is not in 0..{d - 1}")
    gen, lens, flat, coef_row = _term_order(d, gen, lens, flat, coef_row)

    # pieces of text: x<v>, *x<v>, the empty piece, the two line ends,
    # ^2..^degree, then four prefixes per distinct coefficient object
    texts = [f"x{v}" for v in range(d)] + [f"*x{v}" for v in range(d)] + ["", "\n", "0\n"]
    texts += [f"^{r}" for r in range(2, int(lens.max(initial=0)) + 1)]
    ids = _piece_rows(d, len(texts), counts, lens, gen, flat, coef_row)
    unwritable = []
    for u, c in enumerate(distinct):
        num, den = c.numerator, c.denominator
        try:
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        except ValueError:  # str() refuses an int longer than sys.get_int_max_str_digits()
            unwritable.append(u)
            continue
        factor = "" if mag == "1" else mag + "*"
        sign, sep = ("", " + ") if num > 0 else ("-", " - ")
        texts += [sep + factor, sep + mag, sign + factor, sign + mag]
    if unwritable:
        t = int(np.isin(coef_row, unwritable).argmax())  # the first such term written
        head = int(lens[:t].sum()) + t + int(gen[t])
        factors = "".join(texts[k] for k in ids[head + 1 : head + 1 + lens[t]])
        raise ValueError(
            f"generator {gen[t]}, term {factors or 'constant'}: the coefficient has more "
            f"than {sys.get_int_max_str_digits()} digits, the interpreter's limit for integer text"
        )
    return "".join(np.array(texts, object).take(ids).tolist())


def _term_order(d: int, gen, lens, flat, coef_row):
    """gen, lens, flat and coef_row with the terms in output order.

    The terms of each degree are ordered by one stable sort of one row per
    term: generator, then the indices with x0 ranked as d, in big-endian
    unsigned columns, whose bytes compare as the integers they hold.  Every
    row is as long as its own term, so the keys take memory in proportion
    to the system.  The degrees are taken from the highest down and a
    stable sort by generator makes the order generator, degree, indices."""
    offset = np.concatenate(([0], np.cumsum(lens)))
    ranked = np.where(flat == 0, d, flat)
    column = np.dtype(np.min_scalar_type(max(gen.max(initial=0), d))).newbyteorder(">")
    order = [np.empty(0, np.intp)]
    for degree in np.flatnonzero(np.bincount(lens))[::-1].tolist():
        terms = np.flatnonzero(lens == degree)
        key = np.empty((terms.size, degree + 1), column)
        key[:, 0] = gen[terms]
        key[:, 1:] = ranked[offset[terms, None] + np.arange(degree)]
        order.append(terms[key.view(f"V{key.itemsize * (degree + 1)}").ravel().argsort(kind="stable")])
    order = np.concatenate(order)
    order = order[gen[order].argsort(kind="stable")]
    lens = lens[order]
    moved = np.repeat(offset[order] - (np.cumsum(lens) - lens), lens)  # old entry minus new
    return gen[order], lens, flat[moved + np.arange(flat.size)], coef_row[order]


def _piece_rows(d: int, base: int, counts, lens, gen, flat, coef_row):
    """The index of every piece of the text, in output order: per term its
    coefficient prefix, then one piece per index entry; per generator its
    line end.

    A coefficient's four prefixes start at index base + 4 * coef_row:
    in-line or leading its line, each with factors or constant.  An entry
    that begins a run of one index holds the name ("*x<v>", or "x<v>" first
    in its term), the last entry of a run of r > 1 holds "^r", and any other
    entry holds the empty piece."""
    offset = np.concatenate(([0], np.cumsum(lens)))  # each term's first entry
    first = np.zeros(flat.size + 1, bool)
    first[offset] = True
    rows = flat + d
    rows[first[:-1]] -= d
    again = np.flatnonzero((flat[1:] == flat[:-1]) & ~first[1:-1]) + 1  # repeats the entry before
    last = np.flatnonzero(np.diff(again, append=flat.size + 1) != 1)  # each power's last entry
    rows[again] = 2 * d
    rows[again[last]] = 2 * d + 2 + np.diff(last, prepend=-1)
    upto = np.cumsum(counts)
    head = offset[:-1] + np.arange(len(lens)) + gen
    line_end = offset[upto] + upto + np.arange(len(counts))
    ids = np.empty(flat.size + len(lens) + len(counts), np.intp)
    entry = np.ones(ids.size, bool)
    entry[head] = entry[line_end] = False
    ids[entry] = rows
    ids[line_end] = 2 * d + 1 + (counts == 0)
    lead = np.ones(len(lens), bool)
    lead[1:] = gen[1:] != gen[:-1]
    ids[head] = base + 4 * coef_row + 2 * lead + (lens == 0)
    return ids


def system_manifest(system: PolySystem, text: str) -> dict:
    """Manifest accompanying an export: dimension, multiplier, generator
    count, and the SHA-256 of the exported text."""
    return {
        "d": system.dim.d,
        "symmetry_multiplier": system.symmetry_multiplier,
        "num_generators": len(system.polys),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
