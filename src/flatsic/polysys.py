"""Polynomial systems for the rescaled almost-flat vector, with exact
rational coefficients.

In the rescaled coordinates x_0..x_{d-1} the ansatz contributes the pair
relations x_j x_{d-j} + x_0 and the quadratic (x_0+2)^2 - (d+1); the
X-overlap equation becomes, after eliminating conjugates via
conj(x_r) = x_{d-r}, the moduli via |x_j|^2 = -x_0, and the surd via
sqrt(d+1) = -(x_0+2), the cubic generators

    P_j = sum_m x_m x_{2j-m mod d} - (x_0 + 1) x_j^2
        = 2 sum_{a<b, a+b = 2j mod d} x_a x_b - x_0 x_j^2,      j = 1..d-1,

written in that closed form straight into the system's term arrays: per
generator its term count, per term its length and the id of its
coefficient, every term's variable indices in one array, and one Fraction
per coefficient id, shared by every term that carries it.  A system is
those arrays; its Polys are built from them on first read.  A Poly is
canonical when it is built: its monomials are checked, zero terms are
dropped and every coefficient is stored as an exact Fraction.

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

from .weyl import Dim, _check_integer, _odd_dim, _x_lags, make_dimension

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
    order x_1 <= ... <= x_{d-1} <= x_0: x_0 x_j^2 is (j, j, 0) and the
    constant monomial is ().  Any other monomial raises ValueError."""

    d: int
    monomials: dict[tuple[int, ...], Fraction] = field(hash=False)

    def __post_init__(self) -> None:
        # the one place a polynomial is made canonical; Fractions are shared
        d, clean = self.d, {}
        for mono, c in self.monomials.items():
            ranks = [v or d for v in mono if type(v) is int and 0 <= v < d]  # x0 ranks last
            if len(ranks) < len(mono) or ranks != sorted(ranks):
                raise ValueError(
                    f"monomial {mono!r} is not ints in 0..{d - 1} in the variable order "
                    f"x1 <= ... <= x{d - 1} <= x0"
                )
            if c:
                clean[mono] = c if type(c) is Fraction else Fraction(c)
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
    """Build a Poly from dense exponent tuples of length d; d is read as
    make_dimension reads a dimension, each exponent as an integer."""
    d = make_dimension(d).d
    order = _var_order(d)
    monomials = {}
    for exps, coeff in terms.items():
        exps = tuple(_check_integer(e, "exponent") for e in exps)
        if len(exps) != d or min(exps, default=0) < 0:
            raise ValueError(f"exponent vector {exps} is not {d} nonnegative integers")
        monomials[tuple(v for v in order for _ in range(exps[v]))] = coeff
    return Poly(d, monomials)


@dataclass(frozen=True)
class PolySystem:
    """A generator list over Q[x_0..x_{d-1}], optionally with a permutation
    symmetry multiplier m (adding x_j - x_{mj mod d}).

    A system is its term arrays: per generator its term count, per term its
    length and coefficient id, every term's variable indices (x_0 last) in
    one array, and one Fraction per coefficient id.  build_system writes
    only the arrays, and polys is built from them on first read; a system
    made from Polys is flattened into the arrays on its first export."""

    dim: Dim
    polys: tuple[Poly, ...]
    symmetry_multiplier: int | None = None

    def __getattr__(self, name: str):
        # reached only while polys is unset, on a system build_system wrote
        if name != "polys" or "_terms" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__["polys"] = polys = _polys(self.dim.d, *self._terms)
        return polys


def _polys(d: int, counts, lens, flat, coef_row, coeffs) -> tuple[Poly, ...]:
    """The Polys of a system's term arrays, each term in its array order."""
    indices, ends = flat.tolist(), np.cumsum(lens).tolist()
    monos = [tuple(indices[end - n : end]) for end, n in zip(ends, lens.tolist())]
    values = [coeffs[c] for c in coef_row.tolist()]
    stops = np.cumsum(counts).tolist()
    return tuple(Poly(d, dict(zip(monos[a:b], values[a:b]))) for a, b in zip([0, *stops], stops))


def _term_arrays(system: PolySystem):
    """counts, lens, flat, coef_row and coeffs of a system; a system made
    from Polys is flattened once, on first use."""
    terms = system.__dict__.get("_terms")
    if terms is None:
        maps = [p.monomials for p in system.polys]
        coeffs = list(chain.from_iterable(m.values() for m in maps))
        first_use, coef_row = np.unique(
            np.fromiter(map(id, coeffs), np.intp, len(coeffs)), return_index=True, return_inverse=True
        )[1:]
        lens = np.fromiter(map(len, chain.from_iterable(maps)), np.intp, len(coeffs))
        terms = system.__dict__["_terms"] = (
            np.fromiter(map(len, maps), np.intp, len(maps)),
            lens,
            np.fromiter(chain.from_iterable(chain.from_iterable(maps)), np.intp, int(lens.sum())),
            coef_row,
            [coeffs[i] for i in first_use.tolist()],
        )
    return terms


def build_system(dim: Dim | int, symmetry_multiplier: int | None = None) -> PolySystem:
    """Generators: pair relations, the x_0 quadratic, the X-overlap cubics,
    and optional symmetry constraints x_j - x_{mj}.

    The cubic P_j takes its lag 2j mod d from weyl._x_lags.  Its pairs
    a < b with a + b = 2j mod d have a + b equal to that lag or to the lag
    plus d, so both runs of a are enumerated directly, (d-1)/2 pairs per
    cubic.  Requires odd d; a symmetry multiplier must be coprime to d.
    The system is written as its term arrays, generator by generator.
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
    h, js, lags = (d - 1) // 2, np.arange(1, d), _x_lags(d)[:, None]
    # P_j = 2 sum_{a<b, a+b = 2j} x_a x_b - x_0 x_j^2: pairs k = 0..n have
    # a + b = lag (a = k, b = lag - k), the rest a + b = lag + d
    # (a = lag + k - n, b = d - k + n); pair 0 is stored (lag, 0), x_0 last
    k, n = np.arange(h), (lags + 1) // 2 - 1
    low = k <= n
    pairs = np.stack([np.where(low, k, lags + k - n), np.where(low, lags - k, d - k + n)], 2)
    pairs[:, 0] = pairs[:, 0, ::-1]
    sym = np.stack([js, js * (m or 1) % d], 1)  # m = 1 (or none) adds no constraint
    # per group of generators: the indices of each, its term lengths and
    # coefficient ids into (1, -1, 2, 4, 3 - d); the constant 3 - d is 0 at d = 3
    q = 2 + (d > 3)
    groups = [
        (np.stack([js[:h], d - js[:h], 0 * js[:h]], 1), [2, 1], [0, 0]),
        (np.zeros((1, 3), np.intp), [2, 1, 0][:q], [0, 3, 4][:q]),
        (np.concatenate([pairs.reshape(d - 1, 2 * h), js[:, None], js[:, None], 0 * lags], 1),
         [2] * h + [3], [2] * h + [1]),
        (sym[sym[:, 0] != sym[:, 1]], [1, 1], [0, 1]),
    ]
    terms = (
        np.concatenate([np.full(len(idx), len(ln)) for idx, ln, _ in groups]),
        np.concatenate([np.tile(ln, len(idx)) for idx, ln, _ in groups]),
        np.concatenate([idx.ravel() for idx, _, _ in groups]),
        np.concatenate([np.tile(ids, len(idx)) for idx, _, ids in groups]),
        [Fraction(1), Fraction(-1), Fraction(2), Fraction(4), Fraction(3 - d)],
    )
    system = object.__new__(PolySystem)
    system.__dict__.update(dim=dim, symmetry_multiplier=m, _terms=terms)
    return system


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

    The whole system is one array program over its term arrays: the
    terms of each degree are ordered by one stable sort of byte-comparable
    keys (generator, then the indices with x0 ranked as d) and a stable
    sort by generator merges the degrees, and the text is one join of
    precomputed pieces: the names x<v> with and without a leading "*", the
    powers ^r, the line ends, and four prefixes per distinct coefficient
    (in-line or first, with factors or constant), each formatted once.
    Memory follows the size of the system and of its text.  A coefficient
    whose integers exceed the interpreter's digit limit for integer text
    raises ValueError naming its generator and term.
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
    d = system.dim.d
    counts, lens, flat, coef_row, distinct = _term_arrays(system)
    gen = np.repeat(np.arange(len(counts)), counts)
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
        "num_generators": len(_term_arrays(system)[0]),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
