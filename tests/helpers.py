"""Shared test helpers: published solution vectors, explicit-matrix oracles,
the two G(i,k) table oracles (direct quartic sum, direct clock-shift sum),
the SIC scan over every row of the tables, the Perron counts by
enumeration, by Python set counts and by one autocorrelation per prime,
Lemma 1's deviation read from one Legendre vector per branch,
one d = 7 ansatz vector in every form, the nearest clock-shift distance by
brute force over every shift, the
polynomial oracles (a double-precision evaluator, the published d = 7
component basis, the X-overlap cubic pairs by a scan over every index and a
reader of the exported text) and the byte oracles of the exported texts
(one formatted string per term or per cell).

The catalog vectors are hard-coded from their closed-form components so that
the package code is checked against independently constructed data.  No
package command reads an export back: the external computer-algebra engines
are its readers, so the text parser lives here as the export's oracle.
"""

import csv
import io
import json
import re
from fractions import Fraction
from itertools import groupby, zip_longest

import numpy as np

from flatsic import (
    CVec,
    Poly,
    PolySystem,
    build_ansatz,
    build_legendre_vector,
    cvec,
    legendre_symbol,
    lemma1_closed_form,
    make_dimension,
    to_normalized,
    to_rescaled,
    to_vform,
    z_shift,
)
from flatsic.weyl import _LOAD_TOL, autocorrelation, clock_shift_rows

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

#: A d = 7 unit vector whose component j = 6 is nonzero but has a squared
#: modulus that underflows to 0 (1e-340), so its X-overlap right-hand side
#: psi_6^2 / |psi_6|^2 is undefined in floating point.
UNDERFLOWING_D7 = cvec([6**-0.5] * 6 + [1e-170])

#: A d = 7 unit vector whose component j = 6 has a subnormal squared modulus
#: (1e-310), whose reciprocal overflows to inf.
SUBNORMAL_D7 = cvec([6**-0.5] * 6 + [1e-155])


def basis_vector(d: int, r: int) -> CVec:
    """Standard basis vector e_r of dimension d (index reduced mod d)."""
    return cvec(np.eye(d)[r % d])


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


def full_scan(unit: np.ndarray) -> tuple[float, float, float]:
    """(max | |<Psi|D_{j,k}|Psi>|^2 - 1/(d+1) | over (j,k) != (0,0),
    max |G(i,k) - (delta_{i,0}+delta_{k,0})/(d+1)|, and the first maximum
    taken over column k = 0 only) for a unit vector, read from every row of
    both tables at once: the scan that is_sic and gik_residual ran before
    they read only rows 0..floor(d/2)."""
    d = unit.shape[0]
    moduli_sq = np.abs(clock_shift_rows(unit, np.arange(d))) ** 2
    dev = np.abs(moduli_sq - 1.0 / (d + 1.0))
    dev[0, 0] = 0.0
    target = (np.eye(d)[0][:, None] + np.eye(d)[0][None, :]) / (d + 1.0)
    gik = np.abs(np.fft.ifft(moduli_sq) - target).max()
    return float(dev.max()), float(gik), float(dev[:, 0].max())


def lemma1_two_vector_route(p: int) -> float:
    """lemma1_deviation(p) as it was computed from two Legendre vectors:
    build_legendre_vector once per branch, both v-forms stacked into one
    autocorrelation, and the closed form taken per branch and residue class."""
    plus, minus = build_legendre_vector(p, +1), build_legendre_vector(p, -1)
    phases = np.stack([plus.ansatz.phases, minus.ansatz.phases])
    v = np.insert(phases, 0, plus.ansatz.sqrt_x0, axis=1)
    residue = np.array([legendre_symbol(j, p) == 1 for j in range(1, p)])
    lags = [2 * j % p for j in range(1, p)]
    closed = [
        np.where(residue, lemma1_closed_form(p, vec.x1, True), lemma1_closed_form(p, vec.x1, False))
        for vec in (plus, minus)
    ]
    return float(np.max(np.abs(autocorrelation(v)[:, lags] - closed)))


def cubic_pairs_by_scan(d: int, j: int) -> dict:
    """The terms of the X-overlap cubic P_j as build_system keys them, its
    pairs found by scanning every a = 0..d-1 for b = 2j - a mod d > a."""
    cubic = {}
    for a in range(d):
        b = (2 * j - a) % d
        if a < b:
            cubic[(a, b) if a else (b, 0)] = Fraction(2)
    cubic[j, j, 0] = Fraction(-1)
    return cubic


def perron_enumeration(p: int, a: int) -> list[int]:
    """The PerronCounts fields of shift a mod p, in order, by enumeration:
    Rest is 0 and the squares mod p, found by brute squaring, and each count
    classifies x + a over one class x."""
    x = np.arange(p, dtype=np.int64)
    rest = np.zeros(p, dtype=bool)
    rest[(x * x) % p] = True
    moved = rest[(x + a) % p]
    counts = [np.count_nonzero(c & m) for c in (rest, ~rest) for m in (moved, ~moved)]
    return [p, a % p, *map(int, counts)]


def perron_rows_by_sets(p: int) -> list[list[int]]:
    """perron_table(p) as nested lists, each count a size of a Python set:
    Rest is {x^2 mod p}, which holds 0, and Nichtrest the rest of Z_p."""
    rest = {x * x % p for x in range(p)}
    non = set(range(p)) - rest
    rows = []
    for a in range(1, p):
        from_rest = {(x + a) % p for x in rest}
        from_non = {(x + a) % p for x in non}
        rows.append(
            [p, a, len(from_rest & rest), len(from_rest & non), len(from_non & rest), len(from_non & non)]
        )
    return rows


def perron_table_by_autocorrelation(p: int) -> np.ndarray:
    """perron_table(p) from one weyl.autocorrelation of p's Rest indicator,
    its real part rounded, with the Nichtreste counts as class sizes minus
    Reste counts: the per-prime route the stacked sweep replaced."""
    rest = np.zeros(p, dtype=bool)
    rest[np.arange(p) ** 2 % p] = True
    counts = np.rint(autocorrelation(rest).real).astype(np.int64)
    n_rest, rr = counts[0], counts[1:]
    return np.column_stack(
        [np.full(p - 1, p), np.arange(1, p), rr, n_rest - rr, n_rest - rr, p - 2 * n_rest + rr]
    )


def small_first_component_pair() -> tuple[CVec, CVec]:
    """(a, b) at d = 11: a a random unit vector whose component 0 was 3e-12
    before normalizing, b = a plus noise of norm 1e-10, renormalized.  They
    match at tol = 1e-8 in either order, though component 0 is below 1e-12
    in a and above it in b."""
    rng = np.random.default_rng(0)
    a = random_complex(rng, 11)
    a[0] = 3e-12
    a /= np.linalg.norm(a)
    noise = random_complex(rng, 11)
    b = a + 1e-10 * noise / np.linalg.norm(noise)
    return cvec(a), cvec(b / np.linalg.norm(b))


def d7_forms() -> tuple[dict[str, CVec], CVec]:
    """One d = 7 ansatz vector by name in its normalized, v-form and
    rescaled forms and as Z^3 of the normalized form, every one a clock
    shift of the others up to phase; and the normalized vector whose first
    angle is 0.1 larger, which matches none of them."""
    angles = [0.4, 1.9, 3.1]
    av = build_ansatz(7, angles)
    unit = to_normalized(av)
    forms = {
        "normalized": unit,
        "v-form": to_vform(av),
        "rescaled": to_rescaled(av),
        "z3": z_shift(unit, 3),
    }
    return forms, to_normalized(build_ansatz(7, [angles[0] + 0.1, *angles[1:]]))

def nearest_clock_shift_distance(a: CVec, b: CVec) -> float:
    """min over k and unit c of |Z^k a - c b| for the normalized a and b, by
    brute force over every k with the optimal phase c = <b|Z^k a> / |.|
    (any c where that overlap is 0)."""
    ua, ub = (v / np.linalg.norm(v) for v in (_components(a), _components(b)))
    d = ua.shape[0]
    n = np.arange(d)
    best = np.inf
    for k in range(d):
        za = np.exp(2j * np.pi * ((k * n) % d) / d) * ua
        overlap = np.vdot(ub, za)
        phase = overlap / abs(overlap) if overlap else 1.0
        best = min(best, float(np.linalg.norm(za - phase * ub)))
    return best


def random_complex(rng, d: int) -> np.ndarray:
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def random_unit(rng, d: int) -> CVec:
    v = random_complex(rng, d)
    return cvec(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# byte oracles: the exported texts written one term or one cell at a time


def poly_line(p: Poly) -> str:
    """One generator line of export_system, formatted term by term."""
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


def _complex_cell(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def table_csv(entries: np.ndarray, corner: str, moduli_only: bool) -> str:
    """CSV rendering of a square table through csv.writer, one formatted
    string per cell: header row of column indices, then one row per row
    index with cells "re,im" (or moduli)."""
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


# ---------------------------------------------------------------------------
# polynomial oracles: evaluation in double precision, the published d = 7
# component basis, and the reader of the plain export format


def evaluate(p: Poly, point) -> complex:
    """p at a complex point of length p.d, term by term in double precision."""
    pt = np.asarray(point, dtype=np.complex128)
    if pt.shape != (p.d,):
        raise ValueError(f"expected a point of length {p.d}, got {pt.shape}")
    values = pt.tolist()
    total = 0j
    for mono, coeff in p.monomials.items():
        term = complex(coeff)
        for v in mono:
            term *= values[v]
        total += term
    return total


def eval_system(system: PolySystem, point) -> list[float]:
    """Residual moduli |p(point)| of every generator, double precision."""
    return [abs(evaluate(p, point)) for p in system.polys]


#: The published lexicographic basis of the permutation-symmetric component
#: of the d = 7 system (x1 = x2 = x4, x3 = x5 = x6), hard-coded verbatim.
D7_BASIS = (
    *(Poly(7, {(j,): 1, (6,): 1, (0,): Fraction(1, 2), (): -1}) for j in (1, 2, 4)),
    *(Poly(7, {(j,): 1, (6,): -1}) for j in (3, 5)),
    Poly(7, {(6, 6): 1, (6, 0): Fraction(1, 2), (6,): -1, (0,): -1}),
    Poly(7, {(0, 0): 1, (0,): 4, (): -4}),
)


def check_d7_component_basis(point) -> float:
    """Max residual modulus of the seven d = 7 component-basis polynomials at
    a rescaled point of length 7."""
    return max(abs(evaluate(p, point)) for p in D7_BASIS)


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
    return PolySystem(dim=make_dimension(d), polys=polys, symmetry_multiplier=None)
