"""Acceptance criteria, one test per criterion, with pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report including runtimes.
"""

import time

import numpy as np
from helpers import (
    d7_solution,
    d19_solution,
    gik_fourier,
    gik_quartic,
    normalize_rescaled,
    random_complex,
    rescaled_cvec,
)

from flatsic import (
    SearchConfig,
    build_ansatz,
    build_legendre_vector,
    build_system,
    canonical_match,
    check_d7_component_basis,
    displacement_row_identity,
    eval_system,
    export_system,
    is_sic,
    legendre_symbol,
    lemma1_closed_form,
    make_dimension,
    minimize,
    parse_system,
    perron_counts,
    primes_3mod4,
    to_normalized,
    to_vform,
    x_overlap_residual,
    z_shift,
)


class _Criterion:
    def __init__(self, name: str, limit_s: float):
        self.name = name
        self.limit = limit_s
        self.start = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s, limit {self.limit:g}s)")
        assert ok, f"{self.name} assertions failed"
        assert elapsed < self.limit, f"{self.name} exceeded {self.limit:g}s ({elapsed:.2f}s)"


def test_criterion_1_d7_reproduction():
    crit = _Criterion("1 d=7 reproduction", 1.0)
    ok = True
    solutions = [d7_solution(-1), d7_solution(+1)]
    for x in solutions:
        psi = normalize_rescaled(x)
        report = is_sic(psi)
        ok &= report.is_sic and report.max_modulus_deviation < 1e-10
        ok &= x_overlap_residual(psi) < 1e-10
        ok &= check_d7_component_basis(x) < 1e-10
    # the twelve clock-shifted solutions solve the X-overlap equation but
    # leave the symmetric component
    for x in solutions:
        vec = rescaled_cvec(x)
        for k in range(1, 7):
            shifted = z_shift(vec, k)
            ok &= x_overlap_residual(shifted) < 1e-10
            ok &= check_d7_component_basis(shifted.components) > 0.01
    crit.finish(ok)


def test_criterion_2_d19_reproduction():
    crit = _Criterion("2 d=19 reproduction", 1.0)
    ok = True
    x = d19_solution(+1)
    # order-9 permutation symmetry of the pattern
    for j in range(1, 19):
        ok &= x[(4 * j) % 19] == x[j]
    psi = normalize_rescaled(x)
    report = is_sic(psi)
    ok &= report.is_sic and report.max_modulus_deviation < 1e-10
    built = to_normalized(build_legendre_vector(19, +1).ansatz)
    ok &= canonical_match(psi, built, tol=1e-8)
    crit.finish(ok)


def test_criterion_3_d67_refutation():
    crit = _Criterion("3 d=67 refutation", 5.0)
    ok = True
    for sign in (+1, -1):
        psi = to_normalized(build_legendre_vector(67, sign).ansatz)
        ok &= x_overlap_residual(psi) < 1e-9
        ok &= is_sic(psi).max_modulus_deviation > 0.01
    crit.finish(ok)


def test_criterion_4_proposition2_sweep():
    crit = _Criterion("4 Proposition-2 sweep p<=500", 120.0)
    ok = True
    for p in primes_3mod4(500):
        dim = make_dimension(p)
        for sign in (+1, -1):
            vec = build_legendre_vector(dim, sign)
            ok &= x_overlap_residual(to_normalized(vec.ansatz)) < 1e-8
            w = to_vform(vec.ansatz).components
            for j in range(1, p):
                direct = complex(np.vdot(w, np.roll(w, (-2 * j) % p)))
                closed = lemma1_closed_form(dim, vec.x1, legendre_symbol(j, p) == 1)
                ok &= abs(direct - closed) < 1e-9
        expected = ((p + 1) // 4, (p + 1) // 4, (p + 1) // 4, (p - 3) // 4)
        for a in range(1, p):
            c = perron_counts(p, a)
            ok &= (
                c.reste_from_reste,
                c.nichtreste_from_reste,
                c.reste_from_nichtreste,
                c.nichtreste_from_nichtreste,
            ) == expected
        if not ok:
            break
    crit.finish(ok)


def test_criterion_5_identity_suite():
    crit = _Criterion("5 identity suite", 30.0)
    ok = True
    for d in (3, 5, 7, 9, 19):
        rng = np.random.default_rng(1000 + d)
        for _ in range(100):
            psi = random_complex(rng, d)
            for j in range(1, d):
                ok &= displacement_row_identity(psi, j).deviation < 1e-12
            # every (i, k) entry
            ok &= np.abs(gik_quartic(psi) - gik_fourier(psi)).max() < 1e-12
        if not ok:
            break
    # clock-shift closure of the X-overlap equation on the d=7 fiducial
    psi7 = normalize_rescaled(d7_solution(-1))
    for k in range(7):
        ok &= x_overlap_residual(z_shift(psi7, k)) < 1e-11
    crit.finish(ok)


def test_criterion_6_search_reproduction():
    crit = _Criterion("6 search reproduction", 120.0)
    ok = True
    best7, _ = minimize(
        SearchConfig(dim=make_dimension(7), objective="xoverlap", seed=42, restarts=200)
    )
    ok &= best7.objective_value < 1e-16
    found7 = to_normalized(build_ansatz(7, best7.angles))
    targets7 = [normalize_rescaled(d7_solution(c)) for c in (-1, +1)]
    ok &= any(canonical_match(found7, t, tol=1e-6) for t in targets7)

    best11, _ = minimize(
        SearchConfig(dim=make_dimension(11), objective="xoverlap", seed=42, restarts=200)
    )
    ok &= best11.objective_value < 1e-16
    found11 = to_normalized(build_ansatz(11, best11.angles))
    targets11 = [
        to_normalized(build_legendre_vector(11, s).ansatz) for s in (+1, -1)
    ]
    ok &= any(canonical_match(found11, t, tol=1e-6) for t in targets11)
    crit.finish(ok)


def test_criterion_7_export_fidelity():
    crit = _Criterion("7 polynomial export fidelity", 1.0)
    ok = True
    system = build_system(7)
    lines = export_system(system).splitlines()
    ok &= sorted(l for l in lines if " + x0" in l and l.startswith("x")) == [
        "x1*x6 + x0",
        "x2*x5 + x0",
        "x3*x4 + x0",
    ]
    ok &= "x0^2 + 4*x0 - 4" in lines
    ok &= len(lines) == 10
    cubics = [p for p in system.polys if any(sum(e) == 3 for e in p.terms)]
    ok &= len(cubics) == 6
    for coeff in (-1, +1):
        point = d7_solution(coeff)
        ok &= all(abs(p.evaluate(point)) < 1e-10 for p in cubics)
        ok &= max(eval_system(system, point)) < 1e-10
    back = parse_system(export_system(system))
    ok &= list(back.polys) == list(system.polys)
    crit.finish(ok)
