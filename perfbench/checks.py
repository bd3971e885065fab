"""Output checks for every operation the benchmark issues.

Each check takes the operation's exit code and captured `--porcelain` stdout,
reads any files it wrote, and compares them with `reference` (numpy only) or
with facts stated in the paper.  It returns an `Outcome`; an operation whose
outcome lists any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

#: Residual below which a converged restart counts as a solution; the search
#: threshold 1e-16 on a sum of squares bounds each residual near 1e-8.
SOLUTION_TOL = 1e-6
#: Agreement required between a reported residual and its reference value.
VALUE_TOL = 1e-9
#: Convergence threshold the benchmark passes to every search.
SEARCH_THRESHOLD = 1e-16


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    #: checked results delivered: converged, verified restarts for a search,
    #: 1 for any other operation whose output passed
    solutions: int = 0
    restarts: int = 0
    converged: int = 0
    iterations: int = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def porcelain(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _num(kv: dict[str, str], key: str) -> float:
    try:
        return float(kv[key])
    except (KeyError, ValueError):
        return math.nan


def _close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _finish(outcome: Outcome) -> Outcome:
    if not outcome.problems and outcome.restarts == 0:
        outcome.solutions = 1
    return outcome


def check_verify(psi: np.ndarray, expect: str, rc: int, stdout: str) -> Outcome:
    """expect: "sic" (Legendre at d = 7, 19), "spurious" (Legendre at
    d = 43, 59: X-overlap holds, SIC fails) or "random" (no symmetry)."""
    o = Outcome()
    kv = porcelain(stdout)
    d = psi.shape[0]
    o.expect(kv.get("d") == str(d), f"d={kv.get('d')} != {d}")
    sic_ref = reference.sic_residual(psi)
    o.expect(
        _close(_num(kv, "sic_residual"), sic_ref),
        f"sic_residual {kv.get('sic_residual')} != {sic_ref:.15g}",
    )
    z_tol = _num(kv, "tolerance")
    o.expect(_num(kv, "z_overlap_residual") <= z_tol, "z_overlap_residual above tolerance")
    if expect == "sic":
        o.expect(rc == 0, f"exit {rc} != 0")
        o.expect(kv.get("sic_verdict") == "pass", "sic_verdict is not pass")
        o.expect(kv.get("x_overlap_verdict") == "pass", "x_overlap_verdict is not pass")
    elif expect == "spurious":
        o.expect(rc == 1, f"exit {rc} != 1")
        o.expect(kv.get("x_overlap_verdict") == "pass", "x_overlap_verdict is not pass")
        o.expect(kv.get("sic_verdict") == "fail", "sic_verdict is not fail")
        o.expect(_num(kv, "sic_residual") >= 0.01, "sic_residual below 0.01")
    elif expect == "random":
        o.expect(rc == 1, f"exit {rc} != 1")
        x_ref = reference.x_overlap_residual(psi)
        o.expect(
            _close(_num(kv, "x_overlap_residual"), x_ref),
            "x_overlap_residual differs from reference",
        )
        o.expect(kv.get("x_overlap_verdict") == "fail", "x_overlap_verdict is not fail")
        o.expect(kv.get("sic_verdict") == "fail", "sic_verdict is not fail")
    else:
        raise ValueError(f"unknown expectation {expect!r}")
    return _finish(o)


def _read_complex_csv(path: Path, d: int) -> np.ndarray:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != d + 1 or any(len(r) != d + 1 for r in rows):
        raise ValueError(f"expected a {d + 1} x {d + 1} CSV")
    table = np.empty((d, d), dtype=complex)
    for j, row in enumerate(rows[1:]):
        if row[0] != str(j):
            raise ValueError(f"row {j} labelled {row[0]!r}")
        for k, cell in enumerate(row[1:]):
            re_part, im_part = cell.split(",")
            table[j, k] = complex(float(re_part), float(im_part))
    return table


def check_gik(psi: np.ndarray, table: str, csv_path: Path, rc: int, stdout: str) -> Outcome:
    """`gik FILE --csv OUT --table {overlap,gik}`: the residual and every
    exported cell against the reference table."""
    o = Outcome()
    kv = porcelain(stdout)
    d = psi.shape[0]
    o.expect(rc == 0, f"exit {rc} != 0")
    g_ref = reference.gik_table(psi)
    target = (np.eye(d)[0][:, None] + np.eye(d)[0][None, :]) / (d + 1.0)
    g_res = float(np.max(np.abs(g_ref - target)))
    o.expect(_close(_num(kv, "gik_residual"), g_res), "gik_residual differs from reference")
    try:
        cells = _read_complex_csv(csv_path, d)
    except (OSError, ValueError) as exc:
        o.problems.append(f"unreadable CSV: {exc}")
        return o
    if table == "overlap":
        err = np.max(np.abs(np.abs(cells) ** 2 - reference.overlap_moduli(psi)))
    else:
        err = np.max(np.abs(cells - g_ref))
    o.expect(err <= VALUE_TOL, f"{table} CSV deviates by {err:.3g}")
    return _finish(o)


_SEARCH_RESIDUALS = {
    "xoverlap": reference.x_overlap_residual,
    "sic": reference.sic_residual,
    "naive_x": reference.naive_x_residual,
}


def check_search(
    d: int, objective: str, seed: int, restarts: int, match_legendre: bool,
    out_path: Path, rc: int, stdout: str,
) -> Outcome:
    """Every converged restart must satisfy the condition its objective
    encodes; with match_legendre a converged best restart must be a Legendre
    vector up to clock shift and global phase (`check_search_group` makes
    sure that some restart converged)."""
    o = Outcome()
    kv = porcelain(stdout)
    o.expect(rc == 0, f"exit {rc} != 0")
    try:
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        config, results = payload["config"], payload["results"]
    except (OSError, ValueError, KeyError) as exc:
        o.problems.append(f"unreadable search output: {exc}")
        return o
    echo = (config.get("d"), config.get("objective"), config.get("seed"), config.get("restarts"))
    o.expect(echo == (d, objective, seed, restarts), f"config echo {echo}")
    o.expect(len(results) == restarts, f"{len(results)} results for {restarts} restarts")
    if not results:
        return o
    values = [r["objective_value"] for r in results]
    o.expect(values == sorted(values), "results are not sorted by objective")
    residual = _SEARCH_RESIDUALS[objective]
    solutions = 0
    for r in results:
        converged_flag = r["objective_value"] < SEARCH_THRESHOLD
        o.expect(r["converged"] == converged_flag, f"restart {r['restart_index']} converged flag")
        if r["converged"]:
            res = residual(reference.ansatz_vector(d, r["angles"]))
            if res <= SOLUTION_TOL:
                solutions += 1
            else:
                o.problems.append(f"restart {r['restart_index']} converged with residual {res:.3g}")
    converged = sum(1 for r in results if r["converged"])
    o.expect(kv.get("num_converged") == str(converged), "num_converged differs from the file")
    best = results[0]
    o.expect(
        _close(_num(kv, "best_objective"), best["objective_value"], 1e-12),
        "best_objective differs from the output file",
    )
    if match_legendre and best["converged"]:
        psi = reference.ansatz_vector(d, best["angles"])
        targets = [reference.legendre_vector(d, s) for s in (+1, -1)]
        o.expect(
            any(reference.matches_up_to_clock_shift(psi, t, SOLUTION_TOL) for t in targets),
            "best restart is not a Legendre vector up to clock shift and phase",
        )
    o.restarts = restarts
    o.converged = converged
    o.iterations = sum(int(r["iterations"]) for r in results)
    o.solutions = solutions if not o.problems else 0
    return o


def check_search_group(out_paths, check, rc: int, stdout: str) -> Outcome:
    """The last search of a group split over several calls: its own `check`,
    and at least one restart of the group converged."""
    o = check(rc, stdout)
    converged = 0
    for path in out_paths:
        try:
            results = json.loads(Path(path).read_text(encoding="utf-8"))["results"]
        except (OSError, ValueError, KeyError) as exc:
            o.problems.append(f"unreadable search output: {exc}")
            continue
        converged += sum(1 for r in results if r["converged"])
    o.expect(converged > 0, f"no restart of the {len(out_paths)} searches converged")
    if o.problems:
        o.solutions = 0
    return o


def check_lemma1(pmax: int, rc: int, stdout: str) -> Outcome:
    o = Outcome()
    kv = porcelain(stdout)
    o.expect(rc == 0, f"exit {rc} != 0")
    o.expect(kv.get("ok") == "true", "ok is not true")
    o.expect(kv.get("pmax") == str(pmax), "pmax not echoed")
    o.expect(_num(kv, "max_deviation") <= VALUE_TOL, "max_deviation above 1e-9")
    return _finish(o)


def check_perron(pmax: int, csv_path: Path, rc: int, stdout: str) -> Outcome:
    """Perron: shifting the Reste by any a gives (p+1)/4 Reste and (p+1)/4
    Nichtreste; shifting the Nichtreste gives (p+1)/4 and (p-3)/4."""
    o = Outcome()
    kv = porcelain(stdout)
    o.expect(rc == 0, f"exit {rc} != 0")
    o.expect(kv.get("ok") == "true", "ok is not true")
    primes = reference.primes_3mod4(pmax)
    for p in primes:
        expected = f"{(p + 1) // 4},{(p + 1) // 4},{(p + 1) // 4},{(p - 3) // 4}"
        o.expect(kv.get(f"p{p}_counts") == expected, f"p{p}_counts != {expected}")
    want = (
        [str(p), str(a)] + [str((p + 1) // 4)] * 3 + [str((p - 3) // 4)]
        for p in primes
        for a in range(1, p)
    )
    try:
        with csv_path.open(newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            next(rows, None)
            sentinel = object()
            same = all(a == b for a, b in itertools.zip_longest(rows, want, fillvalue=sentinel))
    except OSError as exc:
        o.problems.append(f"unreadable CSV: {exc}")
        return o
    o.expect(same, "CSV rows differ from Perron's counts")
    return _finish(o)


def check_polysys(d: int, m: int, fmt: str, export: Path, rc: int, stdout: str) -> Outcome:
    o = Outcome()
    kv = porcelain(stdout)
    o.expect(rc == 0, f"exit {rc} != 0")
    count = reference.polysys_generator_count(d, m)
    o.expect(
        kv.get("num_generators") == str(count),
        f"num_generators {kv.get('num_generators')} != {count}",
    )
    try:
        data = export.read_bytes()
        manifest = json.loads(Path(str(export) + ".manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        o.problems.append(f"unreadable export: {exc}")
        return o
    digest = hashlib.sha256(data).hexdigest()
    o.expect(manifest.get("sha256") == digest, "manifest sha256 does not hash the export")
    o.expect(kv.get("sha256") == digest, "reported sha256 does not hash the export")
    o.expect(manifest.get("num_generators") == count, "manifest generator count")
    lines = data.decode("utf-8").splitlines()
    if fmt == "cas-script":
        polys = [ln for ln in lines if ln.startswith("  ")]
    else:
        polys = [ln for ln in lines if ln]
    o.expect(len(polys) == count, f"{len(polys)} polynomial lines != {count}")
    return _finish(o)
