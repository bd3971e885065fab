"""flatsic benchmark: closed-loop CLI workloads, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload verify-legendre --seed 1 --seconds 50 --trace 0

One client issues one operation at a time, in process, through
`flatsic.cli.main(argv)` with `--porcelain` output captured and checked.
Operations run in rounds (a round is the workload's whole operation list)
until the next round would overrun `--seconds` by more than half a round;
at least one round always runs.  Over the rounds each operation runs on each
CPU of the process in turn, and its fastest run counts (see `_wall_s`).

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, measured
with tracing off.  --trace 1 alternates an untraced and a traced round and
prints the per-layer metrics, per traced round, plus the tracing overhead.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
A result file stamped with provenance goes to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# Every workload is single-threaded Python; OpenBLAS helper threads only spin
# on a second core.  Set before numpy loads; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 7
# weyl functions run d^2 times per table and legendre_symbol once per index:
# counted, never spanned
COUNT_ONLY = ("weyl", "legendre.legendre_symbol")
PROBES = {
    "verify.overlap_table": lambda args, res: {"verify.table_entries": res.entries.size},
    "verify.gik_table": lambda args, res: {"verify.table_entries": res.size},
    "verify.gik_residual": lambda args, res: {"verify.table_entries": args[0].dim.d ** 2},
    "polysys.build_system": lambda args, res: {
        "polysys.terms": sum(len(p.terms) for p in res.polys)
    },
}


@dataclass
class OpRecord:
    name: str
    round: int
    seconds: float
    outcome: checks.Outcome
    bytes_written: int


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample in a fresh interpreter
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _import_flatsic():
    sys.path.insert(0, str(SRC))
    import flatsic.cli

    if not Path(flatsic.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"flatsic was imported from {flatsic.cli.__file__}, not from {SRC}")
    return flatsic.cli


def _setup_sample(args, workdir: Path, cpu: int) -> float:
    """Seconds from spawning a fresh interpreter, pinned to `cpu`, until it
    has imported flatsic and generated the workload's inputs."""
    workdir.mkdir()
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
        "--workdir", str(workdir), "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _run_op(cli, op, index: int, tracer) -> OpRecord:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                with tracer.span(f"op:{op.name}"):
                    rc = cli.main(op.argv)
        seconds = time.perf_counter() - start
        outcome = op.check(rc, out.getvalue())
    except Exception:
        seconds = time.perf_counter() - start
        outcome = checks.Outcome(problems=[traceback.format_exc()])
    written = len(out.getvalue().encode("utf-8")) + sum(
        p.stat().st_size for p in op.outputs if p.exists()
    )
    for problem in outcome.problems:
        print(f"FAILED {op.name} round {index}: {problem}", file=sys.stderr)
    return OpRecord(op.name, index, seconds, outcome, written)


def _run_round(cli, ops, index: int, cpus, tracer) -> list[OpRecord]:
    records = []
    for i, op in enumerate(ops):
        # each operation visits every CPU in turn over the rounds
        os.sched_setaffinity(0, {cpus[(i + index) % len(cpus)]})
        records.append(_run_op(cli, op, index, tracer))
    return records


def _run_rounds(cli, workload, budget: float, cpus, tracer=None):
    """Closed loop over rounds; with a tracer every round runs twice, untraced
    then traced, on the same inputs and CPUs.  Returns (untraced, traced)
    records."""
    plain: list[OpRecord] = []
    traced: list[OpRecord] = []
    start = time.perf_counter()
    round_seconds = []
    ops = workload.ops
    index = 0
    while True:
        t0 = time.perf_counter()
        plain += _run_round(cli, ops, index, cpus, None)
        if tracer is not None:
            tracer.install()
            try:
                traced += _run_round(cli, ops, index, cpus, tracer)
            finally:
                tracer.uninstall()
        round_seconds.append(time.perf_counter() - t0)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * statistics.median(round_seconds) > budget:
            return plain, traced


def _wall_s(records) -> float:
    """Time of one round: per operation, the fastest of its rounds, summed.

    Other tenants of the host slow each CPU in phases of seconds, by up to a
    half; that noise only ever adds time, so the fastest sample is the
    steadiest estimate of what an operation costs."""
    by_name: dict[str, list[float]] = {}
    for r in records:
        by_name.setdefault(r.name, []).append(r.seconds)
    return sum(min(v) for v in by_name.values())


def _rounds(records) -> int:
    return len({r.round for r in records})


def end_to_end(records, setup_samples) -> dict[str, float]:
    wall_s = _wall_s(records)
    solutions_per_round = sum(r.outcome.solutions for r in records) / _rounds(records)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall_s,
        "solutions_per_s": solutions_per_round / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(names, plain, traced, tracer) -> dict[str, float]:
    rounds = _rounds(traced)
    summary = tracer.summary()
    restarts = sum(r.outcome.restarts for r in traced)
    derived = {
        "verify.table_entries": tracer.counters.get("verify.table_entries", 0) / rounds,
        "polysys.terms": tracer.counters.get("polysys.terms", 0) / rounds,
        "search.objective_calls_per_restart": (
            summary["search.objective"]["calls"] / restarts if restarts else 0.0
        ),
        "search.iterations": sum(r.outcome.iterations for r in traced) / rounds,
        "search.converged_frac": (
            sum(r.outcome.converged for r in traced) / restarts if restarts else 0.0
        ),
        "cli.bytes_written": sum(r.bytes_written for r in traced) / rounds,
        "trace.overhead_frac": _wall_s(traced) / _wall_s(plain) - 1.0,
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
            continue
        function, _, stat = name.rpartition(".")
        values[name] = summary[function][stat] / rounds
    return values


def _openblas_threads():
    """Thread count of each OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found[Path(lib).name] = func()
                break
    return found


def provenance(args, cpus) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "flatsic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = _openblas_threads()
    except OSError:
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": blas,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "flatsic" / "cli.py").is_file():
        print(f"perfbench: no flatsic sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _import_flatsic()
        WORKLOADS[args.workload](args.seed, Path(args.workdir))
        print(time.monotonic() - args.spawned_at)
        return 0

    e2e_spec, layer_spec = _spec()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        cpus = sorted(os.sched_getaffinity(0))
        setup_samples = [
            _setup_sample(args, workdir / f"setup-{i}", cpus[i % len(cpus)])
            for i in range(SETUP_SAMPLES)
        ]
        cli = _import_flatsic()
        inputs = workdir / "inputs"
        inputs.mkdir()
        workload = WORKLOADS[args.workload](args.seed, inputs)
        tracer = tracing.Tracer(COUNT_ONLY, PROBES) if args.trace else None
        plain, traced = _run_rounds(cli, workload, args.seconds, cpus, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    records = plain + traced
    failed = sum(1 for r in records if r.outcome.problems)
    if args.trace:
        spec = layer_spec
        values = per_layer([m["name"] for m in spec], plain, traced, tracer)
    else:
        spec = e2e_spec
        values = end_to_end(plain, setup_samples)
    verdict = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }

    prov = provenance(args, cpus)
    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    ops = [
        {"name": r.name, "round": r.round, "traced": is_traced, "seconds": r.seconds,
         "problems": r.outcome.problems, "solutions": r.outcome.solutions}
        for rs, is_traced in ((plain, False), (traced, True))
        for r in rs
    ]
    result = {"provenance": prov, **verdict, "setup_samples_s": setup_samples, "ops": ops}
    result_file = results_dir / f"{stem}.json"
    result_file.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(results_dir / f"{stem}.spans.json.gz")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={_rounds(plain)} ops={len(records)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in verdict["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {failed / len(records):>16.6g} ratio "
          f"({failed} of {len(records)})")
    print(f"result file {result_file.relative_to(ROOT)}")
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
