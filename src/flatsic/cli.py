"""Command-line front end tying the toolkit together.

Exit codes: 0 on success, 1 when a computed verdict is negative (for example
a failing SIC check or a failed match), 2 on usage or input errors.  With
--porcelain every stdout line is a machine-parseable key=value pair.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import legendre as legendre_mod
from .ansatz import (
    DegenerateComponentError,
    build_ansatz,
    displacement_row_identity,
    to_normalized,
    x_overlap_deviations,
    x_overlap_residual,
    z_overlap_residual,
)
from .polysys import build_system, export_system, system_manifest
from .search import OBJECTIVES, SearchConfig, minimize, search_results_json
from .vectorio import dump_vector, parse_vector_file
from .verify import (
    canonical_match,
    gik_residual,
    gik_table_csv,
    is_sic,
    overlap_table,
    overlap_table_csv,
)
from .weyl import check_tolerance, make_dimension


class _Reporter:
    """Formats stdout either for humans or as key=value lines, collected in
    out: main writes them only when the command exits 0 or 1."""

    def __init__(self, porcelain: bool, digits: int):
        self.porcelain = porcelain
        self.digits = digits
        self.out: list[str] = []

    def num(self, value) -> str:
        return f"{float(value):.{self.digits}g}"

    def cnum(self, value) -> str:
        z = complex(value)
        return f"{z.real:.{self.digits}g}{z.imag:+.{self.digits}g}i"

    def kv(self, key: str, value, label: str | None = None) -> None:
        self.out.append(f"{key}={value}\n" if self.porcelain else f"{label or key} = {value}\n")

    def note(self, text: str) -> None:
        if not self.porcelain:
            self.out.append(text + "\n")


def _load_vector(path: str):
    return parse_vector_file(Path(path).read_text(encoding="utf-8"))


def _write_vector(path: str, psi, label: str, rep: _Reporter) -> None:
    Path(path).write_text(dump_vector(psi, label=label, source="flatsic") + "\n", encoding="utf-8")
    rep.kv("out", path)


def _parse_angles(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse angle list {text!r}: {exc}") from exc


def _cmd_dim_info(args, rep: _Reporter) -> int:
    dim = make_dimension(args.d)
    for field in dataclasses.fields(dim):
        value = getattr(dim, field.name)  # a bool or None prints lower-case
        rep.kv(field.name, value if type(value) is int else str(value).lower())
    return 0


def _cmd_legendre(args, rep: _Reporter) -> int:
    sign = +1 if args.sign == "+" else -1
    vec = legendre_mod.build_legendre_vector(args.d, sign)
    psi = to_normalized(vec.ansatz)
    report = is_sic(psi, args.tol)
    rep.kv("d", vec.dim.d)
    rep.kv("beta_sign", args.sign)
    rep.kv("x1", rep.cnum(vec.x1))
    rep.kv("x_overlap_residual", rep.num(x_overlap_residual(psi)))
    rep.kv("sic_residual", rep.num(report.max_modulus_deviation))
    rep.kv("is_sic", str(report.is_sic).lower())
    if args.out:
        _write_vector(args.out, psi, f"legendre d={vec.dim.d} beta_sign={args.sign}", rep)
    return 0


def _cmd_ansatz_build(args, rep: _Reporter) -> int:
    angles = _parse_angles(args.angles)
    av = build_ansatz(args.d, angles, ghost=args.ghost)
    psi = to_normalized(av)
    rep.kv("d", av.dim.d)
    rep.kv("ghost", str(av.ghost).lower())
    rep.kv("x0", rep.num(av.x0))
    rep.kv("z_overlap_residual", rep.num(z_overlap_residual(psi)))
    if args.out:
        _write_vector(args.out, psi, f"ansatz d={av.dim.d} ghost={av.ghost}", rep)
    return 0


def _cmd_verify(args, rep: _Reporter) -> int:
    vec = _load_vector(args.file)
    report = is_sic(vec, args.tol)
    rep.kv("d", vec.dim.d)
    rep.kv("form", vec.form)
    rep.kv("z_overlap_residual", rep.num(z_overlap_residual(vec)))
    x_res = None
    if not vec.dim.is_odd:  # the X-overlap equation does not apply
        rep.kv("x_overlap_residual", "nan", label="x_overlap_residual (even d)")
    else:
        try:
            x_res = x_overlap_residual(vec)
            rep.kv("x_overlap_residual", rep.num(x_res))
        except DegenerateComponentError:
            rep.kv("x_overlap_residual", "nan", label="x_overlap_residual (degenerate)")
    rep.kv("naive_x_residual", rep.num(report.naive_x_deviation))
    rep.kv("sic_residual", rep.num(report.max_modulus_deviation))
    rep.kv("gik_residual", rep.num(report.gik_max_deviation))
    rep.kv("worst_pair", f"{report.worst_pair[0]},{report.worst_pair[1]}")
    rep.kv("tolerance", rep.num(report.tolerance_used))
    x_verdict = "PASS" if (x_res is not None and x_res <= report.tolerance_used) else "FAIL"
    sic_verdict = "PASS" if report.is_sic else "FAIL"
    rep.kv("x_overlap_verdict", x_verdict.lower())
    rep.kv("sic_verdict", sic_verdict.lower())
    rep.note(f"X-overlap: {x_verdict}, SIC: {sic_verdict}")
    return 0 if report.is_sic else 1


def _cmd_xoverlap(args, rep: _Reporter) -> int:
    vec = _load_vector(args.file)
    devs = x_overlap_deviations(vec)
    rep.kv("d", vec.dim.d)
    rep.kv("x_overlap_residual", rep.num(float(np.max(devs))))
    rep.kv("worst_j", int(np.argmax(devs)) + 1)
    return 0


def _cmd_gik(args, rep: _Reporter) -> int:
    if not args.csv and (args.table or args.moduli):
        raise ValueError("gik --table and --moduli need --csv: they shape the CSV table")
    vec = _load_vector(args.file)
    rep.kv("d", vec.dim.d)
    rep.kv("gik_residual", rep.num(gik_residual(vec)))
    if args.csv:
        if args.table == "overlap":
            text = overlap_table_csv(overlap_table(vec), moduli_only=args.moduli)
        else:
            text = gik_table_csv(vec, moduli_only=args.moduli)
        Path(args.csv).write_text(text, encoding="utf-8")
        rep.kv("csv", args.csv)
    return 0


def _cmd_prop1(args, rep: _Reporter) -> int:
    vec = _load_vector(args.file)
    report = displacement_row_identity(vec, args.j)
    rep.kv("d", vec.dim.d)
    rep.kv("j", report.j)
    rep.kv("lhs", rep.cnum(report.lhs))
    rep.kv("rhs", rep.cnum(report.rhs))
    rep.kv("deviation", rep.num(report.deviation))
    return 0


def _cmd_perron(args, rep: _Reporter) -> int:
    table = legendre_mod.perron_sweep(args.pmax)
    starts = np.flatnonzero(table[:, 1] == 1)  # each prime's rows start at shift 1
    primes = table[starts, 0]
    # Perron: every shift gives rr, nr, rn = (p+1)/4 and nn = (p-3)/4.  A prime
    # keeps them when the least and the greatest of its rows' counts do,
    # which needs no per-row copy of the expected counts
    expected = ((primes + 1) // 4)[:, None] - [0, 0, 0, 1]
    counts = table[:, 2:]
    broken = (
        (np.minimum.reduceat(counts, starts) != expected)
        | (np.maximum.reduceat(counts, starts) != expected)
    ).any(axis=1)
    shifts = np.ones(len(primes), dtype=np.int64)  # shift 1 where none breaks
    for i in np.flatnonzero(broken):
        rows = counts[starts[i] : starts[i] + primes[i] - 1]
        shifts[i] = (rows != expected[i]).any(axis=1).argmax() + 1  # the first broken one
    picked = counts[starts + shifts - 1].tolist()
    for p, shift, is_broken, values in zip(primes.tolist(), shifts.tolist(), broken.tolist(), picked):
        where = f"at broken shift a={shift}" if is_broken else f"over all {p - 1} shifts"
        rep.kv(
            f"p{p}_counts",
            ",".join(map(str, values)),
            label=f"p={p:4d}  counts(rr,nr,rn,nn) {where}",
        )
    ok = not broken.any()
    rep.kv("ok", str(ok).lower())
    if args.csv:
        names = [f.name for f in dataclasses.fields(legendre_mod.PerronCounts)]
        with Path(args.csv).open("wb") as stream:
            stream.write((",".join(names) + "\n").encode("ascii"))
            _write_int_rows(stream, table)
        rep.kv("csv", args.csv)
    return 0 if ok else 1


#: Bytes of padded CSV text that _write_int_rows forms before each write.
#: The Perron table to p = 500 took 0.43-0.48 ms at 64 KiB and 0.56-0.60 ms
#: at 256 KiB (best of 5 x 100, a 2-vCPU virtual machine, numpy 2.4.6).
_CSV_BLOCK_BYTES = 1 << 16


def _write_int_rows(stream, table) -> None:
    """Write a 2-d table of non-negative integers, at least one column wide,
    to a binary stream as CSV rows: byte for byte ",".join("%d" ...) + "\n"
    per row.

    A lookup table holds one ASCII row per value 0..max, its digits
    right-aligned behind zero pad bytes, with a comma after them; each block
    of rows is one gather from it, the last comma of each row made a
    newline, the pad bytes dropped.  The lookup table has max + 1 rows, so
    this suits tables of small counts, such as Perron's."""
    table = np.asarray(table)
    if table.size and table.min() < 0:
        raise ValueError(f"CSV rows need non-negative integers, got {table.min()}")
    top = int(table.max()) if table.size else 0
    width = len(str(top))
    values = np.arange(top + 1)[:, None]
    powers = 10 ** np.arange(width - 1, -1, -1)
    lookup = np.full((top + 1, width + 1), ord(","), dtype=np.uint8)
    lookup[:, :width] = values // powers % 10 + ord("0")
    lookup[:, : width - 1][values < powers[:-1]] = 0  # leading zeros, never the last digit
    block_rows = max(1, _CSV_BLOCK_BYTES // (table.shape[1] * (width + 1)))
    for start in range(0, len(table), block_rows):
        text = lookup.take(table[start : start + block_rows], axis=0)  # 16x lookup[...]'s speed
        text[:, -1, -1] = ord("\n")
        text = text.ravel()
        stream.write(text[text != 0].tobytes())


def _cmd_lemma1(args, rep: _Reporter) -> int:
    check_tolerance(args.tol)
    sweep = legendre_mod.lemma1_sweep(args.pmax)
    p, worst = sweep[np.argmax(sweep[:, 1])].tolist()  # the first row attaining it
    rep.kv("pmax", args.pmax)
    rep.kv("max_deviation", rep.num(worst))
    rep.kv("worst_p", int(p) if worst > 0.0 else "none")
    rep.kv("ok", str(worst <= args.tol).lower())
    return 0 if worst <= args.tol else 1


def _cmd_polysys(args, rep: _Reporter) -> int:
    if rep.porcelain and not args.export:
        raise ValueError("polysys --porcelain needs --export: generator lines are not key=value")
    system = build_system(args.d, args.symmetry)
    text = export_system(system, args.format)
    manifest = system_manifest(system, text)
    rep.kv("d", system.dim.d)
    rep.kv("symmetry_multiplier", system.symmetry_multiplier or "none")
    rep.kv("num_generators", manifest["num_generators"])
    if args.export:
        Path(args.export).write_text(text, encoding="utf-8")
        manifest_path = args.export + ".manifest.json"
        Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        rep.kv("sha256", manifest["sha256"])
        rep.kv("export", args.export)
        rep.kv("manifest", manifest_path)
    else:
        rep.out.append(text)
    return 0


def _cmd_search(args, rep: _Reporter) -> int:
    config = SearchConfig(
        dim=make_dimension(args.d),
        objective=args.objective,
        seed=args.seed,
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        convergence_threshold=args.threshold,
    )
    best, results = minimize(config)
    rep.kv("objective", config.objective)
    rep.kv("restarts", config.restarts)
    rep.kv("best_objective", rep.num(best.objective_value))
    rep.kv("best_restart", best.restart_index)
    rep.kv("iterations", best.iterations)
    rep.kv("converged", str(best.converged).lower())
    rep.kv("angles", ",".join(f"{a:.17g}" for a in best.angles))
    rep.kv("num_converged", sum(1 for r in results if r.converged))
    if args.out:
        Path(args.out).write_text(search_results_json(config, results) + "\n", encoding="utf-8")
        rep.kv("out", args.out)
    return 0


def _cmd_match(args, rep: _Reporter) -> int:
    a = _load_vector(args.file1)
    b = _load_vector(args.file2)
    matched = canonical_match(a, b, args.tol)
    rep.kv("match", str(matched).lower())
    return 0 if matched else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="flatsic",
        description="Construction and verification toolkit for almost-flat "
        "SIC fiducial vectors.",
    )
    parser.add_argument(
        "--porcelain", action="store_true", help="emit machine-parseable key=value lines"
    )
    parser.add_argument(
        "--digits", type=int, default=15, help="significant digits for numeric output (>= 1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim-info", help="classify a dimension")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_dim_info)

    p = sub.add_parser("legendre", help="build a Legendre vector")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sign", choices=["+", "-"], default="+", help="beta branch")
    p.add_argument("--tol", type=float, default=None, help="SIC tolerance")
    p.add_argument("--out", help="write the normalized vector as JSON")
    p.set_defaults(handler=_cmd_legendre)

    p = sub.add_parser("ansatz-build", help="build an ansatz vector from angles")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--angles", required=True, help="comma-separated radians")
    p.add_argument("--ghost", action="store_true", help="use x0 = -2 + sqrt(d+1)")
    p.add_argument("--out", help="write the normalized vector as JSON")
    p.set_defaults(handler=_cmd_ansatz_build)

    p = sub.add_parser("verify", help="verify a vector file; exit 1 unless SIC")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("xoverlap", help="X-overlap residual of a vector file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_xoverlap)

    p = sub.add_parser("gik", help="quartic autocorrelation residual and tables")
    p.add_argument("file")
    p.add_argument("--csv", help="write a table as CSV")
    p.add_argument("--moduli", action="store_true", help="export moduli only")
    p.add_argument("--table", choices=["gik", "overlap"], help="table to write (default gik)")
    p.set_defaults(handler=_cmd_gik)

    p = sub.add_parser("prop1", help="displacement row-sum identity at one index")
    p.add_argument("file")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(handler=_cmd_prop1)

    p = sub.add_parser("perron", help="residue-shift counts for primes p = 3 mod 4")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--csv", help="write all per-shift counts as CSV")
    p.set_defaults(handler=_cmd_perron)

    p = sub.add_parser("lemma1", help="closed-form autocorrelations vs direct sums")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_lemma1)

    p = sub.add_parser("polysys", help="build and export a polynomial system")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--symmetry", type=int, default=None, help="multiplier m for x_j = x_{mj}")
    p.add_argument("--export", help="output file (manifest written alongside)")
    p.add_argument("--format", choices=["plain", "cas-script"], default="plain")
    p.set_defaults(handler=_cmd_polysys)

    p = sub.add_parser("search", help="multistart search over the free angles")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--objective", choices=OBJECTIVES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--restarts", type=int, required=True)
    p.add_argument("--max-iterations", type=int, default=SearchConfig.max_iterations)
    p.add_argument("--threshold", type=float, default=SearchConfig.convergence_threshold)
    p.add_argument("--out", help="write all results as JSON")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("match", help="compare two vectors up to clock shifts and phase")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_match)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.digits < 1:
            parser.error(f"argument --digits: must be at least 1, got {args.digits}")
        try:
            format(0.0, f".{args.digits}g")
        except ValueError:  # Python formats at most 2**31 - 1 digits
            parser.error(f"argument --digits: too large to format a number, got {args.digits}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    rep = _Reporter(args.porcelain, args.digits)
    try:
        code = args.handler(args, rep)
    except (ValueError, OSError) as exc:  # VectorFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write("".join(rep.out))
    return code


if __name__ == "__main__":
    sys.exit(main())
