"""The two workloads: their inputs, made from a seed, and their operations.

A workload is a fixed list of operations (one "round"); the harness repeats
rounds.  Every operation is an argv for `flatsic.cli.main` plus the check of
its output.  Inputs, search seeds included, depend only on the workload
seed, so every round of a run repeats the same work and an operation's
rounds can be compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference


@dataclass(frozen=True)
class Op:
    name: str
    argv: list[str]
    check: Callable[[int, str], checks.Outcome]
    outputs: tuple[Path, ...] = ()


def _write_vector(path: Path, psi: np.ndarray, label: str) -> None:
    obj = {
        "d": int(psi.shape[0]),
        "form": "normalized",
        "components": [[float(z.real), float(z.imag)] for z in psi],
        "metadata": {"label": label, "source": "perfbench"},
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


class VerifyLadder:
    """`verify` on Legendre vectors (SICs at d = 7, 19; spurious X-overlap
    solutions at d = 43, 59; both branches) and on seeded random almost-flat
    vectors at the composite d = 45, 57, plus both CSV exports at d = 43."""

    SIC_D = (7, 19)
    SPURIOUS_D = (43, 59)
    RANDOM_D = (45, 57)
    CSV_D = 43

    def __init__(self, seed: int, workdir: Path):
        self.ops: list[Op] = []
        for d in self.SIC_D + self.SPURIOUS_D:
            expect = "sic" if d in self.SIC_D else "spurious"
            for sign, tag in ((+1, "plus"), (-1, "minus")):
                psi = reference.legendre_vector(d, sign)
                path = workdir / f"legendre-{d}-{tag}.json"
                _write_vector(path, psi, f"legendre d={d} beta_sign={sign:+d}")
                self.ops.append(self._verify(f"verify-legendre-{d}-{tag}", path, psi, expect))
        for d in self.RANDOM_D:
            rng = np.random.default_rng([seed, d])
            psi = reference.ansatz_vector(d, rng.uniform(0.0, 2.0 * np.pi, (d - 1) // 2))
            path = workdir / f"random-{d}.json"
            _write_vector(path, psi, f"random almost-flat d={d} seed={seed}")
            self.ops.append(self._verify(f"verify-random-{d}", path, psi, "random"))
        # the seed picks which d = 43 branch feeds which table
        signs = (+1, -1) if seed % 2 == 0 else (-1, +1)
        for table, sign in zip(("overlap", "gik"), signs):
            tag = "plus" if sign > 0 else "minus"
            src = workdir / f"legendre-{self.CSV_D}-{tag}.json"
            out = workdir / f"table-{table}.csv"
            psi = reference.legendre_vector(self.CSV_D, sign)
            self.ops.append(
                Op(
                    f"gik-csv-{table}",
                    ["--porcelain", "gik", str(src), "--csv", str(out), "--table", table],
                    partial(checks.check_gik, psi, table, out),
                    (out,),
                )
            )

    @staticmethod
    def _verify(name: str, path: Path, psi: np.ndarray, expect: str) -> Op:
        argv = ["--porcelain", "verify", str(path)]
        return Op(name, argv, partial(checks.check_verify, psi, expect))


class SearchMultistart:
    """Multistart searches, each split over several calls of a few restarts,
    so that every call is short.  The d = 11 X-overlap search converges at
    least once with near certainty over its 80 restarts (about one restart in
    six converges there), and where the best restart must be a Legendre
    vector, the last call of the group checks that some restart converged.
    The d = 11 converged count varies with the seed by a third or more; the
    d = 7 X-overlap restarts, which all converge, keep that variation to a
    few percent of the solutions a round delivers."""

    # (d, objective, restarts per call, calls,
    #  a converged best restart must be a Legendre vector)
    SEARCHES = (
        (7, "xoverlap", 10, 15, True),
        (11, "xoverlap", 10, 8, True),
        (19, "xoverlap", 5, 1, False),
        (7, "sic", 5, 1, True),
        (11, "naive_x", 10, 1, False),
    )

    def __init__(self, seed: int, workdir: Path):
        self.ops: list[Op] = []
        for i, (d, objective, restarts, calls, match) in enumerate(self.SEARCHES):
            outs = []
            for c in range(calls):
                search_seed = int(np.random.SeedSequence([seed, i, c]).generate_state(1)[0])
                name = f"search-{objective}-{d}-{c}"
                out = workdir / f"{name}.json"
                outs.append(out)
                argv = [
                    "--porcelain", "search", "--d", str(d), "--objective", objective,
                    "--seed", str(search_seed), "--restarts", str(restarts),
                    "--threshold", repr(checks.SEARCH_THRESHOLD), "--out", str(out),
                ]
                check = partial(
                    checks.check_search, d, objective, search_seed, restarts, match, out
                )
                if match and c == calls - 1:
                    check = partial(checks.check_search_group, tuple(outs), check)
                self.ops.append(Op(name, argv, check, (out,)))


class LegendreSweep:
    """Lemma 1 and Perron's counts to pmax = 500, and polynomial-system
    exports at d = 19, 67, 103 with their symmetry multipliers."""

    PMAX = 500
    # (d, symmetry multiplier, export format)
    SYSTEMS = ((19, 4, "plain"), (67, 29, "cas-script"), (103, 5, "plain"))

    def __init__(self, seed: int, workdir: Path):
        pmax = str(self.PMAX)
        perron_csv = workdir / "perron.csv"
        self.ops = [
            Op(
                "lemma1",
                ["--porcelain", "lemma1", "--pmax", pmax],
                partial(checks.check_lemma1, self.PMAX),
            ),
            Op(
                "perron",
                ["--porcelain", "perron", "--pmax", pmax, "--csv", str(perron_csv)],
                partial(checks.check_perron, self.PMAX, perron_csv),
                (perron_csv,),
            ),
        ]
        for d, m, fmt in self.SYSTEMS:
            export = workdir / f"polysys-{d}.txt"
            self.ops.append(
                Op(
                    f"polysys-{d}",
                    ["--porcelain", "polysys", "--d", str(d), "--symmetry", str(m),
                     "--export", str(export), "--format", fmt],
                    partial(checks.check_polysys, d, m, fmt, export),
                    (export, Path(str(export) + ".manifest.json")),
                )
            )
        # the seed only orders the operations; their inputs are fixed
        order = np.random.default_rng(seed).permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]


class VerifyLegendre:
    """The exact side of the toolkit in one closed loop: the verify ladder,
    which builds d^2 tables, then the Legendre sweep, which builds none."""

    def __init__(self, seed: int, workdir: Path):
        self.ops = VerifyLadder(seed, workdir).ops + LegendreSweep(seed, workdir).ops


WORKLOADS = {
    "verify-legendre": VerifyLegendre,
    "search-multistart": SearchMultistart,
}
