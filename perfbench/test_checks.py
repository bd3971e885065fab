"""Tests of the benchmark itself: the output checks catch wrong outputs, the
inputs follow the seed, and the tracer patches and restores every binding.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import checks
import reference
import run
import tracing
import workloads

cli = run._import_flatsic()


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_verify_check_catches_one_flipped_phase(tmp_path):
    psi = reference.legendre_vector(7, +1)
    good = tmp_path / "good.json"
    workloads._write_vector(good, psi, "d=7 Legendre")
    outcome = checks.check_verify(psi, "sic", *_cli(["--porcelain", "verify", str(good)]))
    assert not outcome.problems

    flipped = psi.copy()
    flipped[3] *= -1.0
    bad = tmp_path / "bad.json"
    workloads._write_vector(bad, flipped, "d=7 Legendre, phase 3 flipped")
    outcome = checks.check_verify(psi, "sic", *_cli(["--porcelain", "verify", str(bad)]))
    assert outcome.problems
    assert outcome.solutions == 0


def test_search_check_catches_a_wrong_vector(tmp_path):
    out = tmp_path / "search.json"
    argv = ["--porcelain", "search", "--d", "7", "--objective", "xoverlap", "--seed", "5",
            "--restarts", "4", "--threshold", "1e-16", "--out", str(out)]
    rc, stdout = _cli(argv)
    outcome = checks.check_search(7, "xoverlap", 5, 4, True, out, rc, stdout)
    assert not outcome.problems
    assert outcome.solutions == outcome.converged > 0

    payload = json.loads(out.read_text())
    payload["results"][0]["angles"][0] += 0.5
    out.write_text(json.dumps(payload))
    outcome = checks.check_search(7, "xoverlap", 5, 4, True, out, rc, stdout)
    assert outcome.problems
    assert outcome.solutions == 0


def test_search_group_check_requires_a_converged_restart(tmp_path):
    out = tmp_path / "search.json"
    out.write_text(json.dumps({"results": [{"converged": False}, {"converged": False}]}))

    def clean(rc, stdout):
        return checks.Outcome(solutions=0)

    assert checks.check_search_group((out,), clean, 0, "").problems
    out.write_text(json.dumps({"results": [{"converged": True}, {"converged": False}]}))
    assert not checks.check_search_group((out,), clean, 0, "").problems


def test_inputs_follow_the_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for path, seed in zip(dirs, (3, 3, 4)):
        path.mkdir()
        workloads.VerifyLadder(seed, path)
    same = (dirs[0] / "random-57.json").read_text() == (dirs[1] / "random-57.json").read_text()
    other = (dirs[0] / "random-57.json").read_text() != (dirs[2] / "random-57.json").read_text()
    assert same and other
    argv = [
        [op.argv for op in workloads.SearchMultistart(s, tmp_path).ops]
        for s in (3, 3, 4)
    ]
    assert argv[0] == argv[1] != argv[2]


def test_reference_matches_paper_facts():
    for d in (7, 19):
        assert reference.sic_residual(reference.legendre_vector(d, -1)) < 1e-12
    psi = reference.legendre_vector(67, +1)
    assert reference.x_overlap_residual(psi) < 1e-12
    assert reference.sic_residual(psi) > 0.01
    assert reference.polysys_generator_count(7, None) == 10


def test_tracer_patches_from_import_bindings_and_restores_them():
    import flatsic.cli
    import flatsic.verify

    original = flatsic.verify.is_sic
    displace = flatsic.weyl.apply_displacement
    tracer = tracing.Tracer(count_only=("weyl",))
    tracer.install()
    try:
        assert flatsic.cli.is_sic is flatsic.verify.is_sic is not original
        assert flatsic.verify.apply_displacement is flatsic.weyl.apply_displacement
        assert flatsic.verify.apply_displacement is not displace
        psi = flatsic.cvec(reference.legendre_vector(7, +1))
        flatsic.cli.is_sic(psi)
    finally:
        tracer.uninstall()
    assert flatsic.cli.is_sic is original and flatsic.verify.is_sic is original
    assert flatsic.verify.apply_displacement is displace
    summary = tracer.summary()
    assert summary["verify.is_sic"]["calls"] == 1
    assert summary["verify.overlap_table"]["calls"] == 1
    assert summary["weyl.apply_displacement"]["calls"] == 49
    assert summary["weyl.apply_displacement"]["busy_s"] == 0.0
    table = summary["verify.overlap_table"]
    assert 0.0 < table["self_s"] <= table["busy_s"] <= summary["verify.is_sic"]["busy_s"]
