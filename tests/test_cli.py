"""End-to-end CLI behavior: subcommands, exit codes, file formats."""

import contextlib
import csv
import hashlib
import io
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    SUBNORMAL_D7,
    UNDERFLOWING_D7,
    ZERO_D3_RESCALED,
    d7_forms,
    d7_solution,
    normalize_rescaled,
    perron_enumeration,
    random_unit,
    rescaled_d7_text,
    small_first_component_pair,
)

from flatsic import (
    cvec,
    dump_vector,
    gik_residual,
    gik_table_csv,
    overlap_table,
    overlap_table_csv,
    parse_vector_file,
)
from flatsic import cli
from flatsic import legendre as legendre_mod
from flatsic.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def porcelain_dict(stdout):
    pairs = {}
    for line in stdout.strip().splitlines():
        assert "=" in line, f"non key=value line under --porcelain: {line!r}"
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture
def d7_file(tmp_path):
    psi = normalize_rescaled(d7_solution(-1))
    path = tmp_path / "d7.json"
    path.write_text(dump_vector(psi, label="d7 solution"))
    return str(path)


class TestDimInfo:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "dim-info", "--d", "7")
        assert code == 0
        assert "n_sq_plus_3 = 2" in out

    def test_porcelain(self, capsys):
        code, out, _ = run(capsys, "--porcelain", "dim-info", "--d", "67")
        assert code == 0
        pairs = porcelain_dict(out)
        assert pairs["d"] == "67"
        assert pairs["is_prime"] == "true"
        assert pairs["n_sq_plus_3"] == "8"
        assert pairs["mod8"] == "3"

    @pytest.mark.parametrize(
        "d, expected",
        [
            ("8", "d=8\nis_odd=false\nis_prime=false\nn_sq_plus_3=none\nmod4=0\nmod8=0\n"),
            ("67", "d=67\nis_odd=true\nis_prime=true\nn_sq_plus_3=8\nmod4=3\nmod8=3\n"),
        ],
    )
    def test_porcelain_output_is_pinned(self, capsys, d, expected):
        assert run(capsys, "--porcelain", "dim-info", "--d", d) == (0, expected, "")

    def test_invalid(self, capsys):
        code, _, err = run(capsys, "dim-info", "--d", "1")
        assert code == 2
        assert "error" in err

    def test_digits_flag(self, capsys, tmp_path):
        vec_path = str(tmp_path / "v.json")
        run(capsys, "legendre", "--d", "7", "--out", vec_path)
        _, out3, _ = run(capsys, "--porcelain", "--digits", "3", "legendre", "--d", "7")
        pairs = porcelain_dict(out3)
        assert len(pairs["sic_residual"].replace("-", "").split("e")[0].replace(".", "")) <= 3

    @pytest.mark.parametrize("digits", ["0", "-3", str(2**31)])  # 2**31: too large to format
    def test_digits_below_one_rejected(self, capsys, digits):
        code, out, err = run(capsys, "--porcelain", "--digits", digits, "legendre", "--d", "7")
        assert (code, out) == (2, "")
        assert "--digits" in err


class TestLegendreVerify:
    @pytest.mark.parametrize(
        "d, sign, digest",
        [
            ("7", "+", "19b4423ebbb6ea1c637b3cfa4ac30ca22510c37a36f2d2dfd9af88949af4aec5"),
            ("7", "-", "1392b44a9b6c1abde2406078be3b49830b756b03d54641adac027b66f49c4889"),
            ("19", "+", "80274f1a90384b36fde25cc85adac93b20164043f703ce7f13fe392e0f4ef630"),
            ("19", "-", "e41857e011f3debd462ccd2caea7e7f730782a84645a7be94af6c215d5ec8fb0"),
            ("67", "+", "6a5104ea94ab32416f6c5ac4d351838f7116e40a635b2ca24a64bf15720c4132"),
            ("67", "-", "c148a6dd1f351a4c3068f31778d37be31589211a67f30faf37a421ec3ffce2aa"),
        ],
    )
    def test_legendre_output_is_pinned(self, capsys, d, sign, digest):
        # digests of the output when each branch's angles were formed on
        # their own, before both branches' angle rows came from one site
        code, out, _ = run(capsys, "legendre", "--d", d, "--sign", sign)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_d67_roundtrip_fails_sic(self, capsys, tmp_path):
        vec_path = str(tmp_path / "vec.json")
        code, out, _ = run(capsys, "legendre", "--d", "67", "--sign", "+", "--out", vec_path)
        assert code == 0
        code, out, _ = run(capsys, "verify", vec_path)
        assert code == 1
        assert "X-overlap: PASS, SIC: FAIL" in out

    def test_d7_passes(self, capsys, tmp_path):
        vec_path = str(tmp_path / "vec7.json")
        run(capsys, "legendre", "--d", "7", "--sign", "-", "--out", vec_path)
        code, out, _ = run(capsys, "verify", vec_path)
        assert code == 0
        assert "X-overlap: PASS, SIC: PASS" in out

    def test_expect_sic_flag_is_gone(self, capsys, d7_file):
        # the exit code already says whether the vector is a SIC
        code, out, _ = run(capsys, "--porcelain", "verify", d7_file, "--expect-sic")
        assert (code, out) == (2, "")

    def test_porcelain_verify(self, capsys, d7_file):
        code, out, _ = run(capsys, "--porcelain", "verify", d7_file)
        assert code == 0
        pairs = porcelain_dict(out)
        assert pairs["sic_verdict"] == "pass"
        assert float(pairs["sic_residual"]) < 1e-10
        assert float(pairs["z_overlap_residual"]) < 1e-11

    def test_parser_keeps_no_state_between_calls(self, capsys, d7_file):
        code, out, _ = run(capsys, "--porcelain", "verify", d7_file, "--tol", "0.5")
        assert (code, porcelain_dict(out)["tolerance"]) == (0, "0.5")
        code, out, _ = run(capsys, "--porcelain", "verify", d7_file)
        assert (code, porcelain_dict(out)["tolerance"]) == (0, "7e-09")

    @pytest.mark.parametrize(
        "psi",
        [
            random_unit(np.random.default_rng(4), 4),  # even d
            cvec(np.eye(7)[0]),  # psi_j = 0 for every j != 0
            UNDERFLOWING_D7,  # |psi_6|^2 underflows to 0
            SUBNORMAL_D7,  # |psi_6|^2 is subnormal, its reciprocal inf
        ],
        ids=["even-d", "zero-component", "underflowing-component", "subnormal-component"],
    )
    def test_x_overlap_not_applicable(self, capsys, tmp_path, psi):
        path = tmp_path / "vec.json"
        path.write_text(dump_vector(psi))
        code, out, _ = run(capsys, "--porcelain", "verify", str(path))
        pairs = porcelain_dict(out)
        assert code == 1
        assert pairs["x_overlap_residual"] == "nan"
        assert pairs["x_overlap_verdict"] == "fail"
        code, out, err = run(capsys, "--porcelain", "xoverlap", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_naive_x_residual_prints_the_column_0_sic_residual(self, capsys, tmp_path):
        # at worst_pair 1,0 both keys print one overlap, so to the last digit
        vec_path = str(tmp_path / "a5.json")
        angles = "4.977422664064043,1.6872548652166954"
        code, _, _ = run(capsys, "ansatz-build", "--d", "5", "--angles", angles, "--out", vec_path)
        assert code == 0
        code, out, _ = run(capsys, "--porcelain", "--digits", "17", "verify", vec_path)
        pairs = porcelain_dict(out)
        assert (code, pairs["worst_pair"]) == (1, "1,0")
        assert pairs["naive_x_residual"] == pairs["sic_residual"]

    def test_legendre_bad_dimension(self, capsys):
        code, _, err = run(capsys, "legendre", "--d", "13")
        assert code == 2
        assert "3 mod 4" in err


class TestAnsatzBuild:
    @pytest.mark.parametrize("angles", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_angles(self, capsys, tmp_path, angles):
        vec_path = tmp_path / "v.json"
        code, out, err = run(
            capsys, "--porcelain", "ansatz-build", "--d", "7", "--angles", angles,
            "--out", str(vec_path),
        )
        assert code == 2
        assert out == ""
        assert "angles must be finite" in err
        assert not vec_path.exists()

    def test_build_and_xoverlap(self, capsys, tmp_path):
        vec_path = str(tmp_path / "a.json")
        code, out, _ = run(
            capsys, "ansatz-build", "--d", "7", "--angles", "0.1,0.2,0.3", "--out", vec_path
        )
        assert code == 0
        code, out, _ = run(capsys, "--porcelain", "xoverlap", vec_path)
        assert code == 0
        pairs = porcelain_dict(out)
        assert float(pairs["x_overlap_residual"]) > 0.01

    @pytest.mark.parametrize("angles", [",1,,2,3,", "1,2,3,", ""])
    def test_empty_angle_fields(self, capsys, angles):
        # an empty field is a parse error, not an angle to skip
        code, out, err = run(capsys, "--porcelain", "ansatz-build", "--d", "7", "--angles", angles)
        assert code == 2
        assert out == ""
        assert "cannot parse angle list" in err

    def test_wrong_angle_count(self, capsys):
        code, _, err = run(capsys, "ansatz-build", "--d", "7", "--angles", "0.1")
        assert code == 2

    def test_ghost_flag(self, capsys, tmp_path):
        vec_path = str(tmp_path / "g.json")
        code, out, _ = run(
            capsys,
            "--porcelain",
            "ansatz-build",
            "--d",
            "5",
            "--angles",
            "0.5,1.5",
            "--ghost",
            "--out",
            vec_path,
        )
        assert code == 0
        assert porcelain_dict(out)["ghost"] == "true"
        parse_vector_file((tmp_path / "g.json").read_text())


class TestGikProp1:
    def test_gik_residual_and_csv(self, capsys, d7_file, tmp_path):
        csv_path = str(tmp_path / "g.csv")
        code, out, _ = run(capsys, "--porcelain", "gik", d7_file, "--csv", csv_path)
        assert code == 0
        assert float(porcelain_dict(out)["gik_residual"]) < 1e-10
        rows = list(csv.reader(Path(csv_path).read_text().splitlines()))
        assert len(rows) == 8

    def test_gik_overlap_table_moduli(self, capsys, d7_file, tmp_path):
        csv_path = str(tmp_path / "o.csv")
        code, _, _ = run(
            capsys, "gik", d7_file, "--csv", csv_path, "--table", "overlap", "--moduli"
        )
        assert code == 0
        rows = list(csv.reader(Path(csv_path).read_text().splitlines()))
        assert float(rows[1][2]) == pytest.approx(1 / np.sqrt(8.0), abs=1e-12)

    @pytest.mark.parametrize("flags", [["--table", "overlap"], ["--moduli"], ["--table", "gik"]])
    def test_table_flags_need_csv(self, capsys, d7_file, flags):
        # without --csv the flags shaped nothing; nothing is printed
        code, out, err = run(capsys, "--porcelain", "gik", d7_file, *flags)
        assert (code, out) == (2, "")
        assert "--table and --moduli need --csv" in err

    @pytest.mark.parametrize("table", ["gik", "overlap"])
    @pytest.mark.parametrize("d", [7, 131])  # d = 131 spans three blocks of the scan
    def test_gik_matches_library(self, capsys, tmp_path, d, table):
        vec_path = tmp_path / "v.json"
        vec_path.write_text(dump_vector(random_unit(np.random.default_rng(d), d)))
        vec = parse_vector_file(vec_path.read_text())
        csv_path = tmp_path / "t.csv"
        code, out, _ = run(
            capsys, "--porcelain", "gik", str(vec_path), "--table", table,
            "--csv", str(csv_path),
        )
        assert code == 0
        assert porcelain_dict(out)["gik_residual"] == f"{gik_residual(vec):.15g}"
        if table == "gik":
            expected = gik_table_csv(vec)
        else:
            expected = overlap_table_csv(overlap_table(vec))
        assert csv_path.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "sign, table, moduli, digest",
        [
            ("+", "gik", False, "f934b6f14f811b40e94173c784d3a26745bd9990cd182b47b23d55aa3d88d90b"),
            ("+", "gik", True, "7b07a9c9facca980bdf8b672f8e8849fb5301f7fc83490d9f15c81313f2ab345"),
            ("+", "overlap", False, "d8d4825cd2396a29572c6e3760bb8edd55190c08687f7f0401accdb4317ea167"),
            ("+", "overlap", True, "094e4ad322ccd03f86f3933000c472b2eaff298330971c2f209f82167d00e5c4"),
            ("-", "gik", False, "46b1eda4d34e6badbfc4af4adf431a2da057d1b8852d61cb8c4771ad3abd0b28"),
            ("-", "gik", True, "d8d9d620e618a11f40bbf5b4b8662f5c382fc924a93359afad1e41c3d169e4ac"),
            ("-", "overlap", False, "79e314598fdc6747f369d62caeddd8e1b40f17551b4b0cec615400634cd1d1fe"),
            ("-", "overlap", True, "c323153022f0db9ce230094e03e976000d1846cd7e29dec15a29aa40fdc05846"),
        ],
        ids=[
            "plus-gik", "plus-gik-moduli", "plus-overlap", "plus-overlap-moduli",
            "minus-gik", "minus-gik-moduli", "minus-overlap", "minus-overlap-moduli",
        ],
    )
    def test_table_csv_is_pinned(self, capsys, tmp_path, sign, table, moduli, digest):
        # digests of the d = 43 Legendre tables (the benchmark's inputs) as
        # written by csv.writer with one formatted string per cell, pinned
        # before the writer formatted one row per `%`.  Both branches hold
        # cells where np.abs and Python's abs differ in the last bit.
        vec_path = tmp_path / "v.json"
        run(capsys, "--porcelain", "legendre", "--d", "43", "--sign", sign, "--out", str(vec_path))
        csv_path = tmp_path / "t.csv"
        flags = ["--moduli"] if moduli else []
        code, _, err = run(
            capsys, "--porcelain", "gik", str(vec_path), "--table", table,
            "--csv", str(csv_path), *flags,
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest

    def test_prop1(self, capsys, d7_file):
        code, out, _ = run(capsys, "--porcelain", "prop1", d7_file, "--j", "2")
        assert code == 0
        pairs = porcelain_dict(out)
        assert float(pairs["deviation"]) < 1e-12

    @pytest.mark.parametrize("porcelain", [[], ["--porcelain"]])
    def test_prop1_reads_j_mod_d(self, capsys, d7_file, porcelain):
        # 10^20 = 2 mod 7, and 2 * 10^20 is beyond int64
        code, out, err = run(capsys, *porcelain, "prop1", d7_file, "--j", str(10**20))
        assert (code, err) == (0, "")
        assert out == run(capsys, *porcelain, "prop1", d7_file, "--j", "2")[1]


class TestPerronLemma:
    def test_perron_table_and_csv(self, capsys, tmp_path):
        csv_path = str(tmp_path / "p.csv")
        code, out, _ = run(capsys, "--porcelain", "perron", "--pmax", "23", "--csv", csv_path)
        assert code == 0
        pairs = porcelain_dict(out)
        assert pairs["p11_counts"] == "3,3,3,2"
        assert pairs["ok"] == "true"
        rows = list(csv.reader(Path(csv_path).read_text().splitlines()))
        assert rows[0][0] == "p"
        # one row per (p, a) for p in {3, 7, 11, 19, 23}
        assert len(rows) - 1 == sum(p - 1 for p in (3, 7, 11, 19, 23))

    def test_lemma1(self, capsys):
        code, out, _ = run(capsys, "--porcelain", "lemma1", "--pmax", "31")
        assert code == 0
        pairs = porcelain_dict(out)
        assert float(pairs["max_deviation"]) < 1e-9
        assert pairs["ok"] == "true"

    def test_lemma1_output_is_pinned(self, capsys):
        # the sweep's output when each prime built two Legendre vectors
        code, out, _ = run(capsys, "--porcelain", "lemma1", "--pmax", "500")
        assert code == 0
        assert out == "pmax=500\nmax_deviation=1.03028696685215e-13\nworst_p=491\nok=true\n"

    @pytest.mark.parametrize("pmax", ["2", "-4"])
    @pytest.mark.parametrize("command", ["perron", "lemma1"])
    def test_empty_sweep_exits_2(self, capsys, command, pmax):
        code, out, err = run(capsys, "--porcelain", command, "--pmax", pmax)
        assert code == 2
        assert out == ""
        assert "pmax >= 3" in err

    def test_perron_reports_first_broken_shift(self, capsys, monkeypatch):
        stacked = legendre_mod._perron_rows

        def broken(primes):
            rows = stacked(primes).copy()
            p, a = rows[:, 0], rows[:, 1]
            rows[(p == 11) & (a == 5), 5] += 1
            rows[(p == 11) & (a == 8), 2] -= 1  # a later broken shift is not reported
            return rows

        monkeypatch.setattr(legendre_mod, "_perron_rows", broken)
        code, out, _ = run(capsys, "--porcelain", "perron", "--pmax", "19")
        assert code == 1
        pairs = porcelain_dict(out)
        assert pairs["p7_counts"] == "2,2,2,1"
        assert pairs["p11_counts"] == "3,3,3,3"
        assert pairs["p19_counts"] == "5,5,5,4"
        assert pairs["ok"] == "false"
        code, out, _ = run(capsys, "perron", "--pmax", "19")
        assert code == 1
        lines = out.splitlines()
        assert "p=  11  counts(rr,nr,rn,nn) at broken shift a=5 = 3,3,3,3" in lines
        assert "p=   7  counts(rr,nr,rn,nn) over all 6 shifts = 2,2,2,1" in lines
        assert "p=  19  counts(rr,nr,rn,nn) over all 18 shifts = 5,5,5,4" in lines

    def test_perron_reports_counts_broken_up_or_down(self, capsys, monkeypatch):
        stacked = legendre_mod._perron_rows

        def broken(primes):
            rows = stacked(primes).copy()
            p, a = rows[:, 0], rows[:, 1]
            rows[(p == 3) & (a == 1), 3] = 7  # above (p+1)/4, at the first shift
            rows[(p == 7) & (a == 4), 2] = 0  # below it, at an inner shift
            return rows

        monkeypatch.setattr(legendre_mod, "_perron_rows", broken)
        code, out, _ = run(capsys, "perron", "--pmax", "11")
        assert code == 1
        assert out.splitlines()[:3] == [
            "p=   3  counts(rr,nr,rn,nn) at broken shift a=1 = 1,7,1,0",
            "p=   7  counts(rr,nr,rn,nn) at broken shift a=4 = 0,2,2,1",
            "p=  11  counts(rr,nr,rn,nn) over all 10 shifts = 3,3,3,2",
        ]

    def test_perron_outputs_are_pinned(self, capsys, tmp_path):
        # digests of the outputs written from per-shift PerronCounts records
        code, out, _ = run(capsys, "--porcelain", "perron", "--pmax", "500")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "a9e55712c4750ecdc83417b9167e5dd1aa154410d5c5cd1bbf72e4eca9973a63"
        )
        csv_path = tmp_path / "p.csv"
        code, _, _ = run(capsys, "--porcelain", "perron", "--pmax", "500", "--csv", str(csv_path))
        assert code == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "7918931a443834922a740b848e565be45dde0cda9013882bcca7d862773e9a4e"
        )

    def test_perron_csv_rows_are_counts(self, capsys, tmp_path):
        csv_path = tmp_path / "p.csv"
        code, _, _ = run(capsys, "--porcelain", "perron", "--pmax", "11", "--csv", str(csv_path))
        assert code == 0
        expected = [
            "p,a,reste_from_reste,nichtreste_from_reste,"
            "reste_from_nichtreste,nichtreste_from_nichtreste"
        ]
        for p in (3, 7, 11):
            for a in range(1, p):
                expected.append(",".join(map(str, perron_enumeration(p, a))))
        assert csv_path.read_text() == "\n".join(expected) + "\n"


    def test_perron_memory_is_the_stacked_table(self, capsys):
        # the per-prime route held every prime's table at once, so the
        # stacked table is the floor; the report adds no per-row arrays
        rows = sum(p - 1 for p in legendre_mod.primes_3mod4(8011))
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "--porcelain", "perron", "--pmax", "8011")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1.1 * rows * 6 * 8


_CSV_EDGE_VALUES = [0, 9, 10, 99, 100, 999, 1000]


def _percent_rows(table) -> bytes:
    return "".join(",".join("%d" % v for v in row) + "\n" for row in table.tolist()).encode()


class TestIntRowWriter:
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 7)),
        values=st.lists(
            st.sampled_from(_CSV_EDGE_VALUES) | st.integers(0, 10**5), min_size=1, max_size=280
        ),
        block_bytes=st.sampled_from([1, 7, 64, 1 << 16]),
    )
    @example(shape=(1, 6), values=_CSV_EDGE_VALUES, block_bytes=1)
    @example(shape=(7, 1), values=_CSV_EDGE_VALUES, block_bytes=1 << 16)
    @example(shape=(1, 1), values=[0], block_bytes=1)
    def test_equals_the_percent_format(self, shape, values, block_bytes):
        size = shape[0] * shape[1]
        table = np.resize(np.array(values, dtype=np.int64), size).reshape(shape)
        stream = io.BytesIO()
        with mock.patch.object(cli, "_CSV_BLOCK_BYTES", block_bytes):
            cli._write_int_rows(stream, table)
        assert stream.getvalue() == _percent_rows(table)

    def test_empty_table_writes_nothing(self):
        stream = io.BytesIO()
        cli._write_int_rows(stream, np.zeros((0, 6), dtype=np.int64))
        assert stream.getvalue() == b""

    @pytest.mark.parametrize("bad", [-1, -10, np.iinfo(np.int64).min])
    def test_negative_value_raises(self, bad):
        table = np.array([[0, 9, 10], [99, bad, 1000]], dtype=np.int64)
        stream = io.BytesIO()
        with pytest.raises(ValueError, match="non-negative"):
            cli._write_int_rows(stream, table)
        assert stream.getvalue() == b""


class TestPolysys:
    def test_export_with_manifest(self, capsys, tmp_path):
        out_path = str(tmp_path / "sys.txt")
        code, out, _ = run(
            capsys, "--porcelain", "polysys", "--d", "7", "--export", out_path
        )
        assert code == 0
        text = (tmp_path / "sys.txt").read_text()
        assert "x0^2 + 4*x0 - 4" in text.splitlines()
        manifest = json.loads((tmp_path / "sys.txt.manifest.json").read_text())
        assert manifest["d"] == 7
        assert manifest["num_generators"] == 10
        assert manifest["sha256"] == hashlib.sha256(text.encode()).hexdigest()

    def test_stdout_when_no_export(self, capsys):
        code, out, _ = run(capsys, "polysys", "--d", "7")
        assert code == 0
        assert "x1*x6 + x0" in out

    def test_porcelain_needs_export(self, capsys):
        # the generator lines are not key=value pairs, so nothing is printed
        code, out, err = run(capsys, "--porcelain", "polysys", "--d", "7")
        assert (code, out) == (2, "")
        assert "--porcelain needs --export" in err

    def test_symmetry_flag(self, capsys, tmp_path):
        out_path = str(tmp_path / "sys67.txt")
        code, _, _ = run(
            capsys, "polysys", "--d", "67", "--symmetry", "29", "--export", out_path
        )
        assert code == 0
        assert "x1 - x29" in (tmp_path / "sys67.txt").read_text().splitlines()

    def test_cas_format(self, capsys, tmp_path):
        out_path = str(tmp_path / "sys.cas")
        code, _, _ = run(
            capsys, "polysys", "--d", "7", "--export", out_path, "--format", "cas-script"
        )
        assert code == 0
        assert "groebner_basis" in (tmp_path / "sys.cas").read_text()


_NOT_NUMBERS = ["abc", "", "nan", "inf", "-inf", "1e400", "2.5"]

#: search flag -> (valid values, malformed values, texts naming the flag or
#: its invariant).  None omits an optional flag.  --digits, a flag of the
#: program rather than of the subcommand, goes before "search".
_SEARCH_FLAGS = {
    "--digits": (
        st.sampled_from([None, "1", "17", "40"]),
        ["abc", "2.5", "0", "-1", str(2**31)],
        ("--digits",),
    ),
    "--d": (
        st.sampled_from(["3", "5", "7"]),
        [*_NOT_NUMBERS, "0", "-1", "-7", "1", "4", "8"],
        ("--d", "dimension"),
    ),
    "--objective": (
        st.sampled_from(["xoverlap", "sic", "naive_x"]),
        ["abc", "", "nan", "1e400", "-1", "XOVERLAP", "naive"],
        ("--objective",),
    ),
    "--seed": (
        st.integers(0, 10**30).map(str),
        [*_NOT_NUMBERS, "-1", "-5"],
        ("--seed", "seed"),
    ),
    "--restarts": (
        st.sampled_from(["1", "2"]),
        [*_NOT_NUMBERS, "0", "-1"],
        ("--restarts", "restarts"),
    ),
    "--max-iterations": (
        st.sampled_from([None, "1", "2", "3"]),
        [*_NOT_NUMBERS, "0", "-1"],
        ("--max-iterations", "max_iterations"),
    ),
    "--threshold": (
        st.one_of(st.sampled_from([None, "1e-16", "0.5", "4"]), st.floats(1e-300, 1e300).map(repr)),
        ["abc", "", "0", "-0.0", "-1", "nan", "inf", "-inf", "1e400", "1e-400"],
        ("--threshold", "convergence threshold"),
    ),
}

#: One valid value per search flag (None omits it): the base run that
#: test_each_malformed_search_flag_alone makes malformed one flag at a time.
_SEARCH_VALID = {
    "--digits": "17",
    "--d": "7",
    "--objective": "xoverlap",
    "--seed": "3",
    "--restarts": "1",
    "--max-iterations": "2",
    "--threshold": "0.5",
}


def _search_argv(values: dict) -> list[str]:
    """--porcelain search argv with each flag of values that is not None,
    --digits placed before the subcommand."""
    argv = ["--porcelain", "search"]
    for flag, value in values.items():
        if value is not None:
            at = 1 if flag == "--digits" else len(argv)
            argv[at:at] = [flag, value]
    return argv


class TestSearchMatch:
    def test_search_and_out(self, capsys, tmp_path):
        out_path = str(tmp_path / "res.json")
        code, out, _ = run(
            capsys,
            "--porcelain",
            "search",
            "--d",
            "7",
            "--objective",
            "xoverlap",
            "--seed",
            "42",
            "--restarts",
            "5",
            "--out",
            out_path,
        )
        assert code == 0
        pairs = porcelain_dict(out)
        assert float(pairs["best_objective"]) < 1e-16
        assert pairs["converged"] == "true"
        payload = json.loads((tmp_path / "res.json").read_text())
        assert payload["config"]["seed"] == 42
        assert len(payload["results"]) == 5

    def test_search_out_echoes_config_defaults(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        code, _, _ = run(
            capsys, "search", "--d", "5", "--objective", "naive_x", "--seed", "1",
            "--restarts", "1", "--out", str(out_path),
        )
        assert code == 0
        config = json.loads(out_path.read_text())["config"]
        assert config["max_iterations"] == 500
        assert config["convergence_threshold"] == 1e-16
        assert "gradient_step" not in config

    def test_search_deterministic_output(self, capsys):
        code1, out1, _ = run(
            capsys, "--porcelain", "search", "--d", "5", "--objective", "xoverlap",
            "--seed", "7", "--restarts", "3",
        )
        code2, out2, _ = run(
            capsys, "--porcelain", "search", "--d", "5", "--objective", "xoverlap",
            "--seed", "7", "--restarts", "3",
        )
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize("obj", ["xoverlap", "sic", "naive_x"])
    def test_search_out_file_reproducible(self, capsys, tmp_path, obj):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                capsys, "search", "--d", "11", "--objective", obj, "--seed", "3",
                "--restarts", "4", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--threshold", "nan", "convergence threshold"),
            ("--threshold", "inf", "convergence threshold"),
            ("--max-iterations", "0", "max_iterations"),
            ("--max-iterations", "-1", "max_iterations"),
        ],
    )
    def test_search_rejects_bad_settings(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "--porcelain", "search", "--d", "7", "--objective", "xoverlap",
            "--seed", "1", "--restarts", "1", flag, value,
        )
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, stdout_digest, out_digest",
        [
            (
                ("--d", "7", "--objective", "xoverlap", "--seed", "42", "--restarts", "10"),
                "9ce1cd2dd7142f024d3c47eb139cf3c06268d670a45a56c3fe5f97a233acda18",
                "1a1e7421615a41b8d2629fd7f8734b6b401a9adbd1f924bb8b558e7315921044",
            ),
            (
                ("--d", "11", "--objective", "naive_x", "--seed", "123", "--restarts", "10"),
                "043cbbd3fed001ee65e642776d09e9ae907c1709cbe7c6e21ae89e3c3e538ea9",
                "199cbe44dadca6f8337daa182b484d6c5c03ec8d78944e2459353ff49d2dc7fb",
            ),
            (
                ("--d", "7", "--objective", "sic", "--seed", "5", "--restarts", "5"),
                "9e9b0362569b9cf4a614a0b1f672e911644fb0c01504d832fd0560fd5706770f",
                "1517cdcaeb9907e66cfaa627f09ef92532501e9cece587ef05b5f616d5989968",
            ),
            (
                ("--d", "19", "--objective", "xoverlap", "--seed", "7", "--restarts", "5"),
                "babf4684328e589df9dac9828f647c2746e385fadab8e6be37bfd5ff4795cf64",
                "aaadd5d747bd6afdb1b5bc7b6030c6f9244248eb421e46a76ac3c1a8f900944c",
            ),
            (
                # restart 9 ends with status 2 after a retry along -g
                ("--d", "7", "--objective", "xoverlap", "--seed", "3", "--restarts", "10"),
                "572c860f927068cd33cc116d3de6d0dcf03174c0a3f206735bfcba814eb40fcc",
                "89df67cfa7c018f2c9eb63b5ded267263c72124ac5a26546024362212862626e",
            ),
        ],
        ids=["xoverlap-d7", "naive_x-d11", "sic-d7", "xoverlap-d19", "xoverlap-d7-retry"],
    )
    def test_search_outputs_are_pinned(
        self, capsys, tmp_path, monkeypatch, argv, stdout_digest, out_digest
    ):
        # digests of the search outputs.  xoverlap and naive_x were re-pinned when
        # their transforms became products with the DFT matrix (small d): the
        # converged restarts and their angles (to 2e-15) stayed, the rounding
        # of objectives near zero moved the d = 7 best restart and some
        # non-converged iteration counts.  sic was re-pinned when its table
        # went through the same products: the converged set, the best
        # restart's angles and every converged restart's iterations stayed,
        # the best objective moved at rounding level and the non-converged
        # restart took one step fewer.  Every --out file gained each restart's
        # evaluations and status.  A relative --out keeps stdout fixed.
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "--porcelain", "search", *argv, "--out", "res.json")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest
        assert hashlib.sha256((tmp_path / "res.json").read_bytes()).hexdigest() == out_digest

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_search_flags_fuzz(self, data):
        # each flag gets a valid value or a malformed one; valid runs stay tiny
        # (d <= 7, at most 2 restarts and 3 iterations).  A malformed value
        # exits 2 with empty stdout and a message naming a malformed flag or
        # its invariant; an all-valid run exits 0.  Nothing raises.
        argv, malformed = ["--porcelain", "search"], []
        for flag, (valid, bad, names) in _SEARCH_FLAGS.items():
            ok = data.draw(st.integers(0, 3), label=f"{flag} valid") > 0
            value = data.draw(valid if ok else st.sampled_from(bad), label=flag)
            if value is not None:
                at = 1 if flag == "--digits" else len(argv)
                argv[at:at] = [flag, value]
            if not ok:
                malformed.append(names)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if not malformed:
            assert (code, err.getvalue()) == (0, "")
            assert porcelain_dict(out.getvalue())["restarts"] in ("1", "2")
        else:
            assert (code, out.getvalue()) == (2, "")
            assert any(name in err.getvalue() for names in malformed for name in names)

    @pytest.mark.parametrize(
        "flag, bad", [(flag, bad) for flag, (_, bads, _) in _SEARCH_FLAGS.items() for bad in bads]
    )
    def test_each_malformed_search_flag_alone(self, capsys, flag, bad):
        # every other flag takes a valid value, so the one malformed value
        # alone must stop the run, and the message must name its flag
        code, out, err = run(capsys, *_search_argv({**_SEARCH_VALID, flag: bad}))
        assert (code, out) == (2, "")
        assert any(name in err for name in _SEARCH_FLAGS[flag][2]), err

    def test_valid_search_flags_run(self, capsys):
        code, out, err = run(capsys, *_search_argv(_SEARCH_VALID))
        assert (code, err) == (0, "")
        assert porcelain_dict(out)["restarts"] == "1"

    def test_match(self, capsys, tmp_path, d7_file):
        other = tmp_path / "other.json"
        other.write_text(dump_vector(normalize_rescaled(d7_solution(+1))))
        code, out, _ = run(capsys, "--porcelain", "match", d7_file, d7_file)
        assert code == 0
        assert porcelain_dict(out)["match"] == "true"
        code, out, _ = run(capsys, "--porcelain", "match", d7_file, str(other))
        assert code == 1
        assert porcelain_dict(out)["match"] == "false"

    def test_match_small_first_component_pair(self, capsys, tmp_path):
        paths = []
        for name, vec in zip("ab", small_first_component_pair()):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(dump_vector(vec))
        for first, second in (paths, paths[::-1]):
            code, out, _ = run(capsys, "--porcelain", "match", str(first), str(second))
            assert (code, porcelain_dict(out)["match"]) == (0, "true")

    def test_match_across_forms(self, capsys, tmp_path):
        # files of every form match each other; the moved angle matches
        # only itself, and each verdict exits 0 or 1
        forms, moved = d7_forms()
        paths = {}
        for name, vec in [*forms.items(), ("moved", moved)]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(dump_vector(vec))
        for first in paths:
            for second in paths:
                matched = (first == "moved") == (second == "moved")
                argv = ["--porcelain", "match", str(paths[first]), str(paths[second])]
                code, out, _ = run(capsys, *argv)
                assert (code, porcelain_dict(out)) == (1 - matched, {"match": str(matched).lower()})


class TestErrors:
    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "malformed JSON" in err

    @pytest.mark.parametrize("command", ["verify", "match"])
    def test_deeply_nested_file(self, capsys, tmp_path, command):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, command, *[str(bad)] * (2 if command == "match" else 1))
        assert (code, out) == (2, "")
        assert "malformed JSON" in err
        assert "Traceback" not in err

    def test_length_mismatch_file(self, capsys, tmp_path):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"d": 7, "form": "normalized", "components": [[1.0, 0.0]] * 5}))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "components-length" in err

    def test_norm_violation_file(self, capsys, tmp_path):
        bad = tmp_path / "norm.json"
        bad.write_text(json.dumps({"d": 2, "form": "normalized", "components": [[2.0, 0.0], [0.0, 0.0]]}))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "normalized-norm" in err

    def test_non_finite_component_file(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text(
            '{"d": 3, "form": "normalized", '
            '"components": [[NaN, 0.0], [0.7071067812, 0.0], [-0.7071067812, 0.0]]}'
        )
        code, out, err = run(capsys, "--porcelain", "verify", str(bad))
        assert code == 2
        assert out == ""
        assert "finite-components" in err

    def test_boolean_component_file(self, capsys, tmp_path):
        bad = tmp_path / "bool.json"
        bad.write_text(
            '{"d": 2, "form": "normalized", "components": [[true, false], [false, false]]}'
        )
        code, out, err = run(capsys, "--porcelain", "verify", str(bad))
        assert code == 2
        assert out == ""
        assert "number pair" in err

    @pytest.mark.parametrize(
        "text, invariant",
        [(rescaled_d7_text(2.0), "rescaled-x0-real"), (ZERO_D3_RESCALED, "rescaled-x0-nonzero")],
        ids=["complex-x0", "zero-x0"],
    )
    @pytest.mark.parametrize("command", ["verify", "xoverlap", "gik"])
    def test_rescaled_x0_rejected_before_output(self, capsys, tmp_path, command, text, invariant):
        bad = tmp_path / "x0.json"
        bad.write_text(text)
        code, out, err = run(capsys, "--porcelain", command, str(bad))
        assert code == 2
        assert out == ""
        assert f"[invariant: {invariant}]" in err

    @pytest.mark.parametrize("command", ["verify", "xoverlap", "gik"])
    def test_rescaled_x0_within_slack_accepted(self, capsys, tmp_path, command):
        ok = tmp_path / "x0.json"
        ok.write_text(rescaled_d7_text(0.5))
        code, out, err = run(capsys, "--porcelain", command, str(ok))
        assert (code, err) == (0, "")
        pairs = porcelain_dict(out)
        assert pairs["d"] == "7"
        if command == "verify":  # Im x0 is dropped once the load check accepts it
            assert pairs["sic_verdict"] == "pass"

    @pytest.mark.parametrize(
        "argv",
        [
            ["legendre", "--d", "7", "--out"],
            ["ansatz-build", "--d", "7", "--angles", "0,1,2", "--out"],
            ["perron", "--pmax", "31", "--csv"],
            ["polysys", "--d", "7", "--export"],
            ["search", "--d", "7", "--objective", "xoverlap", "--seed", "1", "--restarts", "1",
             "--out"],
            ["gik", "VECTOR", "--csv"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("porcelain", [[], ["--porcelain"]], ids=["human", "porcelain"])
    def test_unwritable_output_prints_nothing(self, capsys, tmp_path, d7_file, argv, porcelain):
        # the keys are computed before the write fails; a run that exits 2
        # prints none of them
        target = str(tmp_path / "missing" / "out")
        argv = [d7_file if arg == "VECTOR" else arg for arg in argv]
        code, out, err = run(capsys, *porcelain, *argv, target)
        assert (code, out) == (2, "")
        assert target in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    @pytest.mark.parametrize("command", ["verify", "legendre", "lemma1", "match"])
    def test_bad_tolerance(self, capsys, d7_file, command, tol):
        argv = {
            "verify": ["verify", d7_file],
            "legendre": ["legendre", "--d", "7"],
            "lemma1": ["lemma1", "--pmax", "31"],
            "match": ["match", d7_file, d7_file],
        }[command]
        code, out, err = run(capsys, "--porcelain", *argv, "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize("tol, shown", [("0", "0.0"), ("nan", "nan"), ("inf", "inf")])
    def test_lemma1_tolerance_message(self, capsys, tol, shown):
        code, out, err = run(capsys, "--porcelain", "lemma1", "--pmax", "31", "--tol", tol)
        assert (code, out) == (2, "")
        assert err == f"error: tolerance must be positive and finite, got {shown}\n"

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "fourier")[0] == 2

    def test_missing_required(self, capsys):
        assert run(capsys, "dim-info")[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/vec.json")
        assert code == 2
