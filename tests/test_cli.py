"""Command line surface: outputs, formats, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from permupower import classify_sampled, cli, perm_core
from permupower.catalog import BUILTIN_NAMES
from permupower.latin import construct_mols, format_pair, parse_pair_file
from permupower import entangling_power, format_biperm, parse_biperm, random_perm


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_peak(argv, capsys):
    """Run argv in process; return its result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = run(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestPower:
    @pytest.mark.parametrize(
        "source,d", [(["--builtin", "r9"], 3), (["--builtin", "min:4"], 4), ("file", 3)]
    )
    def test_d_must_match_the_permutation(self, capsys, tmp_path, source, d):
        if source == "file":
            path = tmp_path / "r9.txt"
            path.write_text("d=3\n1 6 8 5 7 3 9 2 4\n")
            source = ["--file", str(path)]
        code, out, err = run(["power", *source, "--d", str(d + 2)], capsys)
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and f"dimension {d}" in err
        code, out, _ = run(["power", *source, "--d", str(d)], capsys)
        assert code == 0 and json.loads(out)["d"] == d

    def test_r9(self, capsys):
        code, out, _ = run(["power", "--builtin", "r9"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["epsilon"] == {"num": 3, "den": 4}

    def test_d6hat(self, capsys):
        code, out, _ = run(["power", "--builtin", "d6hat"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["q_p"], payload["q_ps"]) == (40, 36)
        assert payload["epsilon"] == {"num": 628, "den": 735}

    def test_identity_d5(self, capsys):
        code, out, _ = run(["power", "--builtin", "identity", "--d", "5"], capsys)
        assert code == 0
        assert json.loads(out)["epsilon"] == {"num": 0, "den": 1}

    def test_builtin_min_and_mols(self, capsys):
        code, out, _ = run(["power", "--builtin", "min:4"], capsys)
        assert code == 0
        assert json.loads(out)["epsilon"] == {"num": 6, "den": 25}
        code, out, _ = run(["power", "--builtin", "mols:7"], capsys)
        assert code == 0
        assert json.loads(out)["epsilon"] == {"num": 7, "den": 8}

    def test_text_and_csv_formats(self, capsys):
        code, out, _ = run(
            ["power", "--builtin", "cnot", "--format", "text"], capsys
        )
        assert code == 0 and "epsilon  4/9" in out
        code, out, _ = run(
            ["power", "--builtin", "cnot", "--format", "csv"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "d,q_p,q_ps,epsilon_num,epsilon_den,epsilon_float"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("d=2\n1 2 4 3\n")
        code, out, _ = run(["power", "--file", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["epsilon"] == {"num": 4, "den": 9}

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("d=2\n1 2 2 3\n")
        code, _, err = run(["power", "--file", str(path)], capsys)
        assert code == 2
        assert "duplicate" in err

    @pytest.mark.parametrize(
        "text,token",
        [
            ("d=2\n1 2 3 +4\n", "'+4'"),
            ("d=2\n1 2 3 ٤\n", "'٤'"),
            ("d=4\n" + " ".join("1_0" if v == 10 else str(v) for v in range(1, 17)), "'1_0'"),
            ("d=1_0\n" + " ".join(map(str, range(1, 101))), "'1_0'"),
        ],
        ids=["plus", "arabic-indic", "underscore", "underscore-header"],
    )
    def test_non_decimal_token_exit_2(self, capsys, tmp_path, text, token):
        path = tmp_path / "perm.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(["power", "--file", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and token in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(["power", "--file", str(tmp_path / "nope")], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv", [["power", "--file"], ["mols", "--d", "3", "--out", "p.txt", "--table"]],
        ids=["power", "mols"],
    )
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.txt").write_bytes(b"d=2\n1 2 3 \xff\n")
        code, out, err = run([*argv, "bad.txt"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "bad.txt" in err and "position" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["bad.txt"]

    @pytest.mark.parametrize(
        "out, message", [(".", "is a directory"), ("missing/dir/x", "no directory")],
        ids=["out-is-directory", "missing-directory"],
    )
    def test_bad_out_exit_2_before_count(self, capsys, tmp_path, monkeypatch, out, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the power was counted before --out was checked")

        monkeypatch.setattr(cli, "entangling_power", refuse)
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(["power", "--builtin", "identity", "--d", "5", "--out", out],
                                capsys)
        assert code == 2 and stdout == ""
        assert err.count("error:") == 1 and message in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_builtin_exit_2(self, capsys):
        code, _, err = run(["power", "--builtin", "wat"], capsys)
        assert code == 2 and "unknown builtin" in err
        for tail in ("+5", "1_0"):
            code, out, err = run(["power", "--builtin", f"min:{tail}"], capsys)
            assert code == 2 and out == ""
            assert err == f"error: builtin 'min:{tail}': '{tail}' is not an integer\n"

    def test_unknown_builtin_lists_every_name(self, capsys):
        code, _, err = run(["power", "--builtin", "wat"], capsys)
        assert code == 2 and err.count("error:") == 1
        assert err.rstrip().endswith("available: " + ", ".join(BUILTIN_NAMES))

    def test_unsupported_order_exit_3(self, capsys):
        code, _, err = run(["power", "--builtin", "mols:6"], capsys)
        assert code == 3

    @pytest.mark.parametrize("d,exit_code", [(6, 3), (216, 1), (218, 1)])
    def test_mols_side_exit_code(self, capsys, d, exit_code):
        # above the cap every side exits 1, supported or not; below it an
        # unsupported side exits 3
        code, out, err = run(["power", "--builtin", f"mols:{d}"], capsys)
        assert code == exit_code and out == "" and err.count("error:") == 1
        assert ("cap 215" in err) == (exit_code == 1)


class TestClassify:
    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_exhaustive_d1_exit_1(self, capsys, tmp_path, force):
        out_file = tmp_path / "census.json"
        code, out, err = run(
            ["classify", "--d", "1", "--exhaustive", "--out", str(out_file), *force], capsys
        )
        assert code == 1 and out == "" and not out_file.exists()
        assert err.count("error:") == 1 and "entangling power needs d >= 2" in err

    def test_d2_exhaustive(self, capsys, tmp_path):
        out_file = tmp_path / "census.json"
        code, out, _ = run(
            ["classify", "--d", "2", "--exhaustive", "--out", str(out_file)], capsys
        )
        assert code == 0
        assert "classes   2 (bound 4)" in out
        payload = json.loads(out_file.read_text())
        assert payload["total"] == 24
        assert payload["classes"][0] == {"num": 0, "den": 1, "count": 8}
        assert payload["classes"][1] == {"num": 4, "den": 9, "count": 16}

    def test_budget_exit_4(self, capsys, tmp_path):
        code, _, err = run(
            ["classify", "--d", "4", "--exhaustive",
             "--out", str(tmp_path / "x.json")], capsys,
        )
        assert code == 4 and "force" in err

    def test_sampled_reproducible_across_workers(self, capsys, tmp_path):
        # the histogram file and the whole stdout, `sampled` and `exact` lines included
        out = tmp_path / "c.json"
        base = ["classify", "--d", "3", "--samples", "60000", "--seed", "11", "--out", str(out)]
        results = []
        for workers in ("1", "3"):
            code, stdout, _ = run(base + ["--workers", workers], capsys)
            results.append((code, stdout, out.read_bytes()))
        assert results[0] == results[1]
        assert results[0][0] == 0 and "z = " in results[0][1]

    def test_sampled_prints_z_against_exact_mean(self, capsys, tmp_path):
        out_file = tmp_path / "census.json"
        code, out, _ = run(
            ["classify", "--d", "4", "--samples", "20000", "--seed", "3",
             "--out", str(out_file)], capsys,
        )
        assert code == 0
        hist = classify_sampled(4, 20000, 3)
        z = float(hist.mean() - Fraction(7608, 11375)) / hist.std_error()
        assert f"exact     mean 7608/11375 = 0.668835, z = {z:+.2f}\n" in out
        assert out_file.read_text() == hist.to_json() + "\n"

    def test_sampled_z_with_zero_error(self, capsys, tmp_path):
        # two d = 2 draws of the same class: the standard error is 0
        code, out, _ = run(
            ["classify", "--d", "2", "--samples", "2", "--seed", "4",
             "--out", str(tmp_path / "c.json")], capsys,
        )
        assert code == 0 and "z = undefined (SE 0)" in out

    def test_exhaustive_prints_no_z(self, capsys, tmp_path):
        code, out, _ = run(
            ["classify", "--d", "2", "--exhaustive", "--out", str(tmp_path / "c.json")],
            capsys,
        )
        assert code == 0 and "exact" not in out

    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "census.csv"
        code, _, _ = run(
            ["classify", "--d", "2", "--exhaustive", "--format", "csv",
             "--out", str(out_file)], capsys,
        )
        assert code == 0
        assert out_file.read_text().splitlines()[0].startswith("epsilon_num")

    @pytest.mark.parametrize(
        "mode", [["--exhaustive"], ["--samples", "1000"]], ids=["exhaustive", "sampled"]
    )
    def test_missing_out_directory_exit_2_before_census(
        self, capsys, tmp_path, monkeypatch, mode
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("census ran before --out was checked")

        monkeypatch.setattr(cli, "classify_exhaustive", refuse)
        monkeypatch.setattr(cli, "classify_sampled", refuse)
        out_file = tmp_path / "missing" / "census.json"
        code, out, err = run(["classify", "--d", "3", *mode, "--out", str(out_file)], capsys)
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and str(tmp_path / "missing") in err
        assert not out_file.parent.exists()
        # an --out that names a directory
        code, out, err = run(["classify", "--d", "3", *mode, "--out", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "is a directory" in err
        assert list(tmp_path.iterdir()) == []


class TestMols:
    def test_writes_pair_and_perm(self, capsys, tmp_path):
        out_file = tmp_path / "pair.txt"
        code, out, _ = run(["mols", "--d", "7", "--out", str(out_file)], capsys)
        assert code == 0
        pair = parse_pair_file(out_file.read_text())
        assert len(pair[0]) == 7
        perm = parse_biperm((tmp_path / "pair.txt.perm").read_text())
        assert entangling_power(perm).epsilon.numerator == 7

    def test_unsupported_exit_3(self, capsys, tmp_path):
        code, _, err = run(
            ["mols", "--d", "10", "--out", str(tmp_path / "p.txt")], capsys
        )
        assert code == 3 and "Bose-Shrikhande-Parker" in err

    def test_over_cap_writes_nothing(self, capsys, tmp_path):
        out_file = tmp_path / "p.txt"
        code, out, err = run(["mols", "--d", "216", "--out", str(out_file)], capsys)
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "cap 215" in err
        assert not out_file.exists()
        assert not (tmp_path / "p.txt.perm").exists()

    @pytest.mark.parametrize(
        "out, message",
        [("missing/p.txt", "no directory"), ("p.txt", "p.txt.perm is a directory"),
         (".", "is a directory")],
        ids=["missing-directory", "perm-is-directory", "out-is-directory"],
    )
    def test_bad_out_exit_2_writes_nothing(self, capsys, tmp_path, monkeypatch, out, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the pair was built before the output paths were checked")

        monkeypatch.setattr(cli, "construct_mols", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.txt.perm").mkdir()
        code, stdout, err = run(["mols", "--d", "5", "--out", out], capsys)
        assert code == 2 and stdout == ""
        assert err.count("error:") == 1 and message in err
        assert [path.name for path in tmp_path.iterdir()] == ["p.txt.perm"]
        assert list((tmp_path / "p.txt.perm").iterdir()) == []

    def test_table_passthrough(self, capsys, tmp_path):
        src = tmp_path / "src.txt"
        run(["mols", "--d", "9", "--out", str(src)], capsys)
        out_file = tmp_path / "loaded.txt"
        code, _, _ = run(
            ["mols", "--d", "9", "--table", str(src), "--out", str(out_file)], capsys
        )
        assert code == 0 and out_file.read_text() == src.read_text()

    @pytest.mark.parametrize(
        "table,message",
        [(format_pair(construct_mols(5)), "pair file has side 5, requested 3"),
         ("1 2 3\n2 3 1\n3 1 2\n\n1 2 3\n2 3 1\n3 1 2\n", "are not orthogonal")],
        ids=["wrong-side", "not-orthogonal"],
    )
    def test_table_rejected_exit_3(self, capsys, tmp_path, monkeypatch, table, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "table.txt").write_text(table)
        code, out, err = run(["mols", "--d", "3", "--table", "table.txt"], capsys)
        assert code == 3 and out == ""
        assert err.count("error:") == 1 and message in err
        assert [path.name for path in tmp_path.iterdir()] == ["table.txt"]

    def test_table_extra_line_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table = "1 2 3\n2 3 1\n3 1 2\nextra junk\n\n1 3 2\n2 1 3\n3 2 1\n"
        (tmp_path / "table.txt").write_text(table)
        code, out, err = run(["mols", "--d", "3", "--table", "table.txt"], capsys)
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "line 1: square of side 3 needs 3 lines" in err
        assert [path.name for path in tmp_path.iterdir()] == ["table.txt"]


class TestSample:
    def test_deterministic(self, capsys):
        code, out1, _ = run(["sample", "--d", "3", "--count", "2", "--seed", "5"], capsys)
        assert code == 0
        _, out2, _ = run(["sample", "--d", "3", "--count", "2", "--seed", "5"], capsys)
        assert out1 == out2
        blocks = [b for b in out1.split("d=3") if b.strip()]
        assert len(blocks) == 2

    def test_parses_back(self, capsys):
        _, out, _ = run(["sample", "--d", "4", "--seed", "8"], capsys)
        perm = parse_biperm(out)
        assert perm.d == 4

    @pytest.mark.parametrize("d,count", [(32, 1500), (40, 700)])
    def test_matches_random_perm(self, capsys, tmp_path, d, count):
        # both counts end partway through a block of the sampler
        rng = np.random.default_rng(9)
        want = "\n".join(format_biperm(random_perm(d, rng)) for _ in range(count))
        argv = ["sample", "--d", str(d), "--count", str(count), "--seed", "9"]
        code, out, _ = run(argv, capsys)
        assert code == 0 and out == want
        out_file = tmp_path / "s.txt"
        code, out, _ = run([*argv, "--out", str(out_file)], capsys)
        assert code == 0 and out == "" and out_file.read_text() == want

    def test_memory_does_not_grow_with_count(self, capsys, tmp_path, monkeypatch):
        # small sampler blocks, so that the counts span several of them.  At
        # d = 32 a block is 64 draws (256 KiB): 130 draws fill two and start a
        # third, and a second live block would add 256 KiB to the peak
        for d, cells, counts in ((8, 1 << 12, ("250", "2000")), (32, 1 << 16, ("64", "130"))):
            monkeypatch.setattr(perm_core, "BLOCK_CELLS", cells)
            argv = ["sample", "--d", str(d), "--out", str(tmp_path / "s.txt"), "--count"]
            assert run([*argv, "10"], capsys)[0] == 0  # first-call setup, untraced
            peaks = []
            for count in counts:
                (code, _, _), peak = traced_peak([*argv, count], capsys)
                assert code == 0
                peaks.append(peak)
            assert peaks[1] < peaks[0] + (64 << 10), d


class TestDimensionCap:
    """A dimension above the cap exits 1 before anything of size d is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["power", "--builtin", "identity", "--d", "1000"],
            ["power", "--builtin", "swap", "--d", "1000"],
            ["power", "--builtin", "min:1000"],
            ["power", "--builtin", "mols:1001"],
            ["power", "--builtin", "mols:1001", "--out", "p.json"],
            ["power", "--file", "d1000.txt"],
            ["power", "--file", "d1000-full.txt"],
            ["mols", "--d", "1001"],
            ["mols", "--d", "1001", "--out", "p.txt"],
            ["verify", "theorem4", "--d", "1001"],
            ["verify", "theorem7", "--d", "1000"],
            ["classify", "--d", "1000", "--samples", "10"],
            ["classify", "--d", "1000", "--exhaustive", "--force"],
            ["sample", "--d", "1000"],
            ["sample", "--d", "1000", "--out", "s.txt"],
        ],
        ids=lambda argv: "_".join(a.lstrip("-").replace(":", "-") for a in argv),
    )
    def test_exit_1_in_bounded_memory(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        # d1000.txt: line 2 is short of the header's 10^6 values, so reading
        # it would exit 2; d1000-full.txt holds all of them, 6.9 MB
        names = sorted(set(argv) & {"d1000.txt", "d1000-full.txt"})
        for name in names:
            line2 = "1 2 3" if name == "d1000.txt" else " ".join(map(str, range(1, 10**6 + 1)))
            (tmp_path / name).write_text(f"d=1000\n{line2}\n")
        (code, out, err), peak = traced_peak(argv, capsys)
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "exceeds the supported cap 215" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == names
        assert peak < 1 << 20  # building any of these at d ~ 1000 takes 8-160 MiB


class TestVerify:
    @pytest.mark.parametrize(
        "target,d",
        [(target, "1") for target in cli.VERIFY_TARGETS]
        + [("theorem4", "216"), ("theorem4", "217")],
    )
    def test_dimension_error_before_any_check(self, capsys, target, d):
        code, out, err = run(["verify", target, "--d", d, "--samples", "10"], capsys)
        assert code == 1 and out == ""
        if d == "1":
            assert err == "error: entangling power needs d >= 2\n"
        else:
            assert err == f"error: d = {d} exceeds the supported cap 215\n"

    @pytest.mark.parametrize(
        "target,d,code,message",
        [("theorem4", "6", 3, "side 6 exist"),
         ("theorem4", "10", 3, "Bose-Shrikhande-Parker"),
         ("tables", "4", 4, "reference census only available for d = 2, 3")],
    )
    def test_unsupported_side_before_any_check(self, capsys, target, d, code, message):
        result, out, err = run(["verify", target, "--d", d], capsys)
        assert result == code and out == ""
        assert err.count("error:") == 1 and message in err

    def test_theorem7(self, capsys):
        code, out, _ = run(["verify", "theorem7"], capsys)
        assert code == 0 and "all checks passed" in out

    def test_theorem4_single_d(self, capsys):
        code, out, _ = run(["verify", "theorem4", "--d", "5"], capsys)
        assert code == 0 and "[pass]" in out

    def test_theorem4_power_of_two(self, capsys):
        code, out, _ = run(["verify", "theorem4", "--d", "32"], capsys)
        assert code == 0 and "all checks passed" in out

    def test_tables_d2(self, capsys):
        code, out, _ = run(["verify", "tables", "--d", "2"], capsys)
        assert code == 0

    def test_tables_d3(self, capsys):
        code, out, _ = run(["verify", "tables", "--d", "3"], capsys)
        assert code == 0 and "15 known classes" in out

    def test_formula_vs_oracle(self, capsys):
        code, out, _ = run(
            ["verify", "formula-vs-oracle", "--d", "3", "--samples", "50"], capsys
        )
        assert code == 0 and "max |diff|" in out

    def test_mc_vs_formula_small(self, capsys):
        code, out, _ = run(
            ["verify", "mc-vs-formula", "--d", "2", "--samples", "20000"], capsys
        )
        assert code == 0

    @pytest.mark.parametrize("target", ["formula-vs-oracle", "mc-vs-formula"])
    def test_oracle_cap_exit_4(self, capsys, monkeypatch, target):
        # the cap is checked before any exact power or [pass] line
        def refuse(perm):
            raise AssertionError("computed a power above the oracle cap")

        monkeypatch.setattr(cli, "entangling_power", refuse)
        code, out, err = run(["verify", target, "--d", "13", "--samples", "10"], capsys)
        assert code == 4 and out == ""
        assert err.count("error:") == 1 and "d <= 12" in err

    def test_failure_exit_5(self, capsys, monkeypatch):
        from fractions import Fraction
        from permupower import golden

        monkeypatch.setitem(golden.EXPECTED_CENSUS, 2, {Fraction(0): 24})
        code, out, _ = run(["verify", "tables", "--d", "2"], capsys)
        assert code == 5 and "[FAIL] d=2 census classes" in out

    def test_mean_checked_against_exact_mean(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "exact_mean", lambda d: Fraction(1, 2))
        code, out, _ = run(["verify", "tables", "--d", "2"], capsys)
        assert code == 5
        assert out.splitlines() == [
            "[pass] d=2 census classes: expected 2 known classes, got 2 classes",
            "[FAIL] d=2 census mean: expected 1/2, got 8/27",
        ]


class TestArgumentBoundary:
    """Bad arguments end in exit 2 and one `error:` line, never a traceback."""

    def rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_negative_seed(self, capsys, tmp_path):
        argv = ["classify", "--d", "3", "--samples", "100", "--seed", "-1",
                "--out", str(tmp_path / "x.json")]
        assert "--seed" in self.rejected(argv, capsys)
        assert not (tmp_path / "x.json").exists()

    def test_zero_workers(self, capsys, tmp_path):
        argv = ["classify", "--d", "2", "--exhaustive", "--workers", "0",
                "--out", str(tmp_path / "x.json")]
        assert "--workers" in self.rejected(argv, capsys)
        assert not (tmp_path / "x.json").exists()

    def test_sample_zero_dimension(self, capsys):
        assert "--d" in self.rejected(["sample", "--d", "0"], capsys)

    def test_sample_zero_count(self, capsys):
        assert "--count" in self.rejected(["sample", "--d", "3", "--count", "0"], capsys)

    def test_verify_zero_samples(self, capsys):
        argv = ["verify", "formula-vs-oracle", "--d", "2", "--samples", "0"]
        assert "--samples" in self.rejected(argv, capsys)

    def test_non_integer_dimension(self, capsys):
        # integers are plain decimal, as in files: int alone takes "+4", "1_0" and "٤"
        for token in ("x", "+4", "1_0", "٤"):
            err = self.rejected(["sample", "--d", token], capsys)
            assert f"argument --d: invalid int value: {token!r}" in err
            err = self.rejected(["power", "--builtin", "identity", "--d", token], capsys)
            assert f"argument --d: invalid int value: {token!r}" in err
        err = self.rejected(["classify", "--d", "2", "--samples", "1_000"], capsys)
        assert "argument --samples: invalid int value: '1_000'" in err

    def test_classify_text_format(self, capsys, tmp_path):
        argv = ["classify", "--d", "2", "--exhaustive", "--format", "text",
                "--out", str(tmp_path / "x.json")]
        assert "--format" in self.rejected(argv, capsys)
        assert not (tmp_path / "x.json").exists()

    def test_mols_format(self, capsys, tmp_path):
        argv = ["mols", "--d", "5", "--format", "csv", "--out", str(tmp_path / "p.txt")]
        assert "--format" in self.rejected(argv, capsys)
        assert not any(tmp_path.iterdir())

    def test_power_force(self, capsys):
        assert "--force" in self.rejected(["power", "--builtin", "r9", "--force"], capsys)

    def test_sampled_checkpoint_dir(self, capsys, tmp_path):
        argv = ["classify", "--d", "3", "--samples", "100",
                "--checkpoint-dir", str(tmp_path / "ck"), "--out", str(tmp_path / "x.json")]
        code, _, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "--checkpoint-dir" in err
        assert not any(tmp_path.iterdir())

    def test_verify_out(self, capsys, tmp_path):
        argv = ["verify", "theorem7", "--d", "3", "--out", str(tmp_path / "v.txt")]
        assert "--out" in self.rejected(argv, capsys)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--seed", "--workers"])
    def test_mols_seed_and_workers(self, capsys, tmp_path, flag):
        argv = ["mols", "--d", "5", flag, "2", "--out", str(tmp_path / "p.txt")]
        assert flag in self.rejected(argv, capsys)
        assert not any(tmp_path.iterdir())

    def test_sample_workers(self, capsys):
        assert "--workers" in self.rejected(["sample", "--d", "2", "--workers", "2"], capsys)

    def test_sampled_force(self, capsys, tmp_path):
        argv = ["classify", "--d", "3", "--samples", "100", "--force",
                "--out", str(tmp_path / "x.json")]
        code, _, err = run(argv, capsys)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "--force" in err
        assert not any(tmp_path.iterdir())

    def test_seed_bound(self, capsys, tmp_path):
        argv = ["classify", "--d", "3", "--samples", "100", "--seed", str(2**32),
                "--out", str(tmp_path / "x.json")]
        assert "--seed" in self.rejected(argv, capsys)
        assert not any(tmp_path.iterdir())
        code, out, _ = run(["sample", "--d", "2", "--seed", str(2**32 - 1)], capsys)
        assert code == 0 and out.startswith("d=2")

    @pytest.mark.parametrize(
        "argv",
        [["mols", "--d", "1", "--out", "p.txt"], ["power", "--builtin", "min:1"],
         ["power", "--builtin", "mols:1"],
         ["power", "--builtin", "identity", "--d", "1", "--out", "p.json"]],
        ids=["mols", "power-min", "power-mols", "power-identity"],
    )
    def test_d1_exit_1(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 1 and out == "" and not any(tmp_path.iterdir())
        assert err == "error: entangling power needs d >= 2\n"

    def test_other_errors_exit_1(self, capsys, tmp_path):
        code, _, err = run(
            ["classify", "--d", "3", "--samples", "0",
             "--out", str(tmp_path / "x.json")], capsys,
        )
        assert code == 1 and err.startswith("error: ")
        code, _, err = run(["power", "--builtin", "identity", "--d", "216"], capsys)
        assert code == 1 and "cap 215" in err


class TestConfig:
    def test_one_worker_by_default(self):
        args = cli.build_parser().parse_args(["classify", "--d", "2", "--exhaustive"])
        assert args.workers == 1

    def test_default_seed_reproducible(self, capsys):
        _, out1, _ = run(["sample", "--d", "3"], capsys)
        _, out2, _ = run(["sample", "--d", "3"], capsys)
        assert out1 == out2


class TestStartup:
    """numpy and the process pool load only in the commands that use them.

    Each check runs in a fresh interpreter, since this one has numpy loaded.
    """

    @staticmethod
    def fresh(code, cwd):
        """Run `code` in a fresh interpreter; return its last stdout line, as JSON."""
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)], cwd=cwd,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_import_loads_neither_numpy_nor_multiprocessing(self, tmp_path):
        loaded = self.fresh("""
            import json, sys
            import permupower.cli
            print(json.dumps(["numpy" in sys.modules, "multiprocessing" in sys.modules]))
        """, tmp_path)
        assert loaded == [False, False]

    def test_integer_commands_never_load_numpy(self, tmp_path):
        # per command: its exit code, and whether numpy is loaded after it
        after = self.fresh("""
            import json, sys
            from permupower import cli
            after = []
            for argv in (
                ["power", "--builtin", "min:7"],
                ["mols", "--d", "7", "--out", "pair.txt"],
                ["verify", "theorem7"],
                ["verify", "theorem4", "--d", "5"],
            ):
                after.append([cli.main(argv), "numpy" in sys.modules])
            print(json.dumps(after))
        """, tmp_path)
        assert after == [[0, False]] * 4

    def test_numpy_loaded_before_the_pool_forks(self, tmp_path):
        # a stand-in pool records what is loaded when the pool is constructed
        result = self.fresh("""
            import concurrent.futures, json, sys
            from permupower import cli
            opened = []

            class RecordingPool:
                def __init__(self, max_workers):
                    opened.append(["numpy" in sys.modules, max_workers])

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def map(self, fn, *iterables):
                    return map(fn, *iterables)

            concurrent.futures.ProcessPoolExecutor = RecordingPool
            argv = ["classify", "--d", "2", "--exhaustive", "--workers", "2",
                    "--out", "census.json"]
            print(json.dumps([cli.main(argv), opened]))
        """, tmp_path)
        assert result == [0, [[True, 2]]]
