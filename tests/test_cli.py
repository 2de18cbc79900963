import json
import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rkforge import cli, codegen, shipped_method_path
from rkforge.cli import main
from rkforge.generated import METHODS
from rkforge.problems import ArenstorfParams, benchmark_case
from rkforge.stepcontrol import (
    DivergenceError,
    IntegrationOptions,
    StepKernel,
    StepLog,
    Trajectory,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE_VDP = ("solve", "--method", "DOPRI5", "--problem", "vdp")
SAMPLE_ERK43B = json.dumps([m for m in json.loads(shipped_method_path().read_text())
                            if m["name"] == "ERK43b"])


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestValidate:
    def test_shipped_file_ok(self, capsys):
        code, out, err = run(capsys, "validate")
        assert code == 0
        assert out.count(": ok") == 9

    def test_invalid_file_exits_2(self, capsys, tmp_path):
        doc = [{
            "name": "broken", "description": "", "stage": 2, "order": 1,
            "extrapolation_order": 2,
            "a": [["0", "0"], ["1", "0"]],
            "b": ["1/2", "1/2"], "b_hat": ["1", "0"],
            "c": ["0", "1/3"],  # row-sum violation
        }]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--methods", str(path))
        assert code == 2
        assert "row-sum" in out
        assert "forge: error[" in err

    def test_unparseable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[{]")
        code, out, err = run(capsys, "validate", "--methods", str(path))
        assert code == 2
        assert "forge: error[invalid-method-file]" in err

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, "validate", "--methods", str(path))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith(f"forge: error[io-failure] cannot read {path}: ")

    @pytest.mark.parametrize("coefficient", ['"' + "7" * 5000 + '"', "7" * 5000],
                             ids=["string", "json-integer"])
    def test_more_digits_than_int_reads_is_an_invalid_file(self, capsys, tmp_path,
                                                            coefficient):
        # written by hand: json.dumps cannot write an int of 5000 digits
        text = SAMPLE_ERK43B.replace('"c": ["0"', f'"c": [{coefficient}', 1)
        path = tmp_path / "m.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", "--methods", str(path))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[invalid-method-file] ")
        assert "digits" in line

    @pytest.mark.parametrize("name", ["Class", "KERNEL"])
    def test_unusable_method_name_is_a_violation(self, capsys, tmp_path, name):
        # the name rule `forge generate` applies is reported by validate too
        [erk] = [m for m in json.loads(shipped_method_path().read_text())
                 if m["name"] == "ERK43b"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{**erk, "name": name}]))
        code, out, err = run(capsys, "validate", "--methods", str(path))
        assert code == 2
        assert out.startswith(f"{name}: violation: method name {name!r}")
        assert ": ok" not in out
        [line] = err.splitlines()
        assert line.startswith("forge: error[invalid-tableau] ")

    @pytest.mark.parametrize("key", ["a", "b", "b_hat", "c"])
    @pytest.mark.parametrize("number", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_is_an_invalid_file(self, capsys, tmp_path, key, number):
        # json writes these as the literals Infinity, -Infinity and NaN, and
        # json.loads reads them back as floats
        [erk] = [m for m in json.loads(shipped_method_path().read_text())
                 if m["name"] == "ERK43b"]
        row = erk[key][0] if key == "a" else erk[key]
        row[0] = number
        path = tmp_path / "m.json"
        path.write_text(json.dumps([erk]))
        code, out, err = run(capsys, "validate", "--methods", str(path))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[invalid-method-file] ")
        assert "not a finite number" in line

    def test_strict_lists_warnings(self, capsys):
        # the 8(7) table's published rationals carry a tiny order-2 residual
        code, out, err = run(capsys, "validate", "--strict")
        assert code == 0 and err == ""
        assert out.count(": ok") == 9
        assert re.search(r"^DOPRI8: warning: sum of b_j c_j differs from 1/2 by ", out,
                         re.MULTILINE)


class TestGenerate:
    def test_manifest_ten_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "--out", str(tmp_path / "g"))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10  # 9 methods + index
        for line in lines:
            rel, digest = line.split(" ")
            assert len(digest) == 64

    def test_rerun_identical(self, capsys, tmp_path):
        _, out1, _ = run(capsys, "generate", "--out", str(tmp_path / "g"))
        _, out2, _ = run(capsys, "generate", "--out", str(tmp_path / "g"))
        assert out1 == out2

    def test_invalid_input_writes_nothing(self, capsys, tmp_path):
        doc = [{
            "name": "broken", "description": "", "stage": 2, "order": 1,
            "extrapolation_order": 2,
            "a": [["0", "0"], ["1", "0"]],
            "b": ["1/2", "1/3"], "b_hat": ["1", "0"],
            "c": ["0", "1"],
        }]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "g"
        code, out, err = run(capsys, "generate", "--methods", str(path),
                             "--out", str(out_dir))
        assert code == 2
        assert not out_dir.exists()

    def test_duplicate_method_names_exit_2(self, capsys, tmp_path):
        # module names are lowercased, so ERK43b and erk43b would collide
        [erk] = [m for m in json.loads(shipped_method_path().read_text())
                 if m["name"] == "ERK43b"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps([erk, {**erk, "name": "erk43b"}]))
        out_dir = tmp_path / "g"
        for argv in (("validate",), ("generate", "--out", str(out_dir))):
            code, out, err = run(capsys, *argv, "--methods", str(path))
            assert code == 2 and out == ""
            [line] = err.splitlines()
            assert line.startswith("forge: error[invalid-method-file] ")
            assert "'erk43b'" in line and "'ERK43b'" in line
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["validate", "generate"])
    @pytest.mark.parametrize("text", [
        "[{]",                                   # not JSON
        '[{"name": "x"}]',                       # keys missing
        json.dumps([{"name": "short_b", "description": "", "stage": 2, "order": 1,
                     "extrapolation_order": 2, "a": [["0", "0"], ["1", "0"]],
                     "b": ["1"], "b_hat": ["1", "0"], "c": ["0", "1"]}]),
    ], ids=["unparseable", "missing-keys", "short-b"])
    def test_bad_method_file_one_error_line(self, capsys, tmp_path, command, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        out_dir = tmp_path / "g"
        extra = ("--out", str(out_dir)) if command == "generate" else ()
        code, out, err = run(capsys, command, "--methods", str(path), *extra)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[invalid-method-file] ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["Class", "KERNEL", "A_2_1", "list", "len", "type"])
    def test_unusable_method_name_exit_2(self, capsys, tmp_path, name):
        # each would give a module that breaks on import or on its first solve
        [erk] = [m for m in json.loads(shipped_method_path().read_text())
                 if m["name"] == "ERK43b"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{**erk, "name": name}]))
        out_dir = tmp_path / "g"
        code, out, err = run(capsys, "generate", "--methods", str(path), "--out", str(out_dir))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith(f"forge: error[invalid-tableau] {name}: violation: "
                               f"method name {name!r}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("strict", [(), ("--strict",)])
    def test_each_tableau_validated_once(self, capsys, tmp_path, monkeypatch, strict):
        from rkforge import codegen, tableau
        validated = []
        validate = tableau.validate_tableau

        def counted(t, strict=False):
            validated.append(t.name)
            return validate(t, strict)

        for module in (cli, codegen, tableau):
            monkeypatch.setattr(module, "validate_tableau", counted)
        code, out, _ = run(capsys, "generate", "--out", str(tmp_path / "g"), *strict)
        assert code == 0
        names = [line.split(".py ")[0] for line in out.splitlines()]
        assert sorted(n.lower() for n in validated) == sorted(names[1:])

    def test_refusal_lines_as_validate_words_them(self, capsys, tmp_path):
        [erk] = [m for m in json.loads(shipped_method_path().read_text())
                 if m["name"] == "ERK43b"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{**erk, "name": "Skewed", "b_hat": erk["b"][:-1] + ["1"]},
                                    {**erk, "name": "Class"}]))
        code, out, _ = run(capsys, "validate", "--methods", str(path))
        assert code == 2
        lines = out.splitlines()
        assert [line.split(": ")[:2] for line in lines] == [["Skewed", "violation"],
                                                            ["Class", "violation"]]
        code, out, err = run(capsys, "generate", "--methods", str(path),
                             "--out", str(tmp_path / "g"))
        assert code == 2 and out == ""
        assert err.splitlines() == ["forge: error[invalid-tableau] " + "; ".join(lines)]

    def test_coefficient_beyond_the_doubles_exit_2(self, capsys, tmp_path):
        # a valid tableau whose weights 10^400 and 1 - 10^400 no double holds
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{
            "name": "Big", "description": "", "stage": 2, "order": 1,
            "extrapolation_order": 1, "a": [["0", "0"], ["1", "0"]],
            "b": [str(10 ** 400), str(1 - 10 ** 400)], "b_hat": ["1", "0"],
            "c": ["0", "1"]}]))
        line = "Big: violation: coefficients beyond the 64-bit floats: B_1, B_2"
        code, out, err = run(capsys, "validate", "--methods", str(path))
        assert code == 2 and out.splitlines() == [line]
        assert err.splitlines() == [
            "forge: error[invalid-tableau] method file has invalid tableaus"]
        out_dir = tmp_path / "g"
        code, out, err = run(capsys, "generate", "--methods", str(path), "--out", str(out_dir))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"forge: error[invalid-tableau] {line}"]
        assert not out_dir.exists()

    def test_out_is_a_file_exit_1(self, capsys, tmp_path):
        out_file = tmp_path / "g"
        out_file.write_text("")
        code, out, err = run(capsys, "generate", "--out", str(out_file))
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[io-failure] ")


class TestBrokenTemplate:
    # a packaged template without its _step_n block: validate and generate
    # read it to check method names, solve to render a list body
    @pytest.mark.parametrize("argv", [
        ("validate",),
        ("generate",),
        ("solve", "--method", "Fehlberg45", "--problem", "vdp", "--atol", "1e-6",
         "--rtol", "1e-6", "--output-kind", "last"),
        ("solve", "--method", "Fehlberg45", "--problem", "vdp", "--h", "0.01",
         "--output-kind", "last"),
    ], ids=["validate", "generate", "solve-adaptive", "solve-fixed"])
    def test_invalid_template_exit_2(self, capsys, monkeypatch, tmp_path, argv):
        text = (Path(codegen.__file__).parent / "templates" / "solver.py.tmpl").read_text()
        broken = text.replace("def _step_n(", "def _step_loop(")
        monkeypatch.setattr(codegen, "_template", lambda: codegen.check_template(broken))
        monkeypatch.setattr(METHODS["Fehlberg45"], "_BODIES", {})
        out_dir = tmp_path / "g"
        if argv == ("generate",):
            argv += ("--out", str(out_dir))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines() == ["forge: error[invalid-template] need exactly one "
                                    "'def _step_n(' block, ended by two blank lines"]
        assert not out_dir.exists()


class TestSolve:
    @pytest.mark.parametrize("method, h, t0, t1, points", [
        ("ERK43b", "0.01", "0", "12", 1201),
        # step 100 ends at t1; a step 101 would print the last row twice
        ("DOPRI5", "1e-11", "1", "1.000000001", 101),
    ])
    def test_fixed_step_point_count(self, capsys, method, h, t0, t1, points):
        code, out, _ = run(capsys, "solve", "--method", method, "--problem", "vdp",
                           "--h", h, "--t0", t0, "--t1", t1)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "y1", "y2"]
        assert len(rows) == points
        times = [float(row[0]) for row in rows]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[-1] == float(t1)

    def test_csv_full_precision_roundtrip(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "DOPRI5", "--problem", "vdp",
                           "--atol", "1e-8", "--rtol", "1e-8")
        assert code == 0
        header, rows = parse_csv(out)
        # every printed value reparses to exactly the float that was printed
        for row in rows[:50]:
            for cell in row:
                assert repr(float(cell)) == cell

    def test_steplog_has_rejections(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "ERK43b",
                           "--problem", "brusselator", "--atol", "1e-4",
                           "--rtol", "1e-4", "--t0", "0", "--t1", "20",
                           "--output-kind", "steplog")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "t", "h", "error"]
        kinds = {row[0] for row in rows}
        assert kinds == {"accepted", "rejected"}
        for row in rows:
            if row[0] == "rejected":
                assert row[3] == ""
            else:
                assert 0.0 <= float(row[3]) <= 1.0

    def test_arenstorf_trajectory_closes(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "DOPRI5",
                           "--problem", "arenstorf:1", "--atol", "1e-13",
                           "--rtol", "0", "--t0", "0",
                           "--t1", "17.065216560157962558")
        assert code == 0
        header, rows = parse_csv(out)
        first, last = rows[0], rows[-1]
        dq = np.hypot(float(last[3]) - float(first[3]),
                      float(last[4]) - float(first[4]))
        assert dq <= 1e-9

    def test_last_kind(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "DOPRI5",
                           "--problem", "arenstorf:1", "--atol", "1e-8",
                           "--rtol", "0", "--output-kind", "last")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "y1", "y2", "y3", "y4"]
        assert len(rows) == 1

    def test_unknown_method_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "RK99", "--problem", "vdp",
                           "--atol", "1e-6", "--rtol", "1e-6")
        assert code == 2
        assert "forge: error[unknown-method]" in err

    def test_unknown_problem_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "DOPRI5",
                           "--problem", "lorenz", "--atol", "1e-6", "--rtol", "1e-6")
        assert code == 2
        assert "forge: error[unknown-problem]" in err

    @pytest.mark.parametrize("name", ["vdp:banana", "rigid-body:x", "brusselator:",
                                      "arenstorf:", "arenstorf:01", "arenstorf: 2",
                                      "arenstorf:+3", "arenstorf:x", "arenstorf:4"])
    def test_only_exact_problem_names(self, capsys, name):
        code, out, err = run(capsys, "solve", "--method", "DOPRI5", "--problem", name,
                             "--atol", "1e-3", "--rtol", "1e-3")
        assert (code, out) == (2, "")
        assert err.startswith(f"forge: error[unknown-problem] unknown problem {name!r}")

    def test_conflicting_step_flags(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "DOPRI5", "--problem", "vdp",
                           "--h", "0.1", "--atol", "1e-6")
        assert code == 2
        assert "forge: error[bad-flags]" in err

    @pytest.mark.parametrize("flags", [
        (*SOLVE_VDP, "--atol=-1e-6", "--rtol", "1e-6"),
        (*SOLVE_VDP, "--atol", "0", "--rtol", "0"),
        (*SOLVE_VDP, "--atol", "nan", "--rtol", "1e-6"),
        (*SOLVE_VDP, "--atol", "inf", "--rtol", "0"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "inf"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "1e-6", "--t0", "5", "--t1", "1"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "1e-6", "--h0", "0"),
        (*SOLVE_VDP, "--h", "-0.1"),
        (*SOLVE_VDP, "--h", "0.1", "--t0", "1", "--t1", "1"),
        ("report", "--kind", "arenstorf-table", "--atol", "-1"),
        ("report", "--kind", "arenstorf-table", "--atol", "nan"),
        ("report", "--kind", "arenstorf-table", "--rtol", "inf"),
        ("bench", "--steps", "0"),
        ("bench", "--steps", "-3"),
        ("solve", "--problem", "vdp", "--atol", "1e-6", "--rtol", "1e-6"),
        (*SOLVE_VDP, "--atol", "abc", "--rtol", "1e-6"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "1e-6", "--max-steps", "0"),
        ("report", "--kind", "arenstorf-table", "--max-steps", "-1"),
        ("report", "--kind", "convergence", "--atol", "-1"),
        ("report", "--kind", "convergence", "--rtol", "1e-6"),
        ("report", "--kind", "convergence", "--group", "2"),
        ("report", "--kind", "convergence", "--max-steps", "10"),
        (*SOLVE_VDP, "--h", "0.01", "--t1", "inf"),
        (*SOLVE_VDP, "--h", "0.01", "--t0=-inf", "--output-kind", "last"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "1e-6", "--t1", "inf"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "1e-6", "--t0=-inf", "--t1", "1"),
        (*SOLVE_VDP, "--h", "1e-300"),
        (*SOLVE_VDP, "--h", "1e-300", "--output-kind", "last"),
        (*SOLVE_VDP, "--h", "5e-324", "--output-kind", "last"),
        (*SOLVE_VDP, "--h", "0.01", "--max-steps", "1199"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "1e-6", "--h0", "1e-300"),
        (*SOLVE_VDP, "--h", "0.5", "--h0", "0.1", "--output-kind", "last"),
        (*SOLVE_VDP, "--atol", "1e-6"),
        (*SOLVE_VDP, "--h", "0.1", "--output-kind", "steplog"),
    ])
    def test_bad_flag_values_exit_2(self, capsys, flags):
        code, out, err = run(capsys, *flags)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[bad-flags] ")

    @pytest.mark.parametrize("h, max_steps", [
        ("0.01", "1200"), ("0.011999999999988001", "1000"),
    ])
    def test_fixed_run_of_exactly_max_steps(self, capsys, h, max_steps):
        # 12 / h is 1200.0 and 1000.000000001: fixed_integrate takes 1200 and
        # 1000 steps, so neither run exceeds --max-steps
        code, out, _ = run(capsys, *SOLVE_VDP, "--h", h, "--max-steps", max_steps,
                           "--output-kind", "last")
        assert code == 0 and out.startswith("t,y1,y2\n12.0,")

    def test_rhs_singularity_exit_1(self, capsys, monkeypatch):
        # start the small body exactly on the large one: arenstorf_rhs raises
        # SingularityError (a ValueError) on its first call
        case = benchmark_case("arenstorf:1")
        on_body = np.array([0.0, 0.0, ArenstorfParams().mu2, 0.0])
        monkeypatch.setattr(cli, "benchmark_case", lambda name: replace(case, y_0=on_body))
        code, out, err = run(capsys, "solve", "--method", "DOPRI5",
                             "--problem", "arenstorf:1", "--atol", "1e-6", "--rtol", "1e-6")
        assert code == 1 and out == ""
        assert "forge: error[rhs-failure]" in err and "collision" in err

    def test_rhs_shape_mismatch_exit_1(self, capsys, monkeypatch):
        case = benchmark_case("vdp")
        wrong = replace(case.problem, rhs=lambda t, y: np.zeros(3))
        monkeypatch.setattr(cli, "benchmark_case", lambda name: replace(case, problem=wrong))
        code, out, err = run(capsys, "solve", "--method", "DOPRI5", "--problem", "vdp",
                             "--h", "0.1")
        assert code == 1 and out == ""
        assert "forge: error[rhs-failure]" in err and "shape" in err

    def test_integration_failure_exit_1(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "DOPRI5",
                           "--problem", "arenstorf:1", "--atol", "1e-13",
                           "--rtol", "0", "--max-steps", "10")
        assert code == 1
        assert "forge: error[integration-failure]" in err

    def test_integration_failure_names_t_h_and_attempts(self, capsys):
        code, out, err = run(capsys, "solve", "--method", "DOPRI5",
                             "--problem", "arenstorf:1", "--atol", "1e-13",
                             "--rtol", "0", "--max-steps", "20")
        assert code == 1 and out == ""
        [line] = err.splitlines()
        match = re.fullmatch(r"forge: error\[integration-failure\] no convergence within "
                             r"20 step attempts \(reached t = (\S+), last h = (\S+)\)", line)
        assert match, line
        t, h = map(float, match.groups())
        assert 0.0 < t < benchmark_case("arenstorf:1").t_stop and h > 0.0

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "solve", "--method", "DOPRI5", "--problem", "vdp",
                           "--h", "0.1", "--output", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("t,y1,y2")

    def test_unwritable_output_names_the_path(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--method", "DOPRI5", "--problem", "vdp",
                             "--h", "0.1", "--output", str(tmp_path))
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[io-failure] ") and str(tmp_path) in line

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_names_the_path(self, capsys):
        # the open succeeds and the write fails, so the OSError has no filename
        code, out, err = run(capsys, "solve", "--method", "DOPRI5", "--problem", "vdp",
                             "--h", "0.1", "--output", "/dev/full")
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[io-failure] ") and "/dev/full" in line


class TestCsvWriters:
    """The CSV writers format rows from tolist(); the per-value formula they
    replaced, repr(float(x)) on each numpy scalar, is the reference."""

    SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                1e308, -1e308, math.inf, -math.inf, math.nan, 0.1, 1.0]

    @staticmethod
    def reference_trajectory(traj):
        n = traj.states.shape[1]
        rows = ["t," + ",".join(f"y{i + 1}" for i in range(n))]
        for t, row in zip(traj.times, traj.states):
            rows.append(",".join([repr(float(t))] + [repr(float(v)) for v in row]))
        return "\n".join(rows)

    @staticmethod
    def reference_steplog(log):
        rows = ["kind,t,h,error"]
        accepted = [("accepted", t, h, e) for t, h, e
                    in zip(log.accepted_t, log.accepted_h, log.errors)]
        rejected = [("rejected", t, h, None) for t, h
                    in zip(log.rejected_t, log.rejected_h)]
        for kind, t, h, e in sorted(accepted + rejected, key=lambda r: (r[1], r[0])):
            err = repr(float(e)) if e is not None else ""
            rows.append(f"{kind},{float(t)!r},{float(h)!r},{err}")
        return "\n".join(rows)

    def values(self, rng, shape):
        """Normal draws over 600 decades with specials at seeded places."""
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        flat = x.reshape(-1)
        places = rng.integers(0, flat.size, max(1, flat.size // 4))
        flat[places] = rng.choice(self.SPECIALS, places.size)
        return x

    @pytest.mark.parametrize("seed", range(20))
    def test_trajectory_csv_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        rows, n = int(rng.integers(1, 80)), int(rng.integers(1, 20))
        traj = Trajectory(self.values(rng, rows), self.values(rng, (rows, n)))
        assert cli._trajectory_csv(traj) == self.reference_trajectory(traj)

    @pytest.mark.parametrize("seed", range(20))
    def test_steplog_csv_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_acc, n_rej = int(rng.integers(0, 60)), int(rng.integers(1, 30))
        accepted_t = np.sort(rng.uniform(0.0, 10.0, n_acc))
        # rejected attempts at accepted times tie on t and sort by kind
        rejected_t = (rng.choice(accepted_t, n_rej) if n_acc and seed % 2
                      else rng.uniform(0.0, 10.0, n_rej))
        log = StepLog(accepted_t, np.abs(self.values(rng, n_acc)), rejected_t,
                      np.abs(self.values(rng, n_rej)), self.values(rng, n_acc))
        got = cli._steplog_csv(log)
        assert got == self.reference_steplog(log)
        assert got.count("\nrejected,") == n_rej

    def test_solve_outputs_match_reference(self, capsys):
        case = benchmark_case("brusselator")
        traj = cli.fixed_integrate(cli._solver("ERK43b").KERNEL, case.problem, 0.05,
                                   case.y_0, 0.0, 20.0)
        code, out, _ = run(capsys, "solve", "--method", "ERK43b", "--problem",
                           "brusselator", "--h", "0.05", "--t0", "0", "--t1", "20")
        assert code == 0 and out == self.reference_trajectory(traj) + "\n"
        log = cli.integrate_info(cli._solver("ERK43b").KERNEL, case.problem,
                                 cli.Tolerances(1e-4, 1e-4), case.y_0, 0.0, 20.0)
        assert log.rejected_t.size > 0
        code, out, _ = run(capsys, "solve", "--method", "ERK43b", "--problem",
                           "brusselator", "--atol", "1e-4", "--rtol", "1e-4",
                           "--t0", "0", "--t1", "20", "--output-kind", "steplog")
        assert code == 0 and out == self.reference_steplog(log) + "\n"


class TestReport:
    def test_arenstorf_table_with_missing_row(self, capsys):
        code, out, _ = run(capsys, "report", "--kind", "arenstorf-table",
                           "--method", "DOPRI5", "--method", "Fehlberg45",
                           "--method", "DOPRI8", "--method", "Ghost",
                           "--atol", "1e-10")
        assert code == 1  # partial success
        header, rows = parse_csv(out)
        assert header == ["method", "status", "closure_error"]
        by_name = {row[0]: row for row in rows}
        assert by_name["Ghost"][1] == "missing" and by_name["Ghost"][2] == ""
        for name in ("DOPRI5", "Fehlberg45", "DOPRI8"):
            assert by_name[name][1] == "ok"
            assert float(by_name[name][2]) <= 1e-6

    def test_arenstorf_table_with_failed_row(self, capsys):
        code, out, err = run(capsys, "report", "--kind", "arenstorf-table",
                             "--method", "DOPRI5", "--max-steps", "5")
        assert code == 1
        assert parse_csv(out) == (["method", "status", "closure_error"],
                                  [["DOPRI5", "failed", ""]])
        [line] = err.splitlines()
        assert line.startswith("forge: warning[DOPRI5] no convergence within 5 step attempts")

    def test_convergence_table(self, capsys):
        code, out, _ = run(capsys, "report", "--kind", "convergence",
                           "--method", "ERK43b")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][0] == "ERK43b"
        slope = float(rows[0][2])
        assert 3.7 <= slope <= 4.3

    def test_convergence_divergence_is_an_integration_failure(self, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("state is not finite at t = 0.5", 0.5, [1.0])

        monkeypatch.setattr(cli, "fixed_integrate", diverge)
        code, out, err = run(capsys, "report", "--kind", "convergence",
                             "--method", "ERK43b")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "forge: error[integration-failure] state is not finite at t = 0.5"]

    def test_arenstorf_table_rhs_singularity_exit_1(self, capsys, monkeypatch):
        # the small body starts on the large one: SingularityError on the
        # first rhs call, which no row can report
        case = benchmark_case("arenstorf:1")
        on_body = np.array([0.0, 0.0, ArenstorfParams().mu2, 0.0])
        monkeypatch.setattr(cli, "benchmark_case", lambda name: replace(case, y_0=on_body))
        code, out, err = run(capsys, "report", "--kind", "arenstorf-table",
                             "--method", "DOPRI5")
        assert code == 1 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[rhs-failure] ") and "collision" in line


class TestBench:
    def test_ratio_reported(self, capsys):
        code, out, _ = run(capsys, "bench", "--method", "ERK43b",
                           "--steps", "5000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "throughput_ratio"
        assert float(rows[0][-1]) > 0.5

    def test_diverged_run_is_an_integration_failure(self, capsys):
        # h = 20/3 turns the Brusselator state non-finite; no throughput row
        code, out, err = run(capsys, "bench", "--steps", "3")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("forge: error[integration-failure]")

    def test_method_without_a_shipped_table_exit_2(self, capsys, monkeypatch):
        # a registry generated from another method file than the shipped one
        registry = {**METHODS, "Custom": METHODS["ERK43b"]}
        monkeypatch.setattr(cli, "_generated_registry", lambda: registry)
        code, out, err = run(capsys, "bench", "--method", "Custom", "--steps", "100")
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("forge: error[unknown-method] ") and "'Custom'" in line

    def test_kernel_is_timed_through_the_drivers(self):
        # the step sees what a driver hands it: list states and a marked f
        kernel = METHODS["ERK43b"].KERNEL
        seen = set()

        def step(f, t, y, h, reuse=None):
            seen.add((type(y), getattr(f, "lists", False)))
            return kernel.step(f, t, y, h, reuse)

        step.lists = True
        cli.kernel_seconds(replace(kernel, step=step), 100)
        assert seen == {(list, True)}

    def test_steps_above_the_default_max_steps(self):
        def step(f, t, y, h, reuse=None):
            return y, y

        step.lists = True
        noop = StepKernel(name="noop", order=1, stages=1, step=step)
        assert cli.kernel_seconds(noop, IntegrationOptions.max_steps + 1) > 0


class TestGenerateStrict:
    def test_strict_warns_but_generates(self, capsys, tmp_path):
        code, out, err = run(capsys, "generate", "--out", str(tmp_path / "g"),
                             "--strict")
        assert code == 0
        assert len(out.strip().splitlines()) == 10
        # the 8(7) table's published rationals carry a tiny order-2 residual
        assert "forge: warning[DOPRI8]" in err
