import json
import re
from dataclasses import replace

import numpy as np
import pytest

from rkforge import cli, shipped_method_path
from rkforge.cli import main
from rkforge.problems import ArenstorfParams, benchmark_case


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE_VDP = ("solve", "--method", "DOPRI5", "--problem", "vdp")


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


class TestSolve:
    def test_fixed_step_point_count(self, capsys):
        code, out, _ = run(capsys, "solve", "--method", "ERK43b", "--problem", "vdp",
                           "--h", "0.01", "--t0", "0", "--t1", "12")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "y1", "y2"]
        assert len(rows) == 1201

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

    def test_conflicting_step_flags(self, capsys):
        code, _, err = run(capsys, "solve", "--method", "DOPRI5", "--problem", "vdp",
                           "--h", "0.1", "--atol", "1e-6")
        assert code == 2
        assert "forge: error[bad-flags]" in err

    @pytest.mark.parametrize("flags", [
        (*SOLVE_VDP, "--atol=-1e-6", "--rtol", "1e-6"),
        (*SOLVE_VDP, "--atol", "0", "--rtol", "0"),
        (*SOLVE_VDP, "--atol", "nan", "--rtol", "1e-6"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "1e-6", "--t0", "5", "--t1", "1"),
        (*SOLVE_VDP, "--atol", "1e-6", "--rtol", "1e-6", "--h0", "0"),
        (*SOLVE_VDP, "--h", "-0.1"),
        (*SOLVE_VDP, "--h", "0.1", "--t0", "1", "--t1", "1"),
        ("report", "--kind", "arenstorf-table", "--atol", "-1"),
        ("report", "--kind", "arenstorf-table", "--atol", "nan"),
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

    def test_convergence_table(self, capsys):
        code, out, _ = run(capsys, "report", "--kind", "convergence",
                           "--method", "ERK43b")
        assert code == 0
        header, rows = parse_csv(out)
        assert rows[0][0] == "ERK43b"
        slope = float(rows[0][2])
        assert 3.7 <= slope <= 4.3


class TestBench:
    def test_ratio_reported(self, capsys):
        code, out, _ = run(capsys, "bench", "--method", "ERK43b",
                           "--steps", "5000")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-1] == "throughput_ratio"
        assert float(rows[0][-1]) > 0.5


class TestGenerateStrict:
    def test_strict_warns_but_generates(self, capsys, tmp_path):
        code, out, err = run(capsys, "generate", "--out", str(tmp_path / "g"),
                             "--strict")
        assert code == 0
        assert len(out.strip().splitlines()) == 10
        # the 8(7) table's published rationals carry a tiny order-2 residual
        assert "forge: warning[DOPRI8]" in err
