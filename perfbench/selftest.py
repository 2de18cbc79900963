"""Tests of the benchmark itself, on short forms of every workload.

    python3 -m pytest -q perfbench/selftest.py

They show that each workload runs clean and deterministically, that the
traced twin reproduces the untraced run bit for bit, that the checks are not
vacuous (a kernel with a perturbed weight fails every workload it is put
into) and that the benchmark refuses to run without the program's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

from rkforge.generated import dopri5, fehlberg45  # noqa: E402

SEED = 7
EXERCISED = {
    "arenstorf-tight": {"problems.rhs_s", "generated.step_self_s", "stepcontrol.error_norm_s",
                        "stepcontrol.controller_s", "stepcontrol.driver_self_s"},
    "ensemble-wide": {"problems.rhs_s", "generated.step_self_s",
                      "stepcontrol.generic_step_self_s", "stepcontrol.error_norm_s",
                      "stepcontrol.driver_self_s"},
    "cli-session": {"problems.rhs_s", "generated.step_self_s", "stepcontrol.error_norm_s",
                    "stepcontrol.driver_self_s", "cli.self_s", "cli.csv_bytes",
                    "codegen.generate_s"},
}


def short(workload, trace=False, **kw):
    return run.run_workload(workload, SEED, seconds=0, trace=trace, short=True,
                            setup_spawns=1, **kw)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_form_is_clean_and_deterministic(workload):
    first, second = short(workload), short(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0, result["notes"]
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("step_attempts", "rhs_evals", "global_error"):
        assert first["metrics"][name] == second["metrics"][name]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_twin_matches_and_reports_every_layer(workload):
    result = short(workload, trace=True)
    assert result["correct"] and result["failed"] == 0, result["notes"]
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    for name in EXERCISED[workload] | {"tableau.parse_validate_s", "problems.rhs_calls",
                                       "stepcontrol.accept_ratio"}:
        assert metrics[name]["value"] > 0, name
    assert metrics["stepcontrol.error_norm_calls"]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_weight_perturbed_in_both_formulas_fails_the_checks(workload, monkeypatch):
    # the error estimate y - y_hat is unchanged, so the integration runs to
    # its end and only the workload's own checks can see the wrong answer
    monkeypatch.setattr(dopri5, "B_1", dopri5.B_1 + 1e-3)
    monkeypatch.setattr(dopri5, "BH_1", dopri5.BH_1 + 1e-3)
    result = short(workload)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("DOPRI5" in n or "dopri5" in n for n in result["notes"]), result["notes"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_single_perturbed_weight_fails_and_the_run_goes_on(workload):
    # B_1 alone: the estimate sees an O(h) error, the step size collapses and
    # the solve ends in an IntegrationError (step-size underflow or the short
    # forms' step budget), or in forge's exit code 1; it is counted as
    # failed, the other solves still run and pass
    original = dopri5.B_1
    dopri5.B_1 = original + 1e-3
    try:
        result = short(workload)
    finally:
        dopri5.B_1 = original
    assert result["failed"] > 0
    assert result["failed"] < result["attempted"]
    assert result["correct"], result["notes"]
    assert any(kind in n for n in result["notes"]
               for kind in ("StepSizeUnderflow", "MaxStepsExceeded", "exited 1")), result["notes"]


def test_perturbed_fixed_step_kernel_fails_the_cli_checks(monkeypatch):
    monkeypatch.setattr(fehlberg45, "B_1", fehlberg45.B_1 + 1e-3)
    result = short("cli-session")
    assert not result["correct"]
    assert any(n.startswith("vdp-fixed") for n in result["notes"]), result["notes"]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
