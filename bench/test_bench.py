"""Tests of the benchmark itself: its reference, its output checks, its
operation counting and its tracer.  Run with ``python -m pytest bench``."""
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import outputs
import reference
import run
import tracer

BENCH = Path(__file__).resolve().parent


def _fig_csv(path: Path, name: str) -> None:
    """Write a figure CSV from the reference, in the program's format."""
    cols = outputs._reference_columns(reference.figure(name))
    header = outputs.FIGURE_HEADERS[name]
    lines = [",".join(header)]
    lines += [",".join(format(v, ".17g") for v in row) for row in zip(*(cols[h] for h in header))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _separation_call(tmp_path: Path) -> run.Call:
    (call,) = run.separation_sweep(7, tmp_path)
    return call


def _sweep_csv(path: Path, call_values, errors=()) -> None:
    """Write a correct separation sweep CSV from the reference."""
    t = reference.grid(run.SEPARATION_T_END, run.SEPARATION_POINTS)
    lines = [",".join(outputs.SWEEP_HEADER)]
    for k, x in enumerate(call_values):
        if k in errors:
            lines.append(f"{x:.17g},nan,nan,nan,float division by zero")
            continue
        c = reference.both_excited(float(reference.collective_rates(x)[0]), t)["C"]
        i, _ = reference.first_maximum(t, c)
        c5 = reference.value_at(t, c, 5.0)
        lines.append(f"{x:.17g},{c[i]:.17g},{t[i]:.17g},{c5:.17g},")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _values(call: run.Call) -> list:
    arg = next(a for a in call.argv if a.startswith("--values="))
    return [float(v) for v in arg.split("=", 1)[1].split(",")]


# --- the reference reproduces the paper's numbers (AC-01..AC-03) ------------


def test_reference_rates_at_sixth_wavelength():
    gamma12, omega12 = reference.collective_rates(math.pi / 6)
    assert abs(gamma12 - 0.947) <= 0.005
    assert abs(omega12 - 4.65) <= 0.01


def test_reference_first_maxima_of_fig2_and_fig5():
    c2 = reference.figure("fig2")["C"].max()
    c5 = reference.figure("fig5")["C"].max()
    assert abs(c2 - 0.86) <= 0.01
    assert abs(c5 - 0.88) <= 0.01
    assert c5 > c2


@pytest.mark.parametrize("start", [(True, False), (True, True)])
def test_master_equation_matches_closed_forms_for_identical_atoms(start):
    gamma12, omega12 = (float(v) for v in reference.collective_rates(1.3))
    t = reference.grid(4.0, 400)
    me = reference.master_equation(reference.product_state(start), gamma12, omega12, 0.0, t)
    if start == (True, True):
        cf = reference.both_excited(gamma12, t)
    else:
        cf = reference.one_excitation(gamma12, omega12, t)
    for key in ("C", "N", "ree", "rss", "raa", "rgg"):
        np.testing.assert_allclose(me[key], cf[key], rtol=0, atol=1e-12)


def test_expm_of_a_rotation_generator():
    a = np.array([[0.0, 3.0], [-3.0, 0.0]])
    expected = np.array([[math.cos(3.0), math.sin(3.0)], [-math.sin(3.0), math.cos(3.0)]])
    np.testing.assert_allclose(reference.expm(a), expected, rtol=0, atol=1e-14)


# --- the output checks catch corrupted outputs -------------------------------


def _corrupt(path: Path, how: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    row = min(len(lines) - 1, 3)
    fields = lines[row].split(",")
    if how == "scaled":
        fields[1] = format(float(fields[1]) * 1.01, ".17g")
        lines[row] = ",".join(fields)
    elif how == "dropped":
        del lines[row]
    elif how == "nan":
        fields[1] = "nan"
        lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", sorted(outputs.FIGURE_HEADERS))
def test_reference_figure_passes_its_own_check(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    _fig_csv(path, name)
    assert outputs.check_figure(name, path, reference.figure(name)) == []


@pytest.mark.parametrize("how", ["scaled", "dropped", "nan"])
@pytest.mark.parametrize("name", ["fig2", "fig5"])
def test_corrupted_figure_fails_the_check(tmp_path, name, how):
    path = tmp_path / f"{name}.csv"
    _fig_csv(path, name)
    _corrupt(path, how)
    assert outputs.check_figure(name, path, reference.figure(name))


@pytest.mark.parametrize("how", [None, "scaled", "dropped", "nan"])
def test_sweep_check(tmp_path, how):
    call = _separation_call(tmp_path)
    _sweep_csv(call.out, _values(call))
    if how:
        _corrupt(call.out, how)
    failed, points, problems = call.check(call.out)
    assert bool(problems) == bool(how)


def test_sweep_row_with_error_is_a_failed_operation(tmp_path):
    call = _separation_call(tmp_path)
    _sweep_csv(call.out, _values(call), errors={2})
    failed, points, problems = call.check(call.out)
    assert failed == 1
    assert points == (call.operations - 1) * run.SEPARATION_POINTS
    assert problems == []


# --- inputs, tracing and the missing program ---------------------------------


def test_stratified_values_repeat_per_seed_and_cover_every_bin():
    a = run.stratified(3, 0.0, 20.0, 8)
    assert a == run.stratified(3, 0.0, 20.0, 8)
    assert a != run.stratified(4, 0.0, 20.0, 8)
    assert [int(v // 2.5) for v in a] == list(range(8))


def test_recorder_self_time_excludes_child_spans():
    rec = tracer.Recorder()
    inner = rec.span("inner", lambda: sum(range(20000)))
    outer = rec.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = rec.report()["spans"]
    assert spans["inner"]["calls"] == 3 and spans["outer"]["calls"] == 1
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["total_s"] - spans["inner"]["total_s"], abs=1e-9
    )


def test_install_wraps_at_the_callers_name_and_reports_absent_names():
    def block_report(x):
        return x

    entanglement = types.SimpleNamespace(block_report=block_report)
    scenarios = types.SimpleNamespace(block_report=block_report)
    rec = tracer.Recorder()
    tracer.install(rec, {"twoatom.entanglement": entanglement, "twoatom.scenarios": scenarios})
    assert scenarios.block_report(5) == 5
    assert entanglement.block_report is scenarios.block_report
    report = rec.report()
    assert report["spans"]["entanglement.block_report"]["calls"] == 1
    assert "cli.main" in report["absent"] and "dynamics.rhs_evals" in report["absent"]


def test_traced_child_reports_imports_and_spans(tmp_path):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-I", str(BENCH / "child.py"), str(report), str(run.SRC), "1",
         "couplings", "--x", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    assert data["rc"] == 0 and data["import"]["modules"] > 0
    assert data["trace"]["spans"]["cli.main"]["calls"] == 1


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "figures", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
