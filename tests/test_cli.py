import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import twoatom
import twoatom.scenarios as scenarios
from twoatom.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from twoatom.dynamics import (
    STATE_ROWS,
    DickeSingularityError,
    TimeGrid,
    evolve_analytic,
    evolve_full_master,
)
from twoatom.entanglement import block_report
from twoatom.scenarios import (
    FIGURE_SCENARIOS,
    Scenario,
    figure_rows,
    load_scenario,
    parse_scenario,
    run_scenario,
    sweep,
    with_keys,
    write_csv,
)
from twoatom.statespace import (
    BlockState,
    block_to_matrix,
    from_collective,
    matrix_to_block,
    to_collective,
)

SRC = Path(twoatom.__file__).resolve().parents[1]


def _fresh_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m twoatom.cli ARGV`` in a fresh process, with the source on its path."""
    return subprocess.run(
        [sys.executable, "-m", "twoatom.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )

FIG2_SCENARIO = """
# one atom excited, sixth-wavelength separation
initial = atom1_excited
x = 0.5235987755982988
mu_dot_r = 0.0
delta = 0.0
t_end = 3.0
points = 3000
"""


# every command with the options and positional argument its help lists
_COMMAND_OPTIONS = {
    "couplings": ("--x", "--mu-dot-r", "--gamma"),
    "run": ("--scenario", "--out", "--x", "--mu-dot-r", "--delta", "--points", "--initial"),
    "sweep": ("--scenario", "--axis", "--values", "--out", "--points"),
    "figure": ("{fig2,fig3,fig4,fig5}", "--out", "--points"),
}


class TestScenarioParsing:
    def test_flat_format(self):
        s = parse_scenario(FIG2_SCENARIO)
        assert s.initial == "atom1_excited"
        assert s.x == pytest.approx(math.pi / 6)
        assert s.grid == TimeGrid(0.0, 3.0, 3000)

    def test_custom_state(self):
        s = parse_scenario("initial = custom\nr33 = 0.5\nr44 = 0.5\nr34_re = -0.5\n")
        b = s.initial_block()
        assert b.r34 == -0.5

    def test_rate_overrides_win_over_geometry(self):
        s = parse_scenario("gamma12 = 0.5\nomega12 = 2.0\nx = 0.1\n")
        p = s.params()
        assert p.gamma12 == 0.5 and p.omega12 == 2.0

    @pytest.mark.parametrize(
        "text",
        [
            "bogus = 1\n",
            "x 0.5\n",
            "x = 0.5\nx = 0.6\n",
            "outputs = concurrence, bogus\n",
            "delta = nan\n",
            "t_end = inf\n",
            "r44 = -inf\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_scenario(text)

    def test_unknown_initial_rejected_at_run(self):
        with pytest.raises(ValueError):
            parse_scenario("initial = half_excited\n").initial_block()


class TestRunScenario:
    def test_fig2_first_maximum(self):
        traj = run_scenario(FIGURE_SCENARIOS["fig2"])
        assert traj.concurrence.max() == pytest.approx(0.86, abs=0.01)

    def test_fig5_first_maximum(self):
        traj = run_scenario(FIGURE_SCENARIOS["fig5"])
        assert traj.concurrence.max() == pytest.approx(0.88, abs=0.01)

    def test_antisymmetric_initial_record(self):
        s = Scenario(initial="antisymmetric", grid=TimeGrid(0.0, 1e-9, 2))
        traj = run_scenario(s)
        assert traj.concurrence[0] == pytest.approx(1.0)
        assert traj.negativity[0] == pytest.approx(1.0)

    def test_analytic_and_ode_paths_agree(self):
        # the propagator against the closed-form oracle, point by point
        s = Scenario(grid=TimeGrid(0.0, 3.0, 301))
        traj = run_scenario(s)
        c0, p = to_collective(s.initial_block()), s.params()
        for k, t in enumerate(s.grid.times()):
            c = evolve_analytic(c0, p, float(t))
            rep = block_report(from_collective(c))
            oracle = {
                "concurrence": rep.concurrence,
                "negativity": rep.negativity,
                "rho_ss": c.rss,
                "rho_aa": c.raa,
                "rho_gg": c.rgg,
            }
            for col, want in oracle.items():
                assert getattr(traj, col)[k] == pytest.approx(want, abs=1e-7)

    def test_record_invariants(self):
        r = run_scenario(Scenario(initial="both_excited", grid=TimeGrid(0, 5, 50)))
        total = r.rho_ee + r.rho_ss + r.rho_aa + r.rho_gg
        assert np.max(np.abs(total - 1.0)) <= 1e-9
        assert np.max(np.abs(r.s_squared - (2.0 - 2.0 * r.rho_aa))) <= 1e-12

    def test_state_is_prepared_at_time_zero(self):
        # a grid starting later selects output times; it does not move the
        # preparation, whichever detuning the scenario has
        grid = TimeGrid(1.0, 2.0, 3)
        exact = run_scenario(Scenario(delta=0.0, grid=grid))
        nearly = run_scenario(Scenario(delta=1e-12, grid=grid))
        assert np.max(np.abs(exact.concurrence - nearly.concurrence)) < 1e-9
        c = evolve_analytic(to_collective(BlockState(r44=1.0)), Scenario().params(), 1.0)
        assert exact.concurrence[0] == pytest.approx(
            block_report(from_collective(c)).concurrence, abs=1e-12
        )
        assert exact.concurrence[0] == pytest.approx(0.405, abs=1e-3)

    def test_unphysical_trajectory_is_refused(self, monkeypatch, tmp_path):
        def unphysical(y0, props, k, out):
            # rows ree, rss, raa, Re ras, Im ras, |reg|: rgg = 0,
            # rss = raa = 0.5, and |ras| = 0.9 puts a negative population in
            # the one-excitation block
            ys = np.zeros((STATE_ROWS, out.shape[1]))
            ys[1:3] = 0.5
            ys[3] = 0.9
            return ys

        # the propagation that run_scenario and sweep share
        monkeypatch.setattr(scenarios, "fill", unphysical)
        with pytest.raises(twoatom.InvariantError):
            run_scenario(Scenario(grid=TimeGrid(0.0, 1.0, 10)))
        out = tmp_path / "bad.csv"
        assert main(["run", "--out", str(out), "--points", "10"]) == EXIT_NUMERICAL
        assert not out.exists()
        (row,) = sweep(Scenario(grid=TimeGrid(0.0, 1.0, 10)), "x", [1.0])
        assert "unphysical" in row.error

    @pytest.mark.parametrize("index", [1000, 500], ids=["below_the_decay_floor", "above_the_start"])
    def test_excitation_number_stays_within_its_bounds(self, monkeypatch, index):
        # a physical state at every point, with rgg completing the trace:
        # only n(0) exp(-2 gamma t) <= n(t) <= n(0) is broken
        fill = scenarios.fill

        def leaky(y0, props, k, out):
            ys = fill(y0, props, k, out)
            if index == 1000:
                ys[1:5, index:] *= 0.01  # the one-excitation block shrinks into rgg
            else:
                ys[0, index:] += 0.3  # ree is fed from rgg
            return ys

        monkeypatch.setattr(scenarios, "fill", leaky)
        with pytest.raises(twoatom.InvariantError, match=f"excitation number .* at index {index}$"):
            run_scenario(Scenario())
        (row,) = sweep(Scenario(), "delta", [0.0])
        assert row.error.endswith(f"at index {index}")

    def test_excitation_number_is_checked_on_the_c5_grid(self, monkeypatch):
        # the grid ends before t = 5, so C(5) comes from a 2-point trajectory
        # of its own; it loses the whole excitation by t = 5
        fill = scenarios.fill

        def leaky(y0, props, k, out):
            ys = fill(y0, props, k, out)
            if ys.shape[1] == 2:
                ys[1:5, 1] = 0.0
            return ys

        monkeypatch.setattr(scenarios, "fill", leaky)
        (row,) = sweep(Scenario(), "delta", [0.0])
        assert row.error.startswith("unphysical trajectory between t = 0 and t = 5: excitation")
        assert row.error.endswith("at index 1")

    def test_population_lost_by_the_propagator_is_refused(self, tmp_path):
        # expm at this detuning passes every other invariant on this grid
        # while rho_ss = rho_aa = 0 from t = 0.02 on
        with pytest.raises(twoatom.InvariantError, match="excitation number"):
            run_scenario(Scenario(delta=1e200, grid=TimeGrid(0.0, 6.0, 301)))
        scen = tmp_path / "s.txt"
        scen.write_text("t_end = 6.0\npoints = 301\n")
        out = tmp_path / "out.csv"
        code = main(["run", "--scenario", str(scen), "--delta=1e200", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()
        rows = sweep(Scenario(grid=TimeGrid(0.0, 6.0, 301)), "delta", [1.0, 1e200])
        assert rows[0].error == ""
        assert "excitation number" in rows[1].error
        assert math.isnan(rows[1].first_max_c)

    def test_excitation_bounds_hold_on_the_figures(self):
        for s in FIGURE_SCENARIOS.values():
            run_scenario(s)
        # and on the C(5) grid of a sweep whose grid misses t = 5
        (row,) = sweep(Scenario(initial="both_excited", grid=TimeGrid(0.0, 3.0, 300)), "x", [0.3])
        assert row.error == ""


class TestSweep:
    def test_independent_atoms_stay_unentangled(self):
        base = Scenario(grid=TimeGrid(0.0, 3.0, 500))
        (row,) = sweep(base, "x", [200.0 * math.pi])
        assert row.first_max_c < 2e-3
        assert row.error == ""

    def test_weak_interaction_follows_envelope(self):
        base = Scenario(gamma12=0.95, omega12=None, grid=TimeGrid(0.0, 6.0, 1200))
        (row,) = sweep(base, "omega12", [0.1])
        r = run_scenario(
            Scenario(gamma12=0.95, omega12=0.1, grid=TimeGrid(0.0, 6.0, 1200))
        )
        # no fast oscillation: at most one maximum, and the concurrence hugs
        # the lower envelope once the superradiant transient is over
        c = r.concurrence
        assert np.sum(np.diff(np.sign(np.diff(c))) != 0) <= 1
        late = r.t >= 1.0
        assert np.max(np.abs(c[late] - (r.rho_aa - r.rho_ss)[late])) < 0.01
        assert row.first_max_c == pytest.approx(float(c.max()), abs=1e-9)

    def test_detuning_axis(self):
        base = Scenario(grid=TimeGrid(0.0, 6.0, 2000))
        rows = sweep(base, "delta", [0.0, 10.0])
        assert rows[0].first_max_c == pytest.approx(0.86, abs=0.01)
        assert rows[1].error == ""
        assert not math.isnan(rows[1].first_max_c)
        assert not math.isnan(rows[0].c_at_t5)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            sweep(Scenario(), "gamma", [1.0])

    def test_row_error_capture(self):
        base = Scenario(grid=TimeGrid(0.0, 1.0, 10))
        rows = sweep(base, "x", [-1.0, math.pi / 6])
        assert rows[0].error != ""
        assert rows[1].error == ""

    def test_program_errors_are_not_captured(self, monkeypatch):
        def broken(y0, props, k, out):
            raise ZeroDivisionError("a bug, not a bad input")

        monkeypatch.setattr(scenarios, "fill", broken)
        with pytest.raises(ZeroDivisionError):
            sweep(Scenario(grid=TimeGrid(0.0, 1.0, 10)), "x", [1.0])

    def test_c_at_t5_outside_the_grid_is_propagated(self):
        # grids that end before t = 5 or start after it: C(5) is propagated
        # exactly, not clamped to the grid's end points
        exact = run_scenario(Scenario(grid=TimeGrid(0.0, 5.0, 2))).concurrence[1]
        for grid in (TimeGrid(0.0, 3.0, 30), TimeGrid(6.0, 8.0, 5)):
            (row,) = sweep(Scenario(grid=grid), "delta", [0.0])
            assert row.error == ""
            assert row.c_at_t5 == exact
        assert exact == pytest.approx(0.3816, abs=1e-4)

    def test_first_maximum_matches_a_scan(self):
        # the first grid point that is a local maximum above 1e-12, else the
        # global maximum
        t = np.linspace(0.0, 1.0, 9)
        for c in ([0, 1, 3, 3, 2, 5, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7, 8]):
            c = np.array(c, dtype=float)
            want = next(
                (k for k in range(1, 8) if c[k] >= c[k - 1] and c[k] > c[k + 1] and c[k] > 1e-12),
                int(np.argmax(c)),
            )
            assert scenarios._first_maximum(t, c) == (c[want], t[want])


class TestFigureData:
    def test_fig2_columns(self):
        table = figure_rows("fig2")
        assert tuple(table) == ("t", "C", "aa_minus_ss", "aa_plus_ss")
        assert all(len(col) == 3000 for col in table.values())

    def test_fig3_starts_at_zero(self):
        table = figure_rows("fig3")
        assert tuple(table) == ("t", "C", "N")
        assert table["C"][0] == pytest.approx(0.0, abs=1e-12)
        assert table["N"][0] == pytest.approx(0.0, abs=1e-12)

    def test_points_option(self, tmp_path):
        t = figure_rows("fig2", points=10)["t"]
        assert len(t) == 10 and t[-1] == pytest.approx(3.0)
        out = tmp_path / "fig4.csv"
        assert main(["figure", "fig4", "--out", str(out), "--points", "25"]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 26

    def test_fig4_columns(self):
        table = figure_rows("fig4")
        assert tuple(table) == ("t", "C", "N", "rho_aa")
        assert table["C"].max() < 0.1

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_rows("fig9")


class TestWriteCsv:
    def test_floats_at_17_significant_digits(self, tmp_path):
        v = np.array([0.1, -0.0, 1e-300, 5e-324, math.pi, -1e308, math.nan, 2.0, 1 / 3])
        w = v[::-1]
        out = tmp_path / "a.csv"
        write_csv(out, {"v": v, "w": w})
        want = "v,w\n" + "".join(
            format(a, ".17g") + "," + format(b, ".17g") + "\n"
            for a, b in zip(v.tolist(), w.tolist())
        )
        assert out.read_bytes() == want.encode()

    def test_text_is_quoted_only_when_it_must_be(self, tmp_path):
        texts = ["", "plain", "a, b", 'say "x"', "two\nlines", "cr\r"]
        out = tmp_path / "b.csv"
        write_csv(out, {"value": np.arange(6.0), "error": texts})
        data = out.read_bytes()
        assert data.startswith(b"value,error\n0,\n1,plain\n2,\"a, b\"\n3,\"say \"\"x\"\"\"\n")
        with open(out, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["value", "error"]
        assert [r[1] for r in rows] == texts

    def test_chunked_template_matches_format_per_value(self, tmp_path, monkeypatch):
        # a chunk boundary inside the table, and one mixed float/text table
        monkeypatch.setattr(scenarios, "_CSV_CHUNK", 4)
        v = np.array([-0.0, 5e-324, math.nan, math.inf, -math.inf, 1 / 3, 0.1, -2.5e-310, 7.0])
        texts = ["", "a, b", "plain", 'q"', "", "x", "", "y", "z"]
        out = tmp_path / "mixed.csv"
        write_csv(out, {"v": v, "error": texts, "w": -v})
        want = "v,error,w\n" + "".join(
            f"{format(a, '.17g')},{scenarios._csv_field(e)},{format(b, '.17g')}\n"
            for a, e, b in zip(v.tolist(), texts, (-v).tolist())
        )
        assert out.read_bytes() == want.encode()

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "c.csv", {"a": np.zeros(3), "b": np.zeros(2)})


class TestCommandLine:
    def test_couplings(self, capsys):
        code = main(["couplings", "--x", str(math.pi / 6), "--mu-dot-r", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "gamma12 = 0.945968734" in out
        assert "omega12 = 4.65211096" in out

    def test_last_of_a_repeated_option_wins(self, capsys):
        argv = ["couplings", "--x", "-1", "--x=0.5235987755982988", "--gamma", "2", "--gamma", "1"]
        assert main(argv) == EXIT_OK
        assert "gamma12 = 0.945968734" in capsys.readouterr().out

    def test_couplings_small_separation(self, capsys):
        # unsummed, the near-field cancellation gives gamma12 > gamma here
        assert main(["couplings", "--x", "1e-5"]) == EXIT_OK
        (line,) = [s for s in capsys.readouterr().out.splitlines() if s.startswith("gamma12")]
        assert float(line.split("=")[1]) < 1.0

    def test_couplings_invalid_geometry(self, capsys):
        assert main(["couplings", "--x", "-1"]) == EXIT_VALIDATION

    def test_run_writes_deterministic_csv(self, tmp_path):
        scen = tmp_path / "s.txt"
        scen.write_text(FIG2_SCENARIO.replace("3000", "100"))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out1)]) == EXIT_OK
        assert main(["run", "--scenario", str(scen), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == (
            "t,concurrence,negativity,rho_ee,rho_ss,rho_aa,rho_gg,"
            "re_rho_as,im_rho_as,s_squared"
        )

    def test_run_inline_flags(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            [
                "run",
                "--out",
                str(out),
                "--x",
                str(math.pi / 6),
                "--delta",
                "0",
                "--points",
                "50",
            ]
        )
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 51

    def test_points_option_keeps_the_files_time_span(self, tmp_path):
        scen = tmp_path / "s.txt"
        scen.write_text("t_start = 0.5\nt_end = 2\npoints = 40\n")
        grid = TimeGrid(0.5, 2.0, 20)
        assert with_keys(load_scenario(scen), points=20).grid == grid
        out = tmp_path / "out.csv"
        code = main(["run", "--scenario", str(scen), "--points", "20", "--out", str(out)])
        assert code == EXIT_OK
        t = [float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]]
        assert t == grid.times().tolist()

    def test_run_missing_scenario_file(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "nope.txt"), "--out", "x.csv"])
        assert code == EXIT_VALIDATION

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--axis", "delta", "--values", "0,10", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "value,first_max_c,t_first_max,c_at_t5,error"
        assert len(lines) == 3

    def test_sweep_error_text_is_quoted(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "mu_dot_r", "--values=1.5,0", "--out", str(out)]
        assert main(argv) == EXIT_OK
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [5, 5, 5]
        (bad,) = sweep(Scenario(), "mu_dot_r", [1.5])
        assert "," in bad.error
        assert rows[1][4] == bad.error
        assert rows[2][4] == ""

    def test_sweep_c_at_t5_on_the_default_grid(self, tmp_path):
        # the default grid ends at t = 3; C(5) must still equal what `run`
        # writes at t = 5
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--axis", "delta", "--values=0,10", "--out", str(out)]
        assert main(argv) == EXIT_OK
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        scen = tmp_path / "s.txt"
        scen.write_text("t_end = 5\npoints = 11\n")
        for row in rows:
            traj = tmp_path / "traj.csv"
            argv = ["run", "--scenario", str(scen), "--delta", row["value"], "--out", str(traj)]
            assert main(argv) == EXIT_OK
            with open(traj, encoding="utf-8", newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            assert float(last["t"]) == 5.0
            assert math.isfinite(float(row["c_at_t5"])) and row["error"] == ""
            assert float(row["c_at_t5"]) == pytest.approx(float(last["concurrence"]), abs=1e-12)

    def test_huge_separation(self, tmp_path, capsys):
        assert main(["couplings", "--x", "1e308"]) == EXIT_OK
        assert "gamma12 = " in capsys.readouterr().out
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "x", "--values=1e308", "--out", str(out)]) == EXIT_OK
        with open(out, encoding="utf-8", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row.pop("error") == ""
        assert all(math.isfinite(float(v)) for v in row.values())

    def test_figure_csv(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "fig3", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "t,C,N"
        assert len(lines) == 3001

    def test_numerical_failure_exit_code(self, monkeypatch, tmp_path):
        import twoatom.cli as cli

        def boom(s):
            raise DickeSingularityError("forced")

        monkeypatch.setattr(cli, "run_scenario", boom)
        code = main(["run", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_NUMERICAL

    def test_anti_dicke_point(self, tmp_path):
        scen = tmp_path / "s.txt"
        scen.write_text(
            "initial = both_excited\ngamma12 = -1\nomega12 = 0\nt_end = 5\npoints = 101\n"
        )
        out = tmp_path / "anti.csv"
        assert main(["run", "--scenario", str(scen), "--out", str(out)]) == EXIT_OK
        header, *lines = out.read_text().splitlines()
        cols = dict(zip(header.split(","), np.loadtxt(lines, delimiter=",").T))
        s = load_scenario(scen)
        mats = evolve_full_master(block_to_matrix(s.initial_block()), s.params(), s.grid)
        states = [to_collective(matrix_to_block(m)) for m in mats]
        for col, field in (("rho_ee", "ree"), ("rho_ss", "rss"), ("rho_aa", "raa"), ("rho_gg", "rgg")):
            want = np.array([getattr(c, field) for c in states])
            assert np.max(np.abs(cols[col] - want)) < 1e-8

        sweep_out = tmp_path / "sweep.csv"
        argv = ["sweep", "--scenario", str(scen), "--axis", "gamma12",
                "--values=-1,0.5", "--out", str(sweep_out)]
        assert main(argv) == EXIT_OK
        rows = sweep_out.read_text().splitlines()[1:]
        assert [r.split(",")[4] for r in rows] == ["", ""]

    @pytest.mark.parametrize(
        "argv,scenario",
        [
            (["run", "--delta", "nan"], None),
            (["run", "--points", "0"], None),
            (["run"], "initial = atom1_excited\nt_end = inf\n"),
        ],
    )
    def test_invalid_input_exits_2_without_traceback(self, tmp_path, argv, scenario):
        out = tmp_path / "out.csv"
        argv = argv + ["--out", str(out)]
        if scenario is not None:
            (tmp_path / "s.txt").write_text(scenario)
            argv += ["--scenario", str(tmp_path / "s.txt")]
        proc = _fresh_cli(*argv)
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_overflowing_entry_exits_2_with_only_the_error_line(self, tmp_path):
        # |r34|**2 overflows to inf, which fails the positivity check silently
        scen = tmp_path / "s.txt"
        scen.write_text("initial = custom\nr33 = 0.5\nr44 = 0.5\nr34_re = 1e300\n")
        out = tmp_path / "out.csv"
        proc = _fresh_cli("run", "--scenario", str(scen), "--out", str(out))
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()

    def test_overflowing_propagator_exits_3_with_only_the_error_line(self, tmp_path):
        # expm squares about 650 times and overflows to inf and NaN; the
        # non-finite check refuses the trajectory without numpy warnings
        out = tmp_path / "out.csv"
        proc = _fresh_cli("run", "--delta=1e200", "--out", str(out))
        assert proc.returncode == EXIT_NUMERICAL, proc.stderr
        assert proc.stderr.startswith("numerical failure: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,scenario",
        [
            # 2 delta dt overflows to inf in the generator times the step
            (["--delta=8e307", "--points", "2"], None),
            # expm rounds the step above norm 1, and its powers overflow
            (["--delta=3.7e18"], None),
            # linspace overflows at the last time before it sets it to t_end
            ([], "t_end = 1.7976931348623157e+308\npoints = 7\n"),
        ],
        ids=["generator_product", "propagator_powers", "largest_t_end"],
    )
    def test_overflow_exits_3_with_only_the_error_line(self, tmp_path, argv, scenario):
        if scenario is not None:
            (tmp_path / "s.txt").write_text(scenario)
            argv = [*argv, "--scenario", str(tmp_path / "s.txt")]
        out = tmp_path / "out.csv"
        proc = _fresh_cli("run", *argv, "--out", str(out))
        assert proc.returncode == EXIT_NUMERICAL, proc.stderr
        assert proc.stderr.startswith("numerical failure: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()

    def test_huge_gamma_sweep_writes_nothing_to_stderr(self, tmp_path):
        # the excitation bounds overflow before AtomPairParams refuses the rates
        scen = tmp_path / "s.txt"
        scen.write_text("gamma = 1.7e308\npoints = 20\n")
        out = tmp_path / "out.csv"
        proc = _fresh_cli("sweep", "--scenario", str(scen), "--axis", "delta", "--values=0,1",
                          "--out", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert all(r.endswith('must be finite, got inf"') for r in out.read_text().splitlines()[1:])

    def test_huge_separation_in_a_fresh_process(self):
        proc = _fresh_cli("couplings", "--x", "1e308")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "gamma12 = " in proc.stdout

    def test_cli_import_leaves_scipy_unloaded(self, tmp_path):
        # nor the argument parsing modules, before or after a whole sweep
        argv = ["sweep", "--axis", "delta", "--values", "0,3", "--points", "50",
                "--out", str(tmp_path / "sweep.csv")]
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import twoatom.cli\n"
            "def loaded():\n"
            "    names = ('scipy', 'argparse', 'gettext', 'locale')\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in names)\n"
            "print(loaded())\n"
            f"print(twoatom.cli.main({argv!r}), loaded())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == f"{EXIT_OK} []"
        assert (tmp_path / "sweep.csv").exists()

    def test_invalid_values_exit_2(self, tmp_path):
        out = str(tmp_path / "out.csv")
        assert main(["figure", "fig2", "--points", "0", "--out", out]) == EXIT_VALIDATION
        assert main(["sweep", "--axis", "delta", "--values=0,inf", "--out", out]) == EXIT_VALIDATION
        with pytest.raises(SystemExit) as exc:
            main(["couplings", "--x", "nan"])
        assert exc.value.code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "spaced,joined",
        [
            (["sweep", "--axis", "gamma12", "--values", "-1,0", "--points", "50"],
             ["sweep", "--axis", "gamma12", "--values=-1,0", "--points", "50"]),
            (["sweep", "--axis", "delta", "--values", "-1e-3"],
             ["sweep", "--axis", "delta", "--values=-1e-3"]),
            (["run", "--delta", "-1e-3", "--points", "50"],
             ["run", "--delta=-1e-3", "--points", "50"]),
            (["run", "--mu-dot-r", "-0.5e0", "--points", "50"],
             ["run", "--mu-dot-r=-0.5e0", "--points", "50"]),
            (["run", "--x", "-1e5"], ["run", "--x=-1e5"]),
            (["run", "--points", "-1"], ["run", "--points=-1"]),
        ],
    )
    def test_negative_values_need_no_equals_sign(self, tmp_path, capsys, spaced, joined):
        # the token after an option is its value, even when it starts with "-"
        results = []
        for argv in (spaced, joined):
            out = tmp_path / "out.csv"
            code = main([*argv, "--out", str(out)])
            csv_text = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((code, csv_text, capsys.readouterr().err))
        assert results[0] == results[1]
        if joined[1:] == ["--x=-1e5"]:
            assert results[0][0] == EXIT_VALIDATION
            assert results[0][2] == "error: separation k0*r12 must be > 0, got -100000.0\n"

    @pytest.mark.parametrize(
        "argv,code,fresh",
        [
            *[pytest.param([*command, flag], EXIT_OK, False, id=" ".join([*command, flag]))
              for command in ([], *([c] for c in _COMMAND_OPTIONS)) for flag in ("-h", "--help")],
            pytest.param(["sweep", "--help"], EXIT_OK, True, id="sweep --help, fresh process"),
            pytest.param([], EXIT_VALIDATION, False, id="no command"),
            pytest.param(["frobnicate", "--out", "OUT"], EXIT_VALIDATION, False, id="unknown command"),
            pytest.param(["run", "--bogus", "1", "--out", "OUT"], EXIT_VALIDATION, False,
                         id="unknown option"),
            pytest.param(["run", "--bogus", "1", "--out", "OUT"], EXIT_VALIDATION, True,
                         id="unknown option, fresh process"),
            pytest.param(["run", "--out"], EXIT_VALIDATION, False, id="missing value"),
            pytest.param(["run", "--points", "20", "--out", "--x"], EXIT_VALIDATION, False,
                         id="option name as a value"),
            pytest.param(["sweep", "--axis", "delta", "--out", "OUT"], EXIT_VALIDATION, False,
                         id="missing required option"),
            pytest.param(["sweep", "--axis", "gamma", "--values", "0,1", "--out", "OUT"],
                         EXIT_VALIDATION, False, id="bad axis"),
            pytest.param(["figure", "fig9", "--out", "OUT"], EXIT_VALIDATION, False, id="bad figure"),
            pytest.param(["run", "--points", "1.5", "--out", "OUT"], EXIT_VALIDATION, False,
                         id="non-integer points"),
            pytest.param(["couplings", "--x", "nan"], EXIT_VALIDATION, False, id="non-finite x"),
        ],
    )
    def test_usage_contract(self, tmp_path, monkeypatch, capsys, argv, code, fresh):
        # help lists every option of its command on stdout and exits 0; a
        # usage error exits 2 with the usage line and writes no file
        monkeypatch.chdir(tmp_path)
        argv = ["out.csv" if a == "OUT" else a for a in argv]
        if fresh:
            proc = _fresh_cli(*argv)
            exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            exit_code, (stdout, stderr) = exc.value.code, capsys.readouterr()
        assert exit_code == code
        assert list(tmp_path.iterdir()) == []
        assert "Traceback" not in stderr
        if code == EXIT_OK:
            assert stderr == ""
            assert stdout.startswith("usage: twoatom")
            words = _COMMAND_OPTIONS[argv[0]] if argv[0] in _COMMAND_OPTIONS else _COMMAND_OPTIONS
            for word in words:
                assert f"\n  {word} " in stdout
        else:
            assert stdout == ""
            assert stderr.startswith("usage: twoatom")
            assert "\ntwoatom: error: " in stderr

    def test_load_scenario_round_trip(self, tmp_path):
        scen = tmp_path / "s.txt"
        scen.write_text("initial = symmetric\nt_end = 2.0\npoints = 20\n")
        s = load_scenario(scen)
        assert s.initial == "symmetric"
        assert s.grid == TimeGrid(0.0, 2.0, 20)


# ---------------------------------------------------------------------------
# the command-line contract under generated input

_NUMBERS = st.one_of(
    st.floats(-20.0, 20.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, -1.0, 1e-7, 1e308, -1e308, 5e-324]),
)
_SCENARIO_LINES = {
    "initial": st.sampled_from([*scenarios.INITIAL_STATES, "custom", "half_excited"]),
    "x": _NUMBERS,
    "mu_dot_r": st.one_of(st.floats(-1.2, 1.2), _NUMBERS),
    "gamma": _NUMBERS,
    "gamma12": st.one_of(st.floats(-1.1, 1.1), _NUMBERS),
    "omega12": _NUMBERS,
    "delta": _NUMBERS,
    "t_start": st.one_of(st.floats(0.0, 10.0), _NUMBERS),
    "t_end": st.one_of(st.floats(0.0, 10.0), _NUMBERS),
    "outputs": st.lists(st.sampled_from(scenarios.ALL_OUTPUTS), min_size=1).map(",".join),
    **{k: st.one_of(st.floats(-0.2, 1.2), _NUMBERS)
       for k in ("r11", "r22", "r33", "r44", "r12_re", "r12_im", "r34_re", "r34_im")},
}


@st.composite
def _scenario_texts(draw) -> str:
    keys = draw(st.lists(st.sampled_from(sorted(_SCENARIO_LINES)), unique=True, max_size=8))
    lines = [f"{k} = {draw(_SCENARIO_LINES[k])}" for k in keys]
    lines.append(f"points = {draw(st.integers(-1, 60))}")  # small grids only
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def _argvs(draw) -> tuple[list[str], list[str]]:
    """A ``run`` or ``sweep`` argv whose options each take the ``--opt=value``
    or the spaced ``--opt value`` form, in which a negative value such as
    -1e5 or -1,0 must pass too; and the same argv in the ``=`` form only."""
    command = draw(st.sampled_from(["run", "sweep"]))
    options = []
    if command == "run":
        for flag in ("--x", "--mu-dot-r", "--delta"):
            if draw(st.booleans()):
                options.append((flag, draw(_NUMBERS)))
        if draw(st.booleans()):
            options.append(("--initial", draw(_SCENARIO_LINES["initial"])))
    else:
        values = draw(st.lists(_NUMBERS, min_size=1, max_size=3))
        options.append(("--axis", draw(st.sampled_from(scenarios.SWEEP_AXES))))
        options.append(("--values", ",".join(map(str, values))))
    if draw(st.booleans()):
        options.append(("--points", draw(st.integers(-1, 60))))
    argv, joined = [command], [command]
    for flag, value in options:
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]
        joined.append(f"{flag}={value}")
    return argv, joined


_OPTION_NAMES = sorted({o for opts in _COMMAND_OPTIONS.values() for o in opts if o[0] == "-"})
_TOKENS = st.one_of(
    st.sampled_from([*_COMMAND_OPTIONS, *_OPTION_NAMES, "-h", "--help", "--", "-", "",
                     "fig2", "fig9", "delta", "gamma", "atom1_excited", "out.csv", "0,1", "-1,0"]),
    _NUMBERS.map(str),
    st.integers(-1, 60).map(str),
    # no path separator: a value after --out or --scenario stays in the cwd
    st.text(st.characters(blacklist_characters="/\\"), max_size=8),
    st.builds("{}={}".format, st.sampled_from(_OPTION_NAMES),
              st.one_of(_NUMBERS.map(str), st.sampled_from(["", "x", "fig2", "out.csv"]))),
)


@st.composite
def _any_argvs(draw) -> list[str]:
    """Token lists, most of them led by a command name."""
    head = draw(st.one_of(st.sampled_from(list(_COMMAND_OPTIONS)), _TOKENS))
    return [head, *draw(st.lists(_TOKENS, max_size=8))]


# values of the keys that are also run options, each written the same way
# in a file and on the command line; some are invalid, none is unparseable
_OPTION_KEY_VALUES = {
    "initial": st.sampled_from(sorted(scenarios.INITIAL_STATES)),
    "x": st.one_of(st.floats(-2.0, 20.0), st.sampled_from([1e-5, 1e5])),
    "mu_dot_r": st.floats(-1.5, 1.5),
    "delta": st.one_of(st.floats(-20.0, 20.0), st.sampled_from([3.7e18, 1e200])),
    "points": st.one_of(st.integers(-1, 60), st.just(100001)),
}


class TestFuzz:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_any_argvs())
    def test_any_argv_exits_with_a_documented_code(self, argv):
        # whatever the tokens, main returns an exit code or raises SystemExit
        # for help or a usage error; a CSV is left only on success
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                try:
                    code = main(argv)
                    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)
                except SystemExit as exc:
                    code = exc.code
                    assert code in (EXIT_OK, EXIT_VALIDATION)
                if code != EXIT_OK:
                    assert os.listdir(tmp) == []
            finally:
                os.chdir(cwd)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=_scenario_texts(), argvs=_argvs())
    def test_main_exits_with_a_documented_code(self, text, argvs):
        argv, joined = argvs
        with tempfile.TemporaryDirectory() as tmp:
            scen, out = Path(tmp) / "s.txt", Path(tmp) / "out.csv"
            scen.write_text(text, encoding="utf-8")
            results = []
            for args in (joined, argv) if argv != joined else (argv,):
                try:
                    code = main([*args, "--scenario", str(scen), "--out", str(out)])
                except SystemExit as exc:  # usage errors
                    code = exc.code
                csv_text = None
                if out.exists():
                    with open(out, encoding="utf-8", newline="") as fh:
                        csv_text = fh.read()
                    out.unlink()
                results.append((code, csv_text))
        # the spaced form behaves as the "=" form does
        assert results[-1] == results[0]
        code, csv_text = results[0]
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)
        assert (csv_text is not None) == (code == EXIT_OK)
        if code != EXIT_OK:
            return
        header, *rows = csv.reader(io.StringIO(csv_text, newline=""))
        assert rows and all(len(r) == len(header) for r in rows)
        for row in rows:
            fields = dict(zip(header, row))
            if fields.pop("error", "") == "":
                assert all(math.isfinite(float(v)) for v in fields.values()), row

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(keys=st.fixed_dictionaries({}, optional=_OPTION_KEY_VALUES))
    def test_scenario_file_and_options_agree(self, keys):
        # a key given in a file or as the option of its name runs the same
        texts = {key: str(value) for key, value in keys.items()}
        with tempfile.TemporaryDirectory() as tmp:
            scen, out = Path(tmp) / "s.txt", Path(tmp) / "out.csv"
            scen.write_text("".join(f"{k} = {v}\n" for k, v in texts.items()), encoding="utf-8")
            options = [a for k, v in texts.items() for a in ("--" + k.replace("_", "-"), v)]
            results = []
            for argv in (["--scenario", str(scen)], options):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(["run", *argv, "--out", str(out)])
                csv_bytes = out.read_bytes() if out.exists() else None
                out.unlink(missing_ok=True)
                results.append((code, stdout.getvalue(), stderr.getvalue(), csv_bytes))
        assert results[0] == results[1]
