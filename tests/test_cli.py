import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twoatom
import twoatom.scenarios as scenarios
from twoatom.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from twoatom.dynamics import (
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
)
from twoatom.statespace import (
    BlockState,
    CollectiveState,
    block_to_matrix,
    from_collective,
    matrix_to_block,
    to_collective,
)

SRC = Path(twoatom.__file__).resolve().parents[1]

FIG2_SCENARIO = """
# one atom excited, sixth-wavelength separation
initial = atom1_excited
x = 0.5235987755982988
mu_dot_r = 0.0
delta = 0.0
t_end = 3.0
points = 3000
"""


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
        def unphysical(c0, p, grid):
            n = grid.n_points
            # |ras| = 0.9 puts a negative population in the one-excitation block
            return CollectiveState(
                rgg=np.zeros(n), rss=np.full(n, 0.5), raa=np.full(n, 0.5),
                ree=np.zeros(n), reg=np.zeros(n, complex), ras=np.full(n, 0.9 + 0j),
            )

        monkeypatch.setattr(scenarios, "evolve_block_ode", unphysical)
        with pytest.raises(twoatom.InvariantError):
            run_scenario(Scenario(grid=TimeGrid(0.0, 1.0, 10)))
        out = tmp_path / "bad.csv"
        assert main(["run", "--out", str(out), "--points", "10"]) == EXIT_NUMERICAL
        assert not out.exists()
        (row,) = sweep(Scenario(grid=TimeGrid(0.0, 1.0, 10)), "x", [1.0])
        assert "unphysical" in row.error


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
        def broken(c0, p, grid):
            raise ZeroDivisionError("a bug, not a bad input")

        monkeypatch.setattr(scenarios, "evolve_block_ode", broken)
        with pytest.raises(ZeroDivisionError):
            sweep(Scenario(grid=TimeGrid(0.0, 1.0, 10)), "x", [1.0])

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
        cols, rows = figure_rows("fig2")
        assert cols == ("t", "C", "aa_minus_ss", "aa_plus_ss")
        assert len(rows) == 3000

    def test_fig3_starts_at_zero(self):
        cols, rows = figure_rows("fig3")
        assert cols == ("t", "C", "N")
        t0 = rows[0]
        assert t0[1] == pytest.approx(0.0, abs=1e-12)
        assert t0[2] == pytest.approx(0.0, abs=1e-12)

    def test_points_option(self, tmp_path):
        cols, rows = figure_rows("fig2", points=10)
        assert len(rows) == 10 and rows[-1][0] == pytest.approx(3.0)
        out = tmp_path / "fig4.csv"
        assert main(["figure", "fig4", "--out", str(out), "--points", "25"]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 26

    def test_fig4_columns(self):
        cols, rows = figure_rows("fig4")
        assert cols == ("t", "C", "N", "rho_aa")
        assert max(r[1] for r in rows) < 0.1

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_rows("fig9")


class TestCommandLine:
    def test_couplings(self, capsys):
        code = main(["couplings", "--x", str(math.pi / 6), "--mu-dot-r", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "gamma12 = 0.945968734" in out
        assert "omega12 = 4.65211096" in out

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
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "twoatom.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_invalid_values_exit_2(self, tmp_path):
        out = str(tmp_path / "out.csv")
        assert main(["figure", "fig2", "--points", "0", "--out", out]) == EXIT_VALIDATION
        assert main(["sweep", "--axis", "delta", "--values=0,inf", "--out", out]) == EXIT_VALIDATION
        with pytest.raises(SystemExit) as exc:
            main(["couplings", "--x", "nan"])
        assert exc.value.code == EXIT_VALIDATION

    def test_load_scenario_round_trip(self, tmp_path):
        scen = tmp_path / "s.txt"
        scen.write_text("initial = symmetric\nt_end = 2.0\npoints = 20\n")
        s = load_scenario(scen)
        assert s.initial == "symmetric"
        assert s.grid == TimeGrid(0.0, 2.0, 20)
