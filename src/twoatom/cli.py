"""Command-line front end.

Subcommands: ``couplings``, ``run``, ``sweep``, ``figure``.
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys

from .couplings import Geometry, GeometryError, rates_from_geometry
from .dynamics import DickeSingularityError, InvariantError, TimeGrid
from .scenarios import (
    SWEEP_AXES,
    Scenario,
    figure_rows,
    finite_float,
    load_scenario,
    run_scenario,
    scenario_columns,
    sweep,
    sweep_table,
    write_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoatom",
        description="Transient entanglement of two dipole-coupled atoms "
        "decaying by spontaneous emission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("couplings", help="collective rates from the geometry")
    p.add_argument("--x", type=finite_float, required=True, help="separation k0*r12")
    p.add_argument("--mu-dot-r", type=finite_float, default=0.0)
    p.add_argument("--gamma", type=finite_float, default=1.0)

    p = sub.add_parser("run", help="run a scenario and write a trajectory CSV")
    p.add_argument("--scenario", help="scenario file (key = value format)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--x", type=finite_float)
    p.add_argument("--mu-dot-r", type=finite_float)
    p.add_argument("--delta", type=finite_float)
    p.add_argument("--points", type=int)
    p.add_argument(
        "--initial",
        help="initial state name when no scenario file is given",
    )

    p = sub.add_parser("sweep", help="summary table over one parameter axis")
    p.add_argument("--scenario", help="base scenario file")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument(
        "--values",
        required=True,
        help="comma-separated axis values; write --values=-1,0 when the first is negative",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int)

    p = sub.add_parser("figure", help="emit the data for one of the canned figures")
    p.add_argument("name", choices=["fig2", "fig3", "fig4", "fig5"])
    p.add_argument("--out", required=True)
    p.add_argument("--points", type=int, help="grid points over the figure's time span")

    return parser


def _scenario_from_args(args) -> Scenario:
    s = load_scenario(args.scenario) if args.scenario else Scenario()
    overrides = {}
    if getattr(args, "initial", None) is not None:
        overrides["initial"] = args.initial
    if getattr(args, "x", None) is not None:
        overrides["x"] = args.x
    if getattr(args, "mu_dot_r", None) is not None:
        overrides["mu_dot_r"] = args.mu_dot_r
    if getattr(args, "delta", None) is not None:
        overrides["delta"] = args.delta
    if getattr(args, "points", None) is not None:
        overrides["grid"] = TimeGrid(s.grid.t_start, s.grid.t_end, args.points)
    return s._replace(**overrides) if overrides else s


def _cmd_couplings(args) -> int:
    rates = rates_from_geometry(Geometry(args.x, args.mu_dot_r), args.gamma)
    print(f"gamma = {rates.gamma:.12g}")
    print(f"gamma12 = {rates.gamma12:.12g}")
    print(f"omega12 = {rates.omega12:.12g}")
    return EXIT_OK


def _cmd_run(args) -> int:
    s = _scenario_from_args(args)
    traj = run_scenario(s)
    write_csv(args.out, {c: getattr(traj, c) for c in scenario_columns(s)})
    print(f"wrote {len(traj.t)} records to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    s = _scenario_from_args(args)
    values = [finite_float(v, "sweep value") for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("no sweep values given")
    rows = sweep(s, args.axis, values)
    write_csv(args.out, sweep_table(rows))
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    table = figure_rows(args.name, args.points)
    write_csv(args.out, table)
    print(f"wrote {len(table['t'])} rows for {args.name} to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "couplings": _cmd_couplings,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
    }
    try:
        return handlers[args.command](args)
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DickeSingularityError, InvariantError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
