"""Command-line front end.

Subcommands: ``couplings``, ``run``, ``sweep``, ``figure``.
Exit codes: 0 success, 2 validation error, 3 numerical failure.

The command line is read from one table, ``COMMANDS``, which gives each
command's options with their converter, choices, required flag, default and
help text. An option takes its value as ``--opt value`` or ``--opt=value``.
The token after an option is its value, so negative numbers such as ``-1e5``
or ``-1,0`` need no ``=``; only another option's name (or ``-h``/``--help``)
there means the value is missing. When an option repeats, the last one
wins, and option names are spelled in full. ``-h``/``--help`` prints help
built from the table and exits 0. A usage error prints the usage line and
``twoatom: error: ...`` to stderr and raises ``SystemExit(2)`` before the
command runs. The table stands in for argparse because importing argparse,
with the gettext and locale modules it loads, cost a few milliseconds of
every process.

An option of ``run`` or ``sweep`` named like a scenario-file key
(``--mu-dot-r`` is ``mu_dot_r``) overrides that key of the scenario file
through ``scenarios.with_keys``, the function that applies the file's keys.
"""
from __future__ import annotations

import sys

from .couplings import Geometry, GeometryError, rates_from_geometry
from .dynamics import DickeSingularityError, InvariantError
from .scenarios import (
    FIGURE_SCENARIOS,
    SCENARIO_KEYS,
    SWEEP_AXES,
    Scenario,
    figure_rows,
    finite_float,
    load_scenario,
    run_scenario,
    scenario_columns,
    sweep,
    sweep_table,
    with_keys,
    write_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_DESCRIPTION = (
    "Transient entanglement of two dipole-coupled atoms decaying by "
    "spontaneous emission."
)


_HELP = ("-h", "--help")


def _option(about, convert=str, choices=None, required=False, default=None):
    return convert, choices, required, default, about


def _dest(name: str) -> str:
    """The key of an option in the parsed arguments: ``--mu-dot-r`` as ``mu_dot_r``."""
    return name.lstrip("-").replace("-", "_")


def _syntax(name: str, choices) -> str:
    """``--opt METAVAR`` of an option, the metavar alone of a positional."""
    metavar = "{" + ",".join(choices) + "}" if choices else _dest(name).upper()
    return metavar if name[0] != "-" else f"{name} {metavar}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: twoatom [-h] {" + ",".join(COMMANDS) + "} ..."
    words = [f"usage: twoatom {command} [-h]"]
    for name, (_, choices, required, _, _) in COMMANDS[command][2].items():
        words.append(_syntax(name, choices) if required else f"[{_syntax(name, choices)}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    if command is None:
        text, title = _DESCRIPTION, "commands (twoatom <command> --help for its options)"
        rows = [(name, about) for name, (_, about, _) in COMMANDS.items()]
    else:
        (_, text, options), title = COMMANDS[command], "options"
        rows = [("-h, --help", "show this help and exit")]
        rows += [(_syntax(name, choices), about)
                 for name, (_, choices, _, _, about) in options.items()]
    width = max(len(left) for left, _ in rows) + 2
    lines = [_usage(command), "", text, "", f"{title}:"]
    lines += [f"  {left:<{width}}{about}" for left, about in rows]
    return "\n".join(lines) + "\n"


def _fail(command: str | None, message: str):
    print(_usage(command), f"twoatom: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_VALIDATION)


def _parse_args(argv: list[str]) -> tuple[str, dict]:
    """The command and its arguments by ``COMMANDS``, keyed by ``_dest``;
    an option not given takes its default."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    if argv[0] in _HELP:
        print(_help(None), end="")
        raise SystemExit(EXIT_OK)
    command, tokens = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {', '.join(map(repr, COMMANDS))})")
    options = COMMANDS[command][2]
    positionals = [name for name in options if name[0] != "-"]
    given, extras = {}, []
    for token in tokens:
        if token in _HELP:
            print(_help(command), end="")
            raise SystemExit(EXIT_OK)
        name, eq, text = token.partition("=")
        if name[:1] == "-" and name in options:
            if not eq:
                text = next(tokens, None)
                # an option name is no value: the option before it lacks one
                if text is None or text[:1] == "-" and (text in options or text in _HELP):
                    _fail(command, f"argument {name}: expected one argument")
        elif token[:1] != "-" and positionals:
            name, text = positionals.pop(0), token
        else:
            extras.append(token)
            continue
        convert, choices = options[name][:2]
        try:
            value = convert(text)
        except ValueError:
            _fail(command, f"argument {name}: invalid {convert.__name__} value: {text!r}")
        if choices and value not in choices:
            _fail(command, f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
        given[name] = value
    missing = [name for name, (_, _, required, _, _) in options.items()
               if required and name not in given]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return command, {
        _dest(name): given.get(name, default) for name, (_, _, _, default, _) in options.items()
    }


def _cmd_couplings(args) -> int:
    rates = rates_from_geometry(Geometry(args["x"], args["mu_dot_r"]), args["gamma"])
    print(f"gamma = {rates.gamma:.12g}")
    print(f"gamma12 = {rates.gamma12:.12g}")
    print(f"omega12 = {rates.omega12:.12g}")
    return EXIT_OK


def _cmd_run(args) -> int:
    s = args["scenario"]
    traj = run_scenario(s)
    write_csv(args["out"], {c: getattr(traj, c) for c in scenario_columns(s)})
    print(f"wrote {len(traj.t)} records to {args['out']}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    s = args["scenario"]
    values = [finite_float(v, "sweep value") for v in args["values"].split(",") if v.strip()]
    if not values:
        raise ValueError("no sweep values given")
    rows = sweep(s, args["axis"], values)
    write_csv(args["out"], sweep_table(rows))
    print(f"wrote {len(rows)} sweep rows to {args['out']}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    table = figure_rows(args["name"], args["points"])
    write_csv(args["out"], table)
    print(f"wrote {len(table['t'])} rows for {args['name']} to {args['out']}")
    return EXIT_OK


_POINTS = _option("grid points over the scenario's time span", int)

# command -> (handler, help, {name: (convert, choices, required, default, help)});
# a name without leading dashes is a positional argument
COMMANDS = {
    "couplings": (_cmd_couplings, "collective rates from the geometry", {
        "--x": _option("separation k0*r12", finite_float, required=True),
        "--mu-dot-r": _option("cosine of the dipole-axis angle (default 0)", finite_float,
                              default=0.0),
        "--gamma": _option("single-atom decay rate (default 1)", finite_float, default=1.0),
    }),
    "run": (_cmd_run, "run a scenario and write a trajectory CSV", {
        "--scenario": _option("scenario file (key = value format)"),
        "--out": _option("output CSV path", required=True),
        "--x": _option("separation k0*r12", finite_float),
        "--mu-dot-r": _option("cosine of the dipole-axis angle", finite_float),
        "--delta": _option("half the transition-frequency difference", finite_float),
        "--points": _POINTS,
        "--initial": _option("initial state name when no scenario file is given"),
    }),
    "sweep": (_cmd_sweep, "summary table over one parameter axis", {
        "--scenario": _option("base scenario file"),
        "--axis": _option("swept parameter", choices=SWEEP_AXES, required=True),
        "--values": _option("comma-separated axis values", required=True),
        "--out": _option("output CSV path", required=True),
        "--points": _POINTS,
    }),
    "figure": (_cmd_figure, "emit the data for one of the canned figures", {
        "name": _option("canned figure", choices=tuple(FIGURE_SCENARIOS), required=True),
        "--out": _option("output CSV path", required=True),
        "--points": _option("grid points over the figure's time span", int),
    }),
}


def main(argv=None) -> int:
    command, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if "scenario" in args:
            # run and sweep: the scenario file (or the defaults), then every
            # option named like one of its keys
            s = load_scenario(args["scenario"]) if args["scenario"] else Scenario()
            keys = {k: v for k, v in args.items() if k in SCENARIO_KEYS and v is not None}
            args["scenario"] = with_keys(s, **keys)
        return COMMANDS[command][0](args)
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DickeSingularityError, InvariantError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
