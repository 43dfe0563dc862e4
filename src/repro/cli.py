"""Command-line interface for running the reproduction experiments.

Usage (installed or from a checkout)::

    python -m repro list                      # show available experiments
    python -m repro table2                    # print one table/figure
    python -m repro figure3 --seed 7
    python -m repro figure5 --pair cnn_fn nyt_ap
    python -m repro figure5 --workers 4           # parallel sweep points
    python -m repro report                    # full Markdown report
    python -m repro ablations                 # all ablation studies

Arbitrary simulations run from a typed JSON config
(:class:`repro.api.SimulationConfig`)::

    python -m repro run --config cfg.json         # table of result rows
    python -m repro run --config cfg.json --json  # ResultSet JSON
    python -m repro run --config cfg.json --csv   # ResultSet CSV
    python -m repro run --config cfg.json --workers 2  # shards on a pool

The declarative scenario engine has its own command group::

    python -m repro scenarios list            # every registered scenario
    python -m repro scenarios describe figure3
    python -m repro scenarios run correlated_storm --workers 4
    python -m repro scenarios run figure3 --params trace=guardian
    python -m repro scenarios run failure_churn --values 60 480 --json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.experiments import figure4, figure6, figure8, report
from repro.experiments.workloads import DEFAULT_SEED

#: Command → (description, target, {CLI flag: what it sets}).  A tuple
#: target names the scenarios the command prints, one table each, and
#: the flags set scenario parameters: ``repro figure3 --trace T`` is
#: ``repro scenarios run figure3 --params trace=T``.  A module target
#: is a time-series figure (its sparklines have no table form; flags
#: become ``run`` keywords) or the report.
_COMMANDS: Dict[str, Tuple[str, object, Dict[str, str]]] = {
    "table2": ("Table 2: temporal workload characteristics", ("table2",), {}),
    "table3": ("Table 3: value workload characteristics", ("table3",), {}),
    "figure3": (
        "Figure 3: LIMD vs baseline polls/fidelity vs delta",
        ("figure3",),
        {"trace": "trace"},
    ),
    "figure4": (
        "Figure 4: LIMD adaptivity over time",
        figure4,
        {"trace": "trace_key"},
    ),
    "figure5": (
        "Figure 5: mutual temporal approaches vs delta",
        ("figure5",),
        {"pair": "pair"},
    ),
    "figure6": (
        "Figure 6: heuristic adaptivity over time",
        figure6,
        {"pair_fig6": "pair"},
    ),
    "figure7": ("Figure 7: mutual value approaches vs delta", ("figure7",), {}),
    "figure8": (
        "Figure 8: f at proxy vs server over time",
        figure8,
        {"workers": "workers"},
    ),
    "group_mt": (
        "Extension: n-object mutual temporal consistency",
        ("group_mt",),
        {},
    ),
    "hierarchy": (
        "Extension: flat vs hierarchical proxy topologies",
        ("hierarchy",),
        {"trace": "trace"},
    ),
    "ablations": (
        "All ablation studies",
        tuple(name for name, _title in report.ABLATIONS),
        {},
    ),
    "report": ("Full Markdown reproduction report", report, {}),
}


def _render_command(args: argparse.Namespace) -> str:
    """The output of one command of :data:`_COMMANDS`."""
    from repro.scenarios.engine import render_scenario, run_scenario

    _, target, flags = _COMMANDS[args.experiment]
    settings = {name: getattr(args, flag) for flag, name in flags.items()}
    if target is report:
        return report.generate(seed=args.seed, workers=args.workers)
    if not isinstance(target, tuple):
        return target.render(target.run(seed=args.seed, **settings))  # type: ignore[attr-defined]
    return "\n\n".join(
        render_scenario(
            run_scenario(name, seed=args.seed, workers=args.workers, params=settings)
        )
        for name in target
    )


def _print_or_explain(produce: Callable[[], str]) -> int:
    """Print what ``produce`` returns, or why it could not.

    Bad parameter *values* surface while running (unknown trace keys,
    wrong-shaped pairs, non-positive durations) — they exit 2 with one
    line, like unknown scenario or parameter names.  A worker process
    that died is no configuration's fault: it exits 1 as a failed run.
    """
    from repro.core.errors import ReproError, WorkerDiedError

    try:
        text = produce()
    except WorkerDiedError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except (ReproError, KeyError, ValueError, TypeError) as exc:
        # KeyError.__str__ would wrap the message in quotes; use the
        # bare argument.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"invalid scenario configuration: {message}", file=sys.stderr)
        return 2
    print(text)
    return 0


def _list_experiments() -> str:
    width = max(len(name) for name in _COMMANDS)
    lines = ["Available experiments:"]
    for name in sorted(_COMMANDS):
        lines.append(f"  {name.ljust(width)}  {_COMMANDS[name][0]}")
    lines.append(
        "\nDeclarative scenarios: `python -m repro scenarios list` "
        "(run any of them with `scenarios run <name>`)."
    )
    lines.append(
        "Typed configs: `python -m repro run --config cfg.json` "
        "executes a repro.api.SimulationConfig JSON file."
    )
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 1, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Maintaining Mutual Consistency for Cached "
            "Web Objects' (ICDCS 2001): regenerate any table or figure."
        ),
    )
    parser.add_argument(
        "experiment",
        help="experiment name, or 'list' to enumerate",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "run independent simulation points across N worker processes "
            "(default: serial; sweeps stay row-for-row identical)"
        ),
    )
    parser.add_argument(
        "--trace",
        default="cnn_fn",
        choices=("cnn_fn", "nyt_ap", "nyt_reuters", "guardian"),
        help="news trace for figures 3-4 (default cnn_fn)",
    )
    parser.add_argument(
        "--pair",
        nargs=2,
        default=("cnn_fn", "nyt_ap"),
        metavar=("A", "B"),
        help="trace pair for figure 5 (default: cnn_fn nyt_ap)",
    )
    parser.add_argument(
        "--pair-fig6",
        dest="pair_fig6",
        nargs=2,
        default=("nyt_ap", "nyt_reuters"),
        metavar=("A", "B"),
        help="trace pair for figure 6 (default: nyt_ap nyt_reuters)",
    )
    return parser


def build_scenarios_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro scenarios`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro scenarios",
        description=(
            "Declarative scenario engine: list, describe, and run any "
            "registered scenario (paper figures, ablations, and the "
            "new workload families) by name."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="enumerate registered scenarios")
    describe = commands.add_parser(
        "describe", help="show one scenario's spec (axis, values, params)"
    )
    describe.add_argument("name", help="scenario name")
    run = commands.add_parser("run", help="run one scenario and print rows")
    run.add_argument("name", help="scenario name")
    run.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED})",
    )
    run.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="run scenario points across N worker processes",
    )
    run.add_argument(
        "--params",
        nargs="*",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override spec parameters; values are parsed as JSON when "
            "possible (e.g. trace=guardian delta_min=2.5)"
        ),
    )
    run.add_argument(
        "--values",
        nargs="*",
        default=None,
        metavar="VALUE",
        help="replace the swept axis values",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the spec, seed, and rows as JSON instead of a table",
    )
    return parser


def _parse_axis_value(text: str) -> object:
    """Parse one ``--values`` entry: JSON number if possible, else string."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return text
    return value if isinstance(value, (int, float)) else text


def _scenarios_main(argv: Sequence[str]) -> int:
    """Entry point for the ``scenarios`` command group."""
    from repro.scenarios.engine import (
        describe_scenario,
        render_scenario,
        run_scenario,
    )
    from repro.scenarios.registry import SCENARIOS, UnknownScenarioError
    from repro.scenarios.spec import parse_param_overrides

    args = build_scenarios_parser().parse_args(argv)
    if args.command == "list":
        entries = SCENARIOS.values()
        width = max(len(entry.spec.name) for entry in entries)
        lines = ["Registered scenarios:"]
        for entry in entries:
            spec = entry.spec
            lines.append(
                f"  {spec.name.ljust(width)}  {spec.description}"
            )
        lines.append(
            "\nRun one with `python -m repro scenarios run <name>`; "
            "inspect its knobs with `scenarios describe <name>`."
        )
        print("\n".join(lines))
        return 0

    try:
        SCENARIOS.get(args.name)
    except UnknownScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.command == "describe":
        print(describe_scenario(args.name))
        return 0

    def produce() -> str:
        result = run_scenario(
            args.name,
            seed=args.seed,
            workers=args.workers,
            params=parse_param_overrides(args.params),
            values=(
                [_parse_axis_value(text) for text in args.values]  # type: ignore[misc]
                if args.values is not None
                else None
            ),
        )
        if args.json:
            return json.dumps(result.to_dict(), indent=2)
        return render_scenario(result)

    return _print_or_explain(produce)


def build_run_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro run`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "Execute one simulation described by a typed JSON "
            "SimulationConfig (see docs/API_GUIDE.md for the schema)."
        ),
    )
    parser.add_argument(
        "--config",
        required=True,
        metavar="PATH",
        help="path to a SimulationConfig JSON file",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the config's RNG seed",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "run a sharded config's shards across N worker processes "
            "(default: serial; rows stay identical)"
        ),
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--json",
        action="store_true",
        help="emit the ResultSet as JSON (columns + rows)",
    )
    output.add_argument(
        "--csv",
        action="store_true",
        help="emit the ResultSet as CSV",
    )
    return parser


def _run_config_main(argv: Sequence[str]) -> int:
    """Entry point for ``repro run --config cfg.json``."""
    from repro.api import SimulationConfig, run_simulation
    from repro.core.errors import ReproError
    from repro.api.render import render_dict_rows

    args = build_run_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = SimulationConfig.from_json(text)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        outcome = run_simulation(config, workers=args.workers)
    except ReproError as exc:
        print(f"invalid simulation configuration: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(outcome.results.to_json(indent=2))
    elif args.csv:
        print(outcome.results.to_csv(), end="")
    else:
        print(
            render_dict_rows(
                outcome.results.to_records(),
                columns=list(outcome.results.columns),
                title=(
                    f"Simulation: {config.workload.source} workload, "
                    f"{config.policy.name} policy, "
                    f"{config.topology.kind} topology (seed {config.seed})"
                ),
            )
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run one experiment and print its output."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "scenarios":
        return _scenarios_main(argv[1:])
    if argv and argv[0] == "run":
        return _run_config_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        print(_list_experiments())
        return 0
    if args.experiment not in _COMMANDS:
        print(
            f"unknown experiment {args.experiment!r}\n\n{_list_experiments()}",
            file=sys.stderr,
        )
        return 2
    return _print_or_explain(lambda: _render_command(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
