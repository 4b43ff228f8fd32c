"""Experiment registry and the ``repro-experiments`` command-line interface.

The registry maps the experiment identifiers (E1 … E9, listed in
``docs/paper_mapping.md``) to the ``build_report`` function of each
experiment module; :func:`run_experiment` runs an experiment's scenario
through the generic pipeline and builds its report.  The CLI runs any subset
at a chosen scale and writes the combined EXPERIMENTS.md report.

A second command family drives the declarative scenario layer directly::

    repro-experiments scenario list
    repro-experiments scenario show E5
    repro-experiments scenario run hypercube-urtn-diameter --scale quick --jobs 4
    repro-experiments scenario sweep er-fcase-reachability --set n=64,128 --set r=2,8

``scenario show`` prints an entry's JSON spec (redirect it to a file and
``read_scenario_json`` rebuilds the scenario); ``scenario run`` executes any
registry entry — experiment-backed or not —
through the one generic pipeline; ``scenario sweep`` does the same after
overriding sweep axes from the command line, which is how a brand-new
workload point is probed without touching any code.

Observability: every run command accepts ``--telemetry summary`` (compact
counters/timings on stderr) or ``--telemetry jsonl:PATH`` (machine-readable
trace records appended to PATH), and ::

    repro-experiments profile <scenario> [--scale quick]

runs a scenario under a telemetry session and prints the per-layer breakdown
(scenario pipeline / parallel engine / artifact cache / CSR kernels) and the
run's minor page faults — see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Callable, ContextManager, Sequence

from .. import telemetry
from ..core import kernels
from ..engine.executors import Executor, resolve_executor
from ..exceptions import ConfigurationError
from ..io.tables import format_table
from ..scenarios import (
    MetricSuite,
    Scenario,
    ScenarioRun,
    get_scenario,
    iter_scenarios,
    run_scenario,
)
from ..scenarios.registry import experiment_scenarios
from ..utils.logging import enable_console_logging
from ..utils.seeding import SeedLike
from . import (
    exp_dissemination,
    exp_er_connectivity,
    exp_expansion,
    exp_fcase,
    exp_general_por,
    exp_lifetime,
    exp_multilabel,
    exp_star_por,
    exp_temporal_diameter,
)
from .reporting import ExperimentReport, write_experiments_markdown

__all__ = [
    "EXPERIMENTS",
    "DESCRIPTIONS",
    "get_experiment",
    "run_experiment",
    "run_experiments",
    "main",
]

#: Registry: experiment id → the report builder of its module; the
#: experiment's workload is the scenario registered under the same id.
EXPERIMENTS: dict[str, Callable[[ScenarioRun], ExperimentReport]] = {
    "E1": exp_temporal_diameter.build_report,
    "E2": exp_lifetime.build_report,
    "E3": exp_expansion.build_report,
    "E4": exp_dissemination.build_report,
    "E5": exp_star_por.build_report,
    "E6": exp_general_por.build_report,
    "E7": exp_er_connectivity.build_report,
    "E8": exp_fcase.build_report,
    "E9": exp_multilabel.build_report,
}

#: Human-readable one-line description per experiment id.
DESCRIPTIONS: dict[str, str] = {
    "E1": "Temporal diameter of the normalized U-RT clique (Theorem 4)",
    "E2": "Temporal diameter vs. lifetime (Theorem 5)",
    "E3": "Expansion Process / Algorithm 1 (Theorem 3, Figure 1)",
    "E4": "Flooding dissemination vs. phone-call baseline (Section 3.5)",
    "E5": "Star graph labels-per-edge threshold and PoR (Theorem 6, Figure 2)",
    "E6": "General graphs: Theorems 7-8 and the box assignment (Figure 3)",
    "E7": "Erdos-Renyi connectivity threshold substrate",
    "E8": "Extension: non-uniform label distributions (F-CASE)",
    "E9": "Extension: multi-label random cliques",
}


def get_experiment(experiment_id: str) -> Callable[[ScenarioRun], ExperimentReport]:
    """Look up an experiment's report builder by its identifier (case-insensitive)."""
    key = experiment_id.strip().upper()
    if key not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(
    experiment_id: str,
    scale: str = "default",
    *,
    seed: SeedLike = None,
    jobs: int | None = None,
    executor: Executor | None = None,
) -> ExperimentReport:
    """Run one experiment's scenario and build its paper-vs-measured report.

    ``seed=None`` runs at the scenario's ``default_seed``.  ``jobs=N`` (or an
    explicit ``executor``, as :func:`repro.scenarios.run_scenario` takes it)
    fans the trials out over worker processes; the report is bit-identical
    to a serial run for the same seed.
    """
    key = experiment_id.strip().upper()
    build_report = get_experiment(key)
    return build_report(
        run_scenario(
            get_scenario(key), scale=scale, seed=seed, jobs=jobs, executor=executor
        )
    )


def _telemetry_session(spec: str | None) -> ContextManager[Any]:
    """Build the telemetry session context a ``--telemetry`` flag asked for.

    ``None`` (flag absent) yields a no-op context; ``"summary"`` prints the
    stderr counters/timings summary when the command finishes;
    ``"jsonl:PATH"`` appends the machine-readable trace records to PATH.
    """
    if spec is None:
        return nullcontext(None)
    if spec == "summary":
        return telemetry.session(telemetry.StderrSummarySink())
    if spec.startswith("jsonl:"):
        path = spec[len("jsonl:"):]
        if not path:
            raise ConfigurationError(
                "--telemetry jsonl: needs a path, e.g. --telemetry jsonl:trace.jsonl"
            )
        return telemetry.session(telemetry.JsonlSink(path))
    raise ConfigurationError(
        f"--telemetry expects 'summary' or 'jsonl:PATH', got {spec!r}"
    )


def _add_telemetry_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="SINK",
        help=(
            "record telemetry for the run: 'summary' prints counters/timings "
            "to stderr, 'jsonl:PATH' appends trace records to PATH"
        ),
    )


def _add_tile_size_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tile-size",
        default=None,
        type=int,
        metavar="ROWS",
        dest="tile_size",
        help=(
            "stream distance summaries through the out-of-core blocked sweep "
            "engine, ROWS sources per tile (O(n*ROWS) memory instead of "
            "O(n^2), bit-identical results; default: dense sweeps).  "
            "Composes with --jobs: tiles run within shards"
        ),
    )


def _with_tile_size(scenario: Scenario, tile_size: int | None) -> Scenario:
    """Apply ``--tile-size`` to the scenario's ``distance_summary`` metrics.

    The width becomes a default ``tile_size`` option of each such metric,
    which puts it on the blocked (out-of-core) path; results are
    bit-identical, only the memory profile changes.  The option travels to
    ``--jobs`` workers inside the pickled scenario.  A metric's own
    ``tile_size`` or ``"mode": "dense"`` wins.
    """
    if tile_size is None:
        return scenario
    if tile_size < 1:
        raise ConfigurationError(f"--tile-size must be >= 1, got {tile_size}")
    metrics = MetricSuite(
        tuple(
            replace(spec, options={"tile_size": tile_size, **spec.options})
            if spec.metric == "distance_summary"
            else spec
            for spec in scenario.metrics
        )
    )
    return replace(scenario, metrics=metrics)


def run_experiments(
    ids: Sequence[str] | None = None,
    *,
    scale: str = "default",
    seed: SeedLike = 2014,
    jobs: int | None = None,
) -> list[ExperimentReport]:
    """Run the requested experiments (all of them by default) and return the reports.

    ``jobs=N`` fans the experiments' work out over ``N`` worker processes
    through the parallel engine, one pool for the whole call; the flag never
    changes any experiment's results, only its wall-clock.
    """
    selected = list(ids) if ids else sorted(EXPERIMENTS)
    executor = resolve_executor(None, jobs)
    with executor:
        return [
            run_experiment(experiment_id, scale, seed=seed, executor=executor)
            for experiment_id in selected
        ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the claims of 'Ephemeral Networks with Random Availability "
            "of Links' (SPAA 2014). Runs Monte-Carlo experiments and writes a "
            "paper-vs-measured report. Use the 'scenario' subcommand to drive "
            "the declarative scenario registry directly."
        ),
    )
    parser.add_argument(
        "--ids",
        nargs="*",
        default=None,
        metavar="EID",
        help="experiment ids to run (default: all). " + "; ".join(
            f"{key}: {value}" for key, value in DESCRIPTIONS.items()
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "default", "full"),
        default="default",
        help="parameter preset (quick ≈ seconds, default ≈ minutes, full ≈ tens of minutes)",
    )
    parser.add_argument("--seed", type=int, default=2014, help="master RNG seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run Monte-Carlo trials on N worker processes (results are "
            "bit-identical to a serial run for the same seed)"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the combined markdown report to this path (e.g. EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-experiment console output"
    )
    _add_telemetry_option(parser)
    return parser


# --------------------------------------------------------------------- #
# the `scenario` command family
# --------------------------------------------------------------------- #
def _build_scenario_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments scenario",
        description="Drive the declarative scenario registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every registered scenario")

    show_parser = sub.add_parser(
        "show",
        help="print a scenario's JSON spec (read_scenario_json round-trips it)",
    )
    show_parser.add_argument("name", help="scenario name (see 'scenario list')")

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("name", help="scenario name (see 'scenario list')")
        p.add_argument(
            "--scale", default="default", help="scale preset (default: 'default')"
        )
        p.add_argument(
            "--seed", type=int, default=None,
            help="master RNG seed (default: the scenario's default_seed)",
        )
        p.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="worker processes (bit-identical to serial for the same seed)",
        )
        p.add_argument(
            "--records", default=None, metavar="PATH",
            help="write the flat result records as JSON to this path",
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress the results table"
        )
        _add_telemetry_option(p)
        _add_tile_size_option(p)

    run_parser = sub.add_parser(
        "run", help="run one scenario through the generic pipeline"
    )
    add_run_options(run_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="run a scenario with sweep axes overridden from the CLI"
    )
    add_run_options(sweep_parser)
    sweep_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="AXIS=V1,V2,...",
        dest="overrides",
        help=(
            "replace (or introduce) a sweep axis, e.g. --set n=64,128; "
            "repeat for several axes"
        ),
    )
    return parser


def _parse_axis_value(token: str) -> Any:
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    for converter in (int, float):
        try:
            return converter(token)
        except ValueError:
            continue
    return token


def _parse_overrides(entries: Sequence[str]) -> dict[str, list[Any]]:
    overrides: dict[str, list[Any]] = {}
    for entry in entries:
        if "=" not in entry:
            raise ConfigurationError(
                f"--set expects AXIS=V1,V2,..., got {entry!r}"
            )
        axis, _, values = entry.partition("=")
        axis = axis.strip()
        parsed = [_parse_axis_value(v.strip()) for v in values.split(",") if v.strip()]
        if not axis or not parsed:
            raise ConfigurationError(
                f"--set expects AXIS=V1,V2,..., got {entry!r}"
            )
        overrides[axis] = parsed
    return overrides


def _scenario_list() -> int:
    backed = set(experiment_scenarios())
    rows = []
    for scenario in iter_scenarios():
        rows.append(
            {
                "name": scenario.name,
                "mode": scenario.mode,
                "scales": ",".join(scenario.scale_names),
                "experiment": scenario.name if scenario.name in backed else "-",
                "description": scenario.description,
            }
        )
    print(format_table(rows))
    return 0


def _scenario_run(args: argparse.Namespace, overrides: dict[str, list[Any]]) -> int:
    scenario = get_scenario(args.name)
    if overrides:
        scenario = scenario.with_axes(overrides, scale=args.scale)
    scenario = _with_tile_size(scenario, args.tile_size)
    with _telemetry_session(args.telemetry):
        result = run_scenario(
            scenario, scale=args.scale, seed=args.seed, jobs=args.jobs
        )
    records = result.to_records()
    if not args.quiet:
        print(f"{scenario.name} — {scenario.title} [scale={args.scale}]")
        print(format_table(records))
    if args.records:
        from ..io.serialization import write_records_json

        path = write_records_json(records, args.records)
        print(f"wrote {path}")
    return 0


def _scenario_show(name: str) -> int:
    """Print the scenario's JSON spec — the exact text
    :func:`repro.io.serialization.read_scenario_json` rebuilds the scenario
    from, so ``scenario show X > x.json`` yields a runnable workload file."""
    print(get_scenario(name).to_json())
    return 0


def _scenario_main(argv: Sequence[str]) -> int:
    parser = _build_scenario_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _scenario_list()
    if args.command == "show":
        return _scenario_show(args.name)
    overrides = _parse_overrides(getattr(args, "overrides", []))
    return _scenario_run(args, overrides)


# --------------------------------------------------------------------- #
# the `profile` command
# --------------------------------------------------------------------- #
def _profile_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments profile",
        description=(
            "Run one scenario under a telemetry session and print the "
            "per-layer breakdown: scenario pipeline, parallel engine, "
            "analysis artifact cache, CSR sweep kernels."
        ),
    )
    parser.add_argument("name", help="scenario name (see 'scenario list')")
    parser.add_argument(
        "--scale", default="default", help="scale preset (default: 'default')"
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="master RNG seed (default: the scenario's default_seed)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (worker telemetry merges into the totals)",
    )
    parser.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also append the raw telemetry records to this JSONL file",
    )
    _add_tile_size_option(parser)
    args = parser.parse_args(argv)
    scenario = _with_tile_size(get_scenario(args.name), args.tile_size)
    sinks = [telemetry.JsonlSink(args.jsonl)] if args.jsonl else []
    before = _minor_faults()
    with telemetry.session(*sinks) as recorder:
        run_scenario(scenario, scale=args.scale, seed=args.seed, jobs=args.jobs)
    own, workers = (now - then for now, then in zip(_minor_faults(), before))
    print(
        telemetry.format_layer_report(
            recorder, title=f"profile: {scenario.name} [scale={args.scale}]"
        )
    )
    line = f"minor page faults: {own} in this process"
    if args.jobs is not None and args.jobs > 1:
        line += f", {workers} in its workers"
    print(line)
    return 0


def _minor_faults() -> tuple[int, int]:
    """Minor page faults so far: this process's, and its finished workers'.

    ``RUSAGE_CHILDREN`` counts only children that have exited and been
    waited for; a run joins its pool's workers before it returns.
    """
    import resource  # POSIX only; imported by the one command that reads it

    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt,
    )


# --------------------------------------------------------------------- #
# the `serve` command
# --------------------------------------------------------------------- #
def _serve_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description=(
            "Run the analysis service: an HTTP daemon over the persistent "
            "artifact store.  POST /scenarios submits runs through the "
            "checkpointing engine, GET /results/{fingerprint} serves stored "
            "summaries, POST /query answers per-network analytical queries "
            "from a bounded cache of live analysis handles."
        ),
    )
    parser.add_argument(
        "--data-dir", default="./service-data", metavar="DIR",
        help=(
            "root of persistent state: the SQLite store plus per-run engine "
            "checkpoint directories (default: ./service-data)"
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=8350,
        help="bind port; 0 picks an ephemeral port (default: 8350)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=None, metavar="N",
        dest="cache_capacity",
        help="live analysis handles kept resident (default: 32)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="engine worker processes per scenario run (default: serial)",
    )
    parser.add_argument(
        "--kernel-backend", default="numpy", metavar="NAME", dest="kernel",
        help="the sweep kernel: 'numpy', the only one (default: numpy)",
    )
    args = parser.parse_args(argv)
    kernels.set_default_backend(args.kernel)
    from ..service import serve as build_server

    server = build_server(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        cache_capacity=args.cache_capacity,
        engine_jobs=args.jobs,
    )
    print(f"serving on {server.url} (data: {args.data_dir})", flush=True)
    server.serve_forever()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    enable_console_logging()
    commands = {"serve": _serve_main, "scenario": _scenario_main, "profile": _profile_main}
    if argv and argv[0] in commands:
        try:
            return commands[argv[0]](argv[1:])
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _telemetry_session(args.telemetry):
            reports = run_experiments(
                args.ids, scale=args.scale, seed=args.seed, jobs=args.jobs
            )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for report in reports:
            print(report.to_text())
            print()
    if args.output:
        path = write_experiments_markdown(reports, args.output)
        print(f"wrote {path}")
    failures = [report.experiment_id for report in reports if not report.consistent]
    if failures:
        print(
            f"warning: {len(failures)} experiment(s) reported inconsistencies: "
            f"{', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
