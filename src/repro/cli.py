"""Command line interface: ``python -m repro <command>``.

Commands:

* ``run`` — one benchmark under one heuristic level / machine config
  (``--machine`` names a machine-description preset).
* ``figure5`` — regenerate the Figure 5 grid.
* ``scaling`` — the manycore scaling study: machine preset ×
  heuristic level × predictor grids with per-PU utilization
  telemetry and heuristic-ranking comparison.
* ``table1`` — regenerate Table 1.
* ``breakdown`` — Figure 2 cycle accounting.
* ``centralized`` — distributed vs centralized motivation study.
* ``verify`` — the oracle battery for any set of workloads: invariant
  monitors and the differential oracle on the reference loop, and,
  unless seeded fault injection is on, the native loop checked
  against that monitored run.
* ``bench`` — time a grid cold and check/update ``BENCH_sim.json``.
* ``trace`` — run one cell with the telemetry collector attached and
  export a Perfetto-loadable Chrome trace-event JSON timeline.
* ``report`` — diff two result sets (record grids, harness ledgers,
  bench baselines, or the built-in ``paper-table1``) cell by cell;
  exits non-zero when simulated cycles drifted.
* ``profile-sim`` — cProfile one simulation, print the hotspots.
* ``cache`` — inspect, audit (``doctor``), clear, or prune
  (``prune --max-bytes N``: evict least-recently-used artifacts)
  the cache.
* ``list`` — list the available benchmarks with static code counts
  (``--synth``: the synthetic-generator presets instead;
  ``--machines``: the machine-description presets with per-PU
  profiles; ``--json``: machine-readable).
* ``gen`` — emit one seeded synthetic program as assembly text.
* ``fuzz`` — differential fuzzing campaign: N generated programs
  × all four heuristic levels, each cell run through the same
  oracle battery as ``verify`` (the monitored reference loop and the
  native loop); ``--minimize`` delta-debugs divergent programs to
  minimal reproducers; ``--strategy`` and ``--machine`` sweep
  non-paper selection strategies and machine presets as extra
  cells.
* ``tune`` — search-based autotuning of task selection: a seeded
  genetic algorithm (or random-search baseline) over the selection
  genome, scored by simulated cycles through the harness; resumable
  via its schema-versioned tune ledger, best-vs-baseline record
  grids diffable with ``repro report``.

Grid commands (``figure5``, ``scaling``, ``table1``, ``breakdown``,
``centralized``) are rows of one table, :data:`_GRIDS`: a spec
builder over the parsed arguments, a formatter, the row's ``--pus``
default and any extra flags.  :func:`_cmd_grid` runs every row
through :func:`repro.harness.run_keyed`: ``--jobs N`` fans the grid
out over N worker processes (0 = one per CPU), the artifact cache
under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) makes repeat
sweeps near-instant and lets an interrupted grid pick up where it
stopped, since every finished cell is a cache hit (disable with
``--no-cache``), and ``--json PATH`` writes the machine-readable
record grid.

Every argument that names something (a benchmark, heuristic level,
engine, machine preset, predictor, selection strategy, synth preset
or bench grid), every scale and count (PUs, ``--jobs``,
``--budget``, ``--faults``, ``--max-bytes``) and the ``report``
tolerance is validated by its argparse ``type=``.  Bad input exits 2
with one line naming the value and the valid choices, before any cell
is scheduled.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import bench
from repro.compiler import HeuristicLevel, strategy_names
from repro.compiler.strategy import REFERENCE_STRATEGIES
from repro.experiments.breakdown import (
    BreakdownResult,
    breakdown_specs,
    format_breakdown,
)
from repro.experiments.centralized import (
    CentralizedResult,
    centralized_specs,
    format_centralized,
)
from repro.experiments.figure5 import (
    LEVELS,
    Figure5Result,
    figure5_specs,
    format_figure5,
)
from repro.experiments.runner import run_benchmark
from repro.experiments.scaling import (
    DEFAULT_MACHINES,
    DEFAULT_PREDICTORS,
    ScalingResult,
    format_scaling,
    scaling_specs,
)
from repro.experiments.table1 import Table1Result, format_table1, table1_specs
from repro.harness import (
    ArtifactCache,
    RunLedger,
    grid_records,
    run_keyed,
    write_records_json,
)
from repro.harness.ledger import default_progress
from repro.machines import machine_names
from repro.predict import TASK_PREDICTOR_KINDS
from repro.sim.config import ENGINES, check_pu_count
from repro.workloads import all_benchmarks, get_benchmark

_LEVELS = {level.value: level for level in HeuristicLevel}


def _benchmark(value: str) -> str:
    """argparse type: a registry or ``synth:<preset>:<seed>`` name."""
    try:
        get_benchmark(value)
    except KeyError as exc:
        message = exc.args[0]
        if not value.startswith("synth:"):
            message += ", or synth:<preset>:<seed>"
        raise argparse.ArgumentTypeError(message) from None
    return value


def _named(kind: str, names: Callable[[], Sequence[str]],
           *extra: str) -> Callable[[str], str]:
    """argparse type: one of ``names()``, read at parse time, or ``extra``."""

    def parse(value: str) -> str:
        known = [*names(), *extra]
        if value not in known:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {value!r} (choose from {', '.join(known)})"
            )
        return value

    return parse


def _synth_presets() -> List[str]:
    from repro.synth import PRESETS  # the synth package is slow to import

    return list(PRESETS)


def _tune_genes(gene: str) -> Callable[[], Sequence[str]]:
    def names() -> Sequence[str]:
        from repro.tune.genome import GENE_SPACE  # slow, like synth

        return GENE_SPACE[gene]

    return names


def _extra_strategies() -> List[str]:
    return [s for s in strategy_names() if s not in REFERENCE_STRATEGIES]


_level = _named("level", lambda: sorted(_LEVELS))
_engine = _named("engine", lambda: ENGINES)
_machine = _named("machine preset", machine_names)
_predictor = _named("predictor", lambda: TASK_PREDICTOR_KINDS)
_synth_preset = _named("synth preset", _synth_presets)


def _finite(what: str, minimum: float,
            inclusive: bool) -> Callable[[str], float]:
    """argparse type: a finite number ``what`` >= ``minimum`` (> when
    not ``inclusive``); nan and inf never pass."""
    bound = f"{'>=' if inclusive else '>'} {minimum:g}"

    def parse(value: str) -> float:
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        above = number >= minimum if inclusive else number > minimum
        if not (above and math.isfinite(number)):
            raise argparse.ArgumentTypeError(
                f"{what} must be a finite number {bound}, got {value!r}"
            )
        return number

    return parse


_scale = _finite("scale", 0, inclusive=False)
_tolerance = _finite("tolerance", 0, inclusive=True)


def _count(what: str, minimum: int) -> Callable[[str], int]:
    """argparse type: an integer ``what`` >= ``minimum``."""

    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            count = minimum - 1
        if count < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer >= {minimum}, got {value!r}"
            )
        return count

    return parse


_jobs = _count("worker count", 0)


def _pu_count(value: str) -> int:
    """argparse type: a PU count the machine lint accepts."""
    count = _count("PU count", 1)(value)
    try:
        check_pu_count(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return count


def _comma_list(item: Callable[[str], object]) -> Callable[[str], str]:
    """argparse type: comma-separated ``item`` values, kept as given."""

    def parse(value: str) -> str:
        for part in _items(value):
            item(part)
        return value

    return parse


def _items(value: str) -> List[str]:
    """The non-empty parts of a comma-separated argument."""
    return [part for part in value.split(",") if part]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=_scale, default=1.0,
        help="workload scale factor (default 1.0)",
    )
    parser.add_argument(
        "--benchmarks", type=_comma_list(_benchmark), default="",
        help="comma-separated benchmark names (default: all for "
             "figure5 and table1, four for the other grids)",
    )
    parser.add_argument(
        "--jobs", type=_jobs, default=0,
        help="worker processes for the grid (default 0 = one per CPU)",
    )
    _add_no_cache(parser)


def _add_no_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent artifact cache")


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=ENGINES, default="fast",
                        help="simulation core (bit-identical results)")


def _no_flags(parser: argparse.ArgumentParser) -> None:
    pass


@dataclass(frozen=True)
class _Grid:
    """One grid subcommand: ``specs(args)`` run by :func:`run_keyed`,
    then ``report(records, args)``."""

    help: str
    specs: Callable[[argparse.Namespace], Tuple[list, list]]
    report: Callable[[Dict, argparse.Namespace], str]
    #: the ``--pus`` default; None = the row declares no ``--pus``
    pus: Optional[int] = None
    #: adds the row's own flags
    flags: Callable[[argparse.ArgumentParser], None] = _no_flags


def _figure5_flags(parser: argparse.ArgumentParser) -> None:
    _add_engine(parser)
    parser.add_argument("--pus", type=_pu_count, default=0,
                        help="restrict to one PU count (default: 4 and 8)")
    parser.add_argument("--in-order", action="store_true",
                        help="in-order PUs only (default: both)")


def _figure5_configs(args: argparse.Namespace) -> List[Tuple[int, bool]]:
    pus = [args.pus] if args.pus else [4, 8]
    modes = [False] if args.in_order else [True, False]
    return [(n, ooo) for ooo in modes for n in pus]


def _scaling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machines", type=_comma_list(_machine), default="",
        help="comma-separated machine presets (see 'repro list "
             "--machines'; default: paper-4x2, big-little-8, "
             "hetero-16, manycore-32)",
    )
    parser.add_argument(
        "--predictors", type=_comma_list(_predictor), default="",
        help="comma-separated inter-task predictor kinds (path, "
             "gshare, hybrid; default: path)",
    )
    parser.add_argument(
        "--levels", type=_comma_list(_level), default="",
        help="comma-separated heuristic levels (default: all four)",
    )
    _add_engine(parser)
    parser.add_argument(
        "--baseline", type=_machine, default="paper-4x2",
        help="machine preset heuristic rankings are compared against "
             "(default: paper-4x2)",
    )


def _scaling_specs(args: argparse.Namespace) -> Tuple[list, list]:
    return scaling_specs(
        _items(args.benchmarks),
        _items(args.machines) or DEFAULT_MACHINES,
        _items(args.predictors) or DEFAULT_PREDICTORS,
        [_LEVELS[v] for v in _items(args.levels)] or LEVELS,
        args.scale,
        args.engine,
    )


#: every grid subcommand, in ``repro --help`` order
_GRIDS: Dict[str, _Grid] = {
    "figure5": _Grid(
        "regenerate Figure 5",
        lambda a: figure5_specs(_items(a.benchmarks), _figure5_configs(a),
                                scale=a.scale, engine=a.engine),
        lambda records, a: format_figure5(Figure5Result(records),
                                          _figure5_configs(a)),
        flags=_figure5_flags,
    ),
    "scaling": _Grid(
        "manycore scaling study: machine preset x heuristic level x "
        "predictor, with per-PU utilization telemetry",
        _scaling_specs,
        lambda records, a: format_scaling(ScalingResult(records),
                                          a.baseline),
        flags=_scaling_flags,
    ),
    "table1": _Grid(
        "regenerate Table 1",
        lambda a: table1_specs(_items(a.benchmarks), a.pus, a.scale),
        lambda records, a: format_table1(Table1Result(records)),
        pus=8,
    ),
    "breakdown": _Grid(
        "Figure 2 cycle accounting",
        lambda a: breakdown_specs(_items(a.benchmarks), a.pus,
                                  scale=a.scale),
        lambda records, a: format_breakdown(BreakdownResult(records)),
        pus=4,
    ),
    "centralized": _Grid(
        "distributed vs centralized motivation study",
        lambda a: centralized_specs(_items(a.benchmarks), a.pus, a.scale),
        lambda records, a: format_centralized(
            CentralizedResult(a.pus, records)),
        pus=8,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Task Selection for a Multiscalar "
            "Processor' (MICRO-31, 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one benchmark")
    run_p.add_argument("benchmark", type=_benchmark)
    run_p.add_argument(
        "--level", choices=sorted(_LEVELS), default="data_dependence"
    )
    run_machine = run_p.add_mutually_exclusive_group()
    run_machine.add_argument(
        "--pus", type=_pu_count,
        help="PU count of the paper's machine (default 4)",
    )
    run_machine.add_argument(
        "--machine", type=_machine,
        help="machine preset, which brings its own PU count (see "
             "'repro list --machines')",
    )
    run_p.add_argument("--in-order", action="store_true")
    run_p.add_argument("--scale", type=_scale, default=1.0)
    run_p.add_argument("--engine", choices=ENGINES, default="fast",
                       help="simulation core (bit-identical results)")
    run_p.add_argument("--strategy", type=_named("strategy", strategy_names),
                       help="selection strategy name (see 'repro list "
                            "--strategies'; default: the --level reference)")

    for name, grid in _GRIDS.items():
        grid_p = sub.add_parser(name, help=grid.help)
        _add_common(grid_p)
        if grid.pus is not None:
            grid_p.add_argument("--pus", type=_pu_count, default=grid.pus,
                                help=f"PU count (default {grid.pus})")
        grid_p.add_argument(
            "--json", default="",
            help="also write the record grid as JSON to this path",
        )
        grid.flags(grid_p)

    ver_p = sub.add_parser(
        "verify",
        help="differential oracle + invariant checks (optionally "
             "under seeded fault injection)",
    )
    ver_p.add_argument(
        "benchmarks", nargs="*", type=_benchmark,
        help="benchmarks to verify (default with --all: every one)",
    )
    ver_p.add_argument("--all", action="store_true",
                       help="verify every registered benchmark")
    ver_p.add_argument(
        "--levels", type=_comma_list(_level), default="",
        help="comma-separated heuristic levels (default: all four)",
    )
    ver_p.add_argument("--pus", type=_pu_count, default=4)
    ver_p.add_argument("--in-order", action="store_true")
    ver_p.add_argument("--scale", type=_scale, default=1.0)
    ver_p.add_argument(
        "--faults", type=_count("fault count", 0), default=0,
        help="inject N seeded faults per cell to exercise recovery",
    )
    ver_p.add_argument("--seed", type=int, default=0,
                       help="base seed for the fault plans")

    bench_p = sub.add_parser(
        "bench",
        help="time a grid cold and check/update BENCH_sim.json",
    )
    bench_p.add_argument(
        "--grids", type=_comma_list(_named("grid", lambda: bench.GRIDS)),
        default="smoke",
        help="comma-separated grid names (figure5, smoke, micro; "
             "default: smoke)",
    )
    bench_p.add_argument(
        "--engines", type=_comma_list(_engine), default="fast",
        help=f"comma-separated engines to time ({', '.join(ENGINES)}; "
             f"default: fast)",
    )
    bench_p.add_argument("--jobs", type=_jobs, default=1,
                         help="harness workers (default 1, the "
                              "baseline's configuration)")
    bench_p.add_argument(
        "--baseline", default="BENCH_sim.json",
        help="baseline file to check/update (default: BENCH_sim.json)",
    )
    bench_p.add_argument(
        "--check", action="store_true",
        help="fail if wall time regresses more than "
             f"{bench.DEFAULT_TOLERANCE:.0%} past the baseline",
    )
    bench_p.add_argument(
        "--update", action="store_true",
        help="merge this run's measurements into the baseline file",
    )
    bench_p.add_argument(
        "--json", default="",
        help="also write this run's record to this path",
    )

    trace_p = sub.add_parser(
        "trace",
        help="export one run's task timeline as Chrome trace-event "
             "JSON (open in Perfetto / chrome://tracing)",
    )
    trace_p.add_argument("benchmark", type=_benchmark)
    trace_p.add_argument(
        "--level", choices=sorted(_LEVELS), default="data_dependence"
    )
    trace_p.add_argument("--pus", type=_pu_count, default=4)
    trace_p.add_argument("--in-order", action="store_true")
    trace_p.add_argument("--scale", type=_scale, default=1.0)
    trace_p.add_argument("--engine", choices=ENGINES, default="fast",
                         help="simulation core (identical event streams)")
    trace_p.add_argument("-o", "--output", default="trace.json",
                         help="output path (default: trace.json)")

    rep_p = sub.add_parser(
        "report",
        help="diff two result sets cell by cell; non-zero exit on "
             "simulated-cycle drift",
    )
    rep_p.add_argument(
        "a", help="baseline: records JSON, ledger.jsonl, bench record, "
                  "or the built-in 'paper-table1'",
    )
    rep_p.add_argument("b", help="comparison input (same formats)")
    rep_p.add_argument(
        "--tolerance", type=_tolerance, default=0.0,
        help="allowed relative cycle difference (default 0 = exact)",
    )

    prof_p = sub.add_parser(
        "profile-sim",
        help="cProfile one simulation and print the hotspots",
    )
    prof_p.add_argument("benchmark", type=_benchmark)
    prof_p.add_argument(
        "--level", choices=sorted(_LEVELS), default="data_dependence"
    )
    prof_p.add_argument("--pus", type=_pu_count, default=4)
    prof_p.add_argument("--in-order", action="store_true")
    prof_p.add_argument("--scale", type=_scale, default=1.0)
    prof_p.add_argument("--engine", choices=ENGINES, default="fast")
    prof_p.add_argument("--top", type=int, default=25,
                        help="number of hotspots to print (default 25)")
    prof_p.add_argument(
        "--sort", choices=["cumulative", "tottime"], default="cumulative",
        help="pstats sort order (default: cumulative)",
    )
    prof_p.add_argument(
        "--include-compile", action="store_true",
        help="profile compilation too, not just the timing run",
    )

    cache_p = sub.add_parser(
        "cache",
        help="inspect, audit (doctor), clear, or prune the artifact "
             "cache",
    )
    cache_p.add_argument("action",
                         choices=["stats", "clear", "doctor", "prune"])
    cache_p.add_argument(
        "--max-bytes", type=_count("byte budget", 0), default=None,
        help="prune: evict least-recently-used artifacts until the "
             "store fits this many bytes (required for prune)",
    )

    list_p = sub.add_parser(
        "list",
        help="list the available benchmarks with static code counts",
    )
    listing = list_p.add_mutually_exclusive_group()
    listing.add_argument(
        "--synth", action="store_true",
        help="list the synthetic-generator presets instead",
    )
    listing.add_argument(
        "--strategies", action="store_true",
        help="list the registered selection strategies with their "
             "tunable parameters and defaults instead",
    )
    listing.add_argument(
        "--machines", action="store_true",
        help="list the machine-description presets with their per-PU "
             "profiles, topology and predictor instead",
    )
    list_p.add_argument(
        "--json", action="store_true",
        help="emit the listing as machine-readable JSON",
    )

    gen_p = sub.add_parser(
        "gen",
        help="emit one seeded synthetic program as assembly text",
    )
    gen_p.add_argument("seed", type=int, help="generator seed")
    gen_p.add_argument(
        "--preset", type=_synth_preset, default="default",
        help="synth parameter preset (see 'repro list --synth')",
    )
    gen_p.add_argument(
        "-o", "--output", default="",
        help="write the program here instead of stdout",
    )

    fuzz_p = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign over generated programs",
    )
    fuzz_p.add_argument(
        "--budget", type=_count("budget", 1), required=True,
        help="number of programs to generate and cross-check",
    )
    fuzz_p.add_argument("--seed", type=int, default=1,
                        help="campaign seed (default 1)")
    fuzz_p.add_argument(
        "--preset", type=_synth_preset, default="default",
        help="synth parameter preset (see 'repro list --synth')",
    )
    fuzz_p.add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes (default 1 = serial in-process; "
             "0 = one per CPU)",
    )
    _add_no_cache(fuzz_p)
    fuzz_p.add_argument(
        "--ledger", default="",
        help="write the campaign ledger to this path (default: the "
             "artifact cache's ledger; none with --no-cache)",
    )
    fuzz_p.add_argument(
        "--minimize", action="store_true",
        help="delta-debug each divergent program to a minimal "
             "reproducer",
    )
    fuzz_p.add_argument(
        "--strategy", action="append", dest="strategies",
        type=_named("non-paper strategy", _extra_strategies, "none"),
        help="non-paper selection strategy to sweep as an extra cell "
             "group per program (repeatable; default cost_model; "
             "'none' disables the sweep)",
    )
    fuzz_p.add_argument(
        "--machine", action="append", dest="machines",
        type=_named("machine preset", machine_names, "none"),
        help="machine preset to sweep as an extra heterogeneous cell "
             "group per program (repeatable; default big-little-8; "
             "'none' disables the sweep)",
    )

    tune_p = sub.add_parser(
        "tune",
        help="autotune task selection: seeded GA / random search over "
             "the selection genome, scored by simulated cycles",
    )
    tune_p.add_argument(
        "benchmarks", nargs="*", type=_benchmark,
        help="target benchmark names (registry names or "
             "synth:<preset>:<seed>); fitness is summed cycles over "
             "all targets",
    )
    tune_p.add_argument(
        "--synth", type=_synth_preset, metavar="PRESET",
        help="add one synthetic target drawn from this preset (its "
             "program seed derives from --seed)",
    )
    tune_p.add_argument(
        "--budget", type=int, default=32,
        help="nominal genome evaluations (GA generations = "
             "ceil(budget / pop); default 32)",
    )
    tune_p.add_argument("--seed", type=int, default=1,
                        help="campaign seed (default 1)")
    tune_p.add_argument(
        "--jobs", type=_jobs, default=0,
        help="worker processes per generation (default 0 = one per "
             "CPU; 1 = serial in-process)",
    )
    tune_p.add_argument(
        "--algo", choices=["ga", "random"], default="ga",
        help="search driver (default ga; random = uniform baseline)",
    )
    tune_p.add_argument(
        "--pop", type=int, default=8,
        help="GA population size / random-search batch (default 8)",
    )
    tune_p.add_argument("--n-pus", type=_pu_count,
                        help="PU count of the paper machine (default 4); "
                             "only with --machine paper-4x2, since every "
                             "other preset brings its own")
    tune_p.add_argument(
        "--machine", type=_named("tune machine", _tune_genes("machine"),
                                 "search"),
        default="paper-4x2",
        help="pin the machine gene to this preset (default "
             "paper-4x2, the paper's machine; 'search' frees the gene "
             "so the GA explores the machine axis)",
    )
    tune_p.add_argument(
        "--predictor", type=_named("tune predictor",
                                   _tune_genes("predictor"), "search"),
        default="path",
        help="pin the predictor gene (path, gshare, hybrid; default "
             "path; 'search' frees the gene)",
    )
    tune_p.add_argument(
        "--in-order", action="store_true",
        help="tune for in-order PUs (default out-of-order)",
    )
    tune_p.add_argument("--scale", type=_scale, default=1.0,
                        help="workload scale factor (default 1.0)")
    _add_no_cache(tune_p)
    tune_p.add_argument(
        "--ledger", default="",
        help="tune ledger path (default: <cache root>/tune/"
             "tune-<algo>-s<seed>-b<budget>.jsonl)",
    )
    tune_p.add_argument(
        "--resume", action="store_true",
        help="continue the campaign recorded in the ledger (replays "
             "completed evaluations instead of re-simulating)",
    )
    tune_p.add_argument(
        "--out", default="",
        help="write baseline.json + tuned.json record grids here "
             "(diff with 'repro report <out>/baseline.json "
             "<out>/tuned.json')",
    )
    tune_p.add_argument(
        "--json", action="store_true",
        help="print the campaign summary as JSON",
    )

    return parser


def _sim_for_engine(engine: str):
    """SimConfig override for a non-default engine (None = default)."""
    if engine == "fast":
        return None
    from repro.sim import SimConfig

    return SimConfig(engine=engine)


def _cmd_run(args: argparse.Namespace) -> str:
    from repro.compiler import SelectionConfig

    selection = None
    if args.strategy:
        selection = SelectionConfig(
            level=_LEVELS[args.level], strategy=args.strategy
        )
    sim = _sim_for_engine(args.engine)
    machine_note = ""
    if args.machine:
        from repro.machines import get_machine

        sim = replace(get_machine(args.machine), engine=args.engine)
        machine_note = f" [{args.machine}, {sim.predictor} predictor]"
    record = run_benchmark(
        args.benchmark,
        _LEVELS[args.level],
        n_pus=args.pus,
        out_of_order=not args.in_order,
        scale=args.scale,
        selection=selection,
        sim=sim,
    )
    strategy_note = f" [{args.strategy}]" if args.strategy else ""
    lines = [
        f"benchmark            : {record.benchmark} ({record.suite})",
        f"heuristic level      : {record.level.value}{strategy_note}",
        f"machine              : {record.n_pus} PUs, "
        f"{'out-of-order' if record.out_of_order else 'in-order'}"
        f"{machine_note}",
        f"instructions         : {record.instructions}",
        f"cycles               : {record.cycles}",
        f"IPC                  : {record.ipc:.3f}",
        f"dynamic tasks        : {record.dynamic_tasks}",
        f"mean task size       : {record.mean_task_size:.1f}",
        f"task mispredict      : {record.task_misprediction_percent:.1f}%",
        f"br-equivalent mispred: "
        f"{record.branch_normalized_misprediction_percent:.1f}%",
        f"window span (eq.)    : {record.window_span_formula:.0f}",
        f"window span (meas.)  : {record.mean_window_span_measured:.0f}",
        f"control squashes     : {record.control_squashes}",
        f"memory squashes      : {record.memory_squashes}",
    ]
    return "\n".join(lines)


def _cmd_grid(args: argparse.Namespace) -> str:
    """Run one :data:`_GRIDS` row: its specs, keyed, then its report."""
    grid = _GRIDS[args.command]
    keys, specs = grid.specs(args)
    harness: dict = {}
    if not args.no_cache:
        cache = ArtifactCache()
        ledger = RunLedger(cache.ledger_path, progress=default_progress())
        harness = {"cache": cache, "ledger": ledger}
    records = run_keyed(keys, specs, jobs=args.jobs, **harness)
    if args.json:
        write_records_json(args.json, args.command, grid_records(records),
                           args.scale)
    return grid.report(records, args)


def _cmd_verify(args: argparse.Namespace) -> str:
    from repro.reliability import verify_grid

    names = list(args.benchmarks)
    if not names and not args.all:
        raise SystemExit(
            "repro verify: name at least one benchmark or pass --all"
        )
    levels = [_LEVELS[v] for v in args.levels.split(",") if v] or None
    reports = verify_grid(
        benchmarks=names,
        levels=levels or tuple(HeuristicLevel),
        n_pus=args.pus,
        out_of_order=not args.in_order,
        scale=args.scale,
        faults=args.faults,
        seed=args.seed,
    )
    lines = [report.summary() for report in reports]
    bad = sum(1 for report in reports if not report.ok)
    lines.append(
        f"verified {len(reports)} cell(s): "
        f"{len(reports) - bad} ok, {bad} diverged"
    )
    if bad:
        raise SystemExit("\n".join(lines))
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> str:
    record = bench.run_bench(grids=_items(args.grids),
                             engines=_items(args.engines), jobs=args.jobs)
    if args.json:
        bench.write_record(args.json, record)
    lines = [bench.format_record(record)]
    if args.check:
        baseline = bench.load_baseline(args.baseline)
        if baseline is None:
            raise SystemExit(
                f"repro bench: no readable baseline at {args.baseline}"
            )
        problems = bench.check_regression(record, baseline)
        if problems:
            raise SystemExit("\n".join(
                lines + [f"REGRESSION: {p}" for p in problems]
            ))
        lines.append(
            f"no regression vs {args.baseline} "
            f"(tolerance {bench.DEFAULT_TOLERANCE:.0%})"
        )
    if args.update:
        bench.merge_into_baseline(args.baseline, record)
        lines.append(f"baseline {args.baseline} updated")
    return "\n".join(lines)


def _cmd_trace(args: argparse.Namespace) -> str:
    from repro.telemetry import TraceCollector, write_chrome_trace

    collector = TraceCollector()
    record = run_benchmark(
        args.benchmark,
        _LEVELS[args.level],
        n_pus=args.pus,
        out_of_order=not args.in_order,
        scale=args.scale,
        sim=_sim_for_engine(args.engine),
        tracer=collector,
    )
    payload = write_chrome_trace(args.output, collector)
    counts = collector.counts()
    tally = ", ".join(f"{kind}={n}" for kind, n in sorted(counts.items()))
    lines = [
        f"{args.benchmark}/{args.level}@{args.pus}pu "
        f"engine={args.engine}: {record.cycles} cycles, "
        f"{record.dynamic_tasks} tasks",
        f"{len(collector.events)} lifecycle event(s) ({tally})",
    ]
    lines.append(
        f"wrote {len(payload['traceEvents'])} trace event(s) to "
        f"{args.output} — open at https://ui.perfetto.dev "
        f"(1 µs = 1 cycle)"
    )
    return "\n".join(lines)


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.telemetry import diff_cells, format_report, load_cells

    try:
        a = load_cells(args.a)
        b = load_cells(args.b)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro report: {exc}")
    rows = diff_cells(a, b, tolerance=args.tolerance)
    text = format_report(a, b, rows)
    if any(row.drifted for row in rows):
        raise SystemExit(text)
    return text


def _cmd_profile_sim(args: argparse.Namespace) -> str:
    import cProfile
    import io
    import pstats

    from repro.experiments.runner import (
        cell_config,
        cell_machine,
        compile_benchmark,
    )
    from repro.harness import RunSpec
    from repro.sim.native import loop_name

    spec = RunSpec(
        args.benchmark, _LEVELS[args.level], scale=args.scale,
        sim=cell_config(_sim_for_engine(args.engine), args.pus,
                        not args.in_order),
    )
    if not args.include_compile:
        # Compile outside the profile so the report shows the
        # simulation itself, not the one-off trace build.
        compile_benchmark(spec.benchmark, spec.level, scale=spec.scale)
    profile = cProfile.Profile()
    profile.enable()
    _, machine = cell_machine(spec)
    result = machine.run()
    profile.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profile, stream=buf)
    stats.sort_stats(args.sort).print_stats(args.top)

    loop = loop_name() if args.engine == "fast" else "python"
    lines = [
        f"{machine.label} engine={args.engine} ({loop} loop): "
        f"{result.cycles} cycles, {result.committed_instructions} "
        f"instructions, IPC {result.ipc:.3f}"
    ]
    if machine.kernel_counters is not None:
        lines.append(_kernel_counter_lines(machine.kernel_counters))
    return "\n".join(lines) + "\n" + buf.getvalue().rstrip()


def _kernel_counter_lines(counters: Dict[str, int]) -> str:
    """The native loop's scan counters (``native.KERNEL_COUNTERS``) of
    a run, which visits every PU at least once."""
    states = ("wrong_path", "idle", "retiring", "done", "active")
    visits = sum(counters[name] for name in states)
    scans = counters["scans"]
    share = ", ".join(
        f"{name.replace('_', '-')} {counters[name] / visits:.1%}"
        for name in states
    )
    per_scan = counters["entries_examined"] / scans if scans else 0.0
    return (
        f"kernel PU-cycles: {visits:,} ({share})\n"
        f"kernel issue scans: {scans:,} run, "
        f"{counters['fruitless_scans']:,} issued nothing, "
        f"{counters['skipped_asleep']:,} skipped asleep; "
        f"{counters['entries_examined']:,} window entries examined "
        f"({per_scan:.2f} per scan)"
    )


def _cmd_cache(args: argparse.Namespace) -> str:
    cache = ArtifactCache()
    if args.action == "clear":
        removed = cache.clear()
        return f"cleared {removed} artifact(s) from {cache.root}"
    if args.action == "doctor":
        report = cache.doctor()
        return "\n".join([
            f"cache root : {cache.root}",
            f"checked    : {report['checked']}",
            f"ok         : {report['ok']}",
            f"stale      : {report['stale']}",
            f"quarantined: {report['quarantined']}",
        ])
    if args.action == "prune":
        if args.max_bytes is None:
            raise SystemExit(
                "repro cache prune: --max-bytes is required"
            )
        report = cache.prune(args.max_bytes)
        return "\n".join([
            f"cache root : {cache.root}",
            f"removed    : {report['removed']} artifact(s), "
            f"{report['freed_bytes'] / 1024.0:.1f} KiB freed",
            f"kept       : {report['kept']} artifact(s), "
            f"{report['kept_bytes'] / 1024.0:.1f} KiB "
            f"(limit {args.max_bytes / 1024.0:.1f} KiB)",
        ])
    stats = cache.stats()
    return "\n".join([
        f"cache root : {cache.root}",
        f"records    : {stats['records']} "
        f"({stats['records_bytes'] / 1024.0:.1f} KiB)",
        f"compiled   : {stats['compiled']} "
        f"({stats['compiled_bytes'] / 1024.0:.1f} KiB)",
        f"quarantined: {stats['quarantined']}",
        f"size       : {stats['bytes'] / 1024.0:.1f} KiB",
        f"ledger     : {stats['ledger_lines']} line(s), "
        f"{stats['ledger_bytes'] / 1024.0:.1f} KiB",
        f"code salt  : {cache.salt[:16]}",
    ])


def _cmd_gen(args: argparse.Namespace) -> str:
    from repro.ir import program_to_text
    from repro.synth import PRESETS, generate_program, synth_name

    program = generate_program(args.seed, PRESETS[args.preset])
    text = program_to_text(program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return (
            f"wrote {synth_name(args.preset, args.seed)} "
            f"({program.size} instructions) to {args.output}"
        )
    return text


def _cmd_fuzz(args: argparse.Namespace) -> str:
    from repro.synth import run_campaign
    from repro.synth.campaign import CampaignLedger

    cache = None if args.no_cache else ArtifactCache()
    if args.ledger:
        ledger = CampaignLedger(args.ledger, progress=default_progress())
    elif cache is not None:
        ledger = CampaignLedger(cache.ledger_path,
                                progress=default_progress())
    else:
        ledger = None
    result = run_campaign(
        budget=args.budget, seed=args.seed, preset=args.preset,
        jobs=args.jobs, cache=cache, ledger=ledger, minimize=args.minimize,
        strategies=_fuzz_sweep(args.strategies, "cost_model"),
        machines=_fuzz_sweep(args.machines, "big-little-8"),
    )
    lines = [result.summary()]
    counters = (result.metrics or {}).get("counters", {})
    lines.append(
        "counters: " + ", ".join(
            f"{name}={value}" for name, value in sorted(counters.items())
        )
    )
    for name, text in result.reduced.items():
        lines.append(f"--- minimized reproducer for {name} ---")
        lines.append(text)
    if not result.ok:
        raise SystemExit("\n".join(lines))
    return "\n".join(lines)


def _fuzz_sweep(requested: Optional[List[str]], default: str) -> tuple:
    """A ``repro fuzz --strategy``/``--machine`` sweep, already validated.

    Absent, the sweep is ``default``, so every fuzz campaign covers
    the pluggable-strategy dispatch and the heterogeneous machine
    path; ``none`` disables it.
    """
    if requested is None:
        return (default,)
    return tuple(name for name in requested if name != "none")


def _cmd_tune(args: argparse.Namespace) -> str:
    import json as _json
    from pathlib import Path

    from repro.synth.campaign import program_seed
    from repro.tune import TuneLedger, tune, tune_summary, write_tune_reports

    targets = list(args.benchmarks)
    if args.synth:
        targets.append(f"synth:{args.synth}:{program_seed(args.seed, 0)}")
    if not targets:
        raise SystemExit(
            "repro tune: name at least one benchmark or pass --synth "
            "PRESET (e.g. 'repro tune compress' or 'repro tune "
            "--synth loops')"
        )
    cache = None if args.no_cache else ArtifactCache()
    ledger_path = args.ledger
    if not ledger_path and cache is not None:
        ledger_path = str(
            Path(cache.root) / "tune"
            / f"tune-{args.algo}-s{args.seed}-b{args.budget}.jsonl"
        )
    ledger = None
    if ledger_path:
        path = Path(ledger_path)
        if path.exists() and path.stat().st_size and not args.resume:
            raise SystemExit(
                f"repro tune: {path} already holds a campaign ledger; "
                f"pass --resume to continue it or point --ledger at a "
                f"fresh path"
            )
        try:
            ledger = TuneLedger(path)
        except ValueError as exc:
            raise SystemExit(f"repro tune: {exc}")
    try:
        result = tune(
            targets, budget=args.budget, seed=args.seed, algo=args.algo,
            jobs=args.jobs or None, pop_size=args.pop, ledger=ledger,
            cache=cache, n_pus=args.n_pus or 4,
            out_of_order=not args.in_order, scale=args.scale,
            machine=None if args.machine == "search" else args.machine,
            predictor=(None if args.predictor == "search"
                       else args.predictor),
        )
    except ValueError as exc:
        raise SystemExit(f"repro tune: {exc}")
    summary = tune_summary(result)
    report_hint = ""
    if args.out:
        baseline_path, tuned_path = write_tune_reports(result, args.out)
        summary["reports"] = {
            "baseline": str(baseline_path), "tuned": str(tuned_path),
        }
        report_hint = (
            f"wrote {baseline_path} and {tuned_path}; diff with: "
            f"repro report {baseline_path} {tuned_path}"
        )
    if args.json:
        return _json.dumps(summary, indent=2, sort_keys=True)
    genome = result.best_genome.as_dict()
    delta = result.best_fitness - result.baseline_fitness
    pct = (100.0 * delta / result.baseline_fitness
           if result.baseline_fitness else 0.0)
    lines = [
        f"tune campaign: algo={result.algo} seed={result.seed} "
        f"budget={result.budget} pop={result.pop_size} "
        f"generations={result.generations} "
        f"evaluations={result.evaluations}",
        f"targets: {', '.join(result.targets)}",
        f"baseline (paper heuristic_3): {result.baseline_fitness:,} "
        f"cycles",
        f"best genome {result.best_hash}: {result.best_fitness:,} "
        f"cycles ({delta:+,}, {pct:+.1f}%)",
        "  " + " ".join(f"{k}={v}" for k, v in genome.items()),
        "per-target cycles (baseline -> tuned):",
    ]
    for target in result.targets:
        base = result.baseline_cycles.get(target, 0)
        best = result.best_cycles.get(target, 0)
        mark = " *" if best < base else ""
        lines.append(f"  {target}: {base:,} -> {best:,}{mark}")
    if ledger is not None:
        lines.append(f"ledger: {ledger.path}")
    if report_hint:
        lines.append(report_hint)
    return "\n".join(lines)


def _cmd_list(args: argparse.Namespace) -> str:
    import json as _json

    if getattr(args, "machines", False):
        from repro.machines import describe_machines

        described = describe_machines()
        if getattr(args, "json", False):
            return _json.dumps({"machines": described}, indent=2,
                               sort_keys=True)
        lines = [
            f"{'name':<14} {'PUs':>4} {'predictor':<10} {'issue':>5} "
            f"{'hop':>4} {'bw':>4} {'arb':>4} {'arb-lat':>7}  profiles"
        ]
        for entry in described:
            profiles = {}
            for pu in entry["pus"]:
                profiles[pu["name"]] = profiles.get(pu["name"], 0) + 1
            shape = " + ".join(
                f"{count}x{name}" for name, count in profiles.items()
            ) or "-"
            lines.append(
                f"{entry['name']:<14} {entry['n_pus']:>4} "
                f"{entry['predictor']:<10} {entry['issue_width']:>5} "
                f"{entry['ring_hop_latency']:>4} "
                f"{entry['ring_bandwidth']:>4} "
                f"{entry['arb_entries_per_pu']:>4} "
                f"{entry['arb_latency']:>7}  {shape}"
            )
        lines.append(
            "use with 'repro run --machine <name>', 'repro scaling "
            "--machines ...', or repro.machines.get_machine(<name>); "
            "issue is the width of every PU without a profile ('-': "
            "all PUs alike)"
        )
        return "\n".join(lines)
    if getattr(args, "strategies", False):
        from repro.compiler import describe_strategies

        described = describe_strategies()
        if getattr(args, "json", False):
            return _json.dumps({"strategies": described}, indent=2,
                               sort_keys=True)
        lines = [
            f"{'name':<16} {'kind':<10} {'class':<18} description"
        ]
        for entry in described:
            lines.append(
                f"{entry['name']:<16} {entry['kind']:<10} "
                f"{entry['class']:<18} {entry['description']}"
            )
            tunables = entry["tunables"]
            if tunables:
                params = ", ".join(
                    f"{k}={v}" for k, v in tunables.items()
                )
                lines.append(f"{'':<16} tunables: {params}")
        lines.append(
            "select with SelectionConfig(strategy=<name>); '' = the "
            "paper reference strategy of the configured level"
        )
        return "\n".join(lines)
    if getattr(args, "json", False):
        if getattr(args, "synth", False):
            from repro.synth import PRESETS

            payload = {
                "presets": [
                    {
                        "name": name,
                        "functions": params.functions,
                        "nest_depth": params.nest_depth,
                        "loop_body_target": params.loop_body_target,
                        "callee_target": params.callee_target,
                        "mem_prob": params.mem_prob,
                        "fp_prob": params.fp_prob,
                        "region_weights": list(params.region_weights()),
                    }
                    for name, params in PRESETS.items()
                ],
            }
        else:
            benchmarks = []
            for bm in all_benchmarks():
                program = bm.build(1.0)
                functions = list(program.functions())
                benchmarks.append({
                    "name": bm.name,
                    "suite": bm.suite,
                    "functions": len(functions),
                    "blocks": sum(
                        len(list(f.blocks())) for f in functions
                    ),
                    "instructions": program.size,
                    "description": bm.description,
                })
            payload = {"benchmarks": benchmarks}
        return _json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "synth", False):
        from repro.synth import PRESETS

        lines = [
            f"{'preset':<10} {'funcs':>5} {'nest':>4} {'body':>4} "
            f"{'callee':>6} {'mem':>5} {'fp':>5}  region weights "
            f"(line/diamond/fanout/loop/call)"
        ]
        for name, params in PRESETS.items():
            weights = "/".join(str(w) for w in params.region_weights())
            lines.append(
                f"{name:<10} {params.functions:>5} "
                f"{params.nest_depth:>4} {params.loop_body_target:>4} "
                f"{params.callee_target:>6} {params.mem_prob:>5.2f} "
                f"{params.fp_prob:>5.2f}  {weights}"
            )
        lines.append(
            "use as benchmarks: synth:<preset>:<seed> "
            "(e.g. 'repro run synth:loops:7')"
        )
        return "\n".join(lines)
    lines = [
        f"{'name':<10} {'suite':<7} {'funcs':>5} {'blocks':>6} "
        f"{'insts':>6}  description"
    ]
    for bm in all_benchmarks():
        program = bm.build(1.0)
        functions = list(program.functions())
        blocks = sum(len(list(f.blocks())) for f in functions)
        lines.append(
            f"{bm.name:<10} {bm.suite:<7} {len(functions):>5} "
            f"{blocks:>6} {program.size:>6}  {bm.description}"
        )
    return "\n".join(lines)


_COMMANDS = {
    "run": _cmd_run,
    **{name: _cmd_grid for name in _GRIDS},
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "profile-sim": _cmd_profile_sim,
    "cache": _cmd_cache,
    "list": _cmd_list,
    "gen": _cmd_gen,
    "fuzz": _cmd_fuzz,
    "tune": _cmd_tune,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tune" and args.n_pus and args.machine != "paper-4x2":
        parser.error(f"argument --n-pus: not allowed with argument "
                     f"--machine {args.machine} (it sizes only paper-4x2)")
    output = _COMMANDS[args.command](args)
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro list | head``).  Point
        # stdout at devnull so the interpreter's exit flush does not
        # raise again, and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
