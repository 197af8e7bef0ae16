"""Differential fuzzing campaigns over generated programs.

A campaign takes ``budget`` seeded programs (see
:mod:`repro.synth.generator`), compiles each at **all four heuristic
levels** (plus any strategy and machine sweeps), one cell each, and
runs every cell through the oracle battery,
:func:`repro.reliability.check_run`:

* the IR well-formedness validator and the partition single-entry
  property on every compilation;
* the invariant monitor riding a reference-loop (``_tick``) run, and
  the reliability oracle (sequential reference vs. full-semantics
  replay of the machine's commit log);
* the native loop, run unmonitored, must reproduce the monitored
  run's whole ``SimResult``: cycles, every cycle-breakdown category,
  squash and predictor counts, cache statistics.

Everything executes through the existing harness
(:func:`repro.harness.scheduler.run_specs`): cells group by compile
signature, fan out over the process pool, resume from the run
ledger, and cache records in the artifact cache.  Specs carry the
generated program's content hash (``RunSpec.source_hash``), so fuzz
records can never alias cached artifacts of a same-named workload
built by different generator code.

Each per-cell oracle verdict is embedded in the record's metrics
(``metrics["fuzz"]``), so verdicts ride the ledger and survive cache
hits and ``--resume`` — replaying a finished campaign re-reports its
divergences without re-running anything.

The campaign ledger (:class:`CampaignLedger`) zeroes per-entry wall
times, making two identical campaigns produce identical ledgers
modulo the ``ts`` timestamps — the determinism contract the CI
fuzz-smoke job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.compiler.partition import TraceMemo, select_tasks
from repro.compiler.regcomm import ReleaseAnalysis
from repro.experiments.runner import (
    RunRecord,
    _assemble_record,
    cell_config,
    compile_benchmark,
)
from repro.harness.ledger import LedgerEntry, RunLedger
from repro.harness.scheduler import run_specs
from repro.harness.spec import RunSpec
from repro.ir.asmtext import parse_program, program_to_text
from repro.ir.program import Program
from repro.ir.validate import well_formed
from repro.reliability.verify import check_run
from repro.sim import CycleBreakdown, SimConfig, build_task_stream
from repro.synth.generator import (
    generate_program,
    program_source_hash,
    synth_name,
)
from repro.synth.params import PRESETS
from repro.telemetry.metrics import MetricsRegistry

ALL_LEVELS: Tuple[HeuristicLevel, ...] = tuple(HeuristicLevel)

#: heuristic level strategy-sweep cells run at (multi-block and
#: profile-fed, so non-paper strategies exercise their full pipeline)
FUZZ_STRATEGY_LEVEL = HeuristicLevel.DATA_DEPENDENCE

#: dynamic-size histogram buckets for generated programs
PROGRAM_SIZE_BOUNDS: Tuple[int, ...] = (
    64, 128, 256, 512, 1024, 2048, 4096, 8192,
)


def program_seed(campaign_seed: int, index: int) -> int:
    """The generator seed of program ``index`` of a campaign.

    A large odd stride keeps distinct campaign seeds from sharing
    program streams for any realistic budget.
    """
    return campaign_seed * 1_000_003 + index


class CampaignLedger(RunLedger):
    """A run ledger whose entries carry no wall-clock durations.

    Fuzz campaigns must be reproducible byte-for-byte modulo the
    ``ts`` field: two runs of the same ``(budget, seed, preset)``
    produce identical ledgers otherwise, which the determinism tests
    and the CI fuzz-smoke job diff directly.
    """

    def record(self, entry: LedgerEntry) -> None:
        super().record(replace_wall(entry))


def replace_wall(entry: LedgerEntry) -> LedgerEntry:
    if entry.wall_seconds:
        entry = replace(entry, wall_seconds=0.0)
    return entry


@dataclass
class CampaignResult:
    """Everything one fuzzing campaign reports."""

    budget: int
    seed: int
    preset: str
    #: benchmark names of the generated programs, in seed order
    programs: List[str] = field(default_factory=list)
    #: (program, level/strategy/machine) cells executed
    cells: int = 0
    #: human-readable divergence reports, ordered deterministically
    divergences: List[str] = field(default_factory=list)
    #: benchmark name -> minimized IR text, for divergent programs
    #: reduced with ``--minimize``
    reduced: Dict[str, str] = field(default_factory=dict)
    #: campaign-level metrics registry summary
    metrics: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        head = (
            f"fuzz campaign: {len(self.programs)} programs "
            f"(preset={self.preset}, seed={self.seed}), {self.cells} "
            f"cells, {len(self.divergences)} divergence(s)"
        )
        lines = [head]
        lines += [f"  ! {d}" for d in self.divergences[:50]]
        if len(self.divergences) > 50:
            lines.append(f"  ... and {len(self.divergences) - 50} more")
        for name, text in self.reduced.items():
            n_blocks = sum(
                1 for line in text.splitlines()
                if line.endswith(":") and not line.startswith((" ", "\t"))
            )
            lines.append(f"  reduced {name} -> {n_blocks} block(s)")
        return "\n".join(lines)


def fuzz_specs(
    budget: int,
    seed: int = 1,
    preset: str = "default",
    levels: Sequence[HeuristicLevel] = ALL_LEVELS,
    strategies: Sequence[str] = (),
    machines: Sequence[str] = (),
) -> Tuple[List[RunSpec], List[str]]:
    """The harness specs of one campaign, plus the program names.

    Generating the programs up front (in the parent) serves two
    purposes: each spec carries the program's content hash, and an
    unbounded or invalid generation fails loudly before any cell is
    scheduled.

    Each program gets one cell per level.  ``strategies`` appends,
    per program, one cell per named non-paper selection strategy (at
    :data:`FUZZ_STRATEGY_LEVEL`) so fuzzing also covers the
    pluggable-strategy dispatch path.  ``machines`` appends, per
    program, one cell per named machine preset (at
    :data:`FUZZ_STRATEGY_LEVEL`) — heterogeneous machines share the
    level's compilation but drive the differential oracle through
    per-PU profiles, scaled rings and non-path predictors.
    """
    if preset not in PRESETS:
        known = ", ".join(PRESETS)
        raise ValueError(f"unknown synth preset {preset!r} (known: {known})")
    from repro.machines import resolve_machine

    # Resolve (and lint) machine names before any program is queued.
    machine_specs = [resolve_machine(m) for m in machines]
    params = PRESETS[preset]
    specs: List[RunSpec] = []
    names: List[str] = []
    for index in range(budget):
        pseed = program_seed(seed, index)
        program = generate_program(pseed, params)
        source = program_source_hash(program)
        name = synth_name(preset, pseed)
        names.append(name)
        for level in levels:
            specs.append(RunSpec(
                benchmark=name,
                level=level,
                source_hash=source,
            ))
        for strategy in strategies:
            selection = SelectionConfig(
                level=FUZZ_STRATEGY_LEVEL, strategy=strategy
            )
            specs.append(RunSpec(
                benchmark=name,
                level=FUZZ_STRATEGY_LEVEL,
                selection=selection,
                source_hash=source,
            ))
        for machine in machine_specs:
            specs.append(RunSpec(
                benchmark=name,
                level=FUZZ_STRATEGY_LEVEL,
                sim=SimConfig(machine=machine),
                source_hash=source,
            ))
    return specs, names


def _spec_machine(spec: RunSpec) -> str:
    """The machine-preset tag of a fuzz cell ("" = the legacy 4x2)."""
    machine = spec.sim.machine if spec.sim is not None else None
    return machine.name if machine is not None else ""


def execute_fuzz_spec(spec: RunSpec) -> RunRecord:
    """Harness worker: one fuzz cell through the oracle battery.

    Compiles through the standard (in-memory cached) pipeline, checks
    that the worker rebuilt the program the spec names, and runs
    :func:`~repro.reliability.check_run` on the cell.  The verdict is
    embedded in ``record.metrics["fuzz"]`` so it travels through the
    artifact cache and the ledger.
    """
    divergences: List[str] = []
    compiled = compile_benchmark(
        spec.benchmark, spec.level, scale=spec.scale,
        selection=spec.selection, input_set=spec.input_set,
        profile_input=spec.profile_input,
    )
    if spec.source_hash is not None:
        # The worker rebuilt the program from its name; a hash mismatch
        # means generation is not deterministic across processes.
        rebuilt = _rebuilt_source_hash(spec.benchmark, spec.scale)
        if rebuilt != spec.source_hash:
            divergences.append(
                f"source hash mismatch: spec says {spec.source_hash[:12]}, "
                f"worker generated {rebuilt[:12]} — generator is not "
                f"deterministic across processes"
            )
    result, cell_divergences, checks = check_run(
        compiled.stream, compiled.release,
        cell_config(spec.sim, spec.n_pus, spec.out_of_order),
        label=spec.describe(),
    )
    divergences += cell_divergences
    if result is None:
        record = _stub_record(spec, compiled)
    else:
        record = _assemble_record(
            spec.benchmark, "synth", spec.level, spec.n_pus,
            spec.out_of_order, compiled, result,
        )

    metrics = dict(record.metrics or {})
    metrics["fuzz"] = {
        "divergences": divergences,
        "invariant_checks": checks,
        "source_hash": spec.source_hash,
    }
    if spec.selection is not None and spec.selection.strategy:
        # Strategy-sweep cells share the level of a reference cell;
        # the report loader suffixes their labels with this.
        metrics["fuzz"]["strategy"] = spec.selection.strategy
    machine = _spec_machine(spec)
    if machine:
        # Machine-sweep cells likewise share a reference level.
        metrics["fuzz"]["machine"] = machine
    record.metrics = metrics
    return record


def _pristine_program(name: str, scale: float) -> Program:
    """A freshly built program for ``name`` (no selection transforms)."""
    from repro.workloads import get_benchmark

    return get_benchmark(name).build(scale)


@lru_cache(maxsize=None)
def _rebuilt_source_hash(name: str, scale: float) -> str:
    """The source hash of ``name`` as this process builds it, once per
    process: every cell of a program checks the same rebuild, and one
    string per program is all the cache keeps."""
    return program_source_hash(_pristine_program(name, scale))


def _stub_record(spec: RunSpec, compiled) -> RunRecord:
    """A zeroed record for a cell whose simulation aborted."""
    return RunRecord(
        benchmark=spec.benchmark, suite="synth", level=spec.level,
        n_pus=spec.n_pus, out_of_order=spec.out_of_order, cycles=0,
        instructions=0, ipc=0.0,
        dynamic_tasks=len(compiled.stream.tasks),
        mean_task_size=compiled.stream.mean_task_size,
        mean_control_transfers=0.0, mean_branches=0.0,
        task_prediction_accuracy=0.0, branch_prediction_accuracy=0.0,
        control_squashes=0, memory_squashes=0,
        mean_window_span_measured=0.0, breakdown=CycleBreakdown(),
    )


def run_campaign(
    budget: int,
    seed: int = 1,
    preset: str = "default",
    jobs: Optional[int] = 1,
    cache=None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
    minimize: bool = False,
    levels: Sequence[HeuristicLevel] = ALL_LEVELS,
    strategies: Sequence[str] = (),
    machines: Sequence[str] = (),
) -> CampaignResult:
    """Run one differential fuzzing campaign through the harness.

    Returns a :class:`CampaignResult`; never raises on divergence
    (the CLI exits non-zero on ``not result.ok``).  With ``minimize``,
    every divergent program is delta-debugged to a minimal reproducer
    (``result.reduced``).  ``strategies`` sweeps non-paper selection
    strategies, and ``machines`` heterogeneous machine presets, as
    extra cells (see :func:`fuzz_specs`).
    """
    result = CampaignResult(budget=budget, seed=seed, preset=preset)
    specs, names = fuzz_specs(budget, seed, preset, levels=levels,
                              strategies=strategies, machines=machines)
    result.programs = names
    records = run_specs(
        specs, jobs=jobs, cache=cache, ledger=ledger,
        worker=execute_fuzz_spec, resume=resume,
    )
    result.cells = len(records)

    registry = MetricsRegistry()
    registry.counter("fuzz.programs").inc(len(names))
    registry.counter("fuzz.cells").inc(len(records))
    sizes = registry.histogram("fuzz.program_instructions",
                               PROGRAM_SIZE_BOUNDS)
    divergent_programs: List[str] = []
    for spec, record in zip(specs, records):
        name = spec.benchmark
        strategy = spec.selection.strategy if spec.selection else ""
        machine = _spec_machine(spec)
        cell_label = f"{name}@{spec.level.value}"
        if strategy:
            cell_label = f"{cell_label}+{strategy}"
        if machine:
            cell_label = f"{cell_label}/{machine}"
        if not strategy and not machine:
            sizes.observe(record.instructions)
        fuzz_meta = (record.metrics or {}).get("fuzz", {})
        cell_divs = [
            f"{cell_label}: {d}" for d in fuzz_meta.get("divergences", ())
        ]
        registry.counter("fuzz.invariant_checks").inc(
            int(fuzz_meta.get("invariant_checks", 0))
        )
        if cell_divs and name not in divergent_programs:
            divergent_programs.append(name)
        result.divergences.extend(cell_divs)
    registry.counter("fuzz.divergences").inc(len(result.divergences))
    registry.counter("fuzz.divergent_programs").inc(len(divergent_programs))
    result.metrics = registry.summary()

    if ledger is not None:
        ledger.event(
            "fuzz_campaign",
            budget=budget, seed=seed, preset=preset,
            programs=len(names), cells=result.cells,
            divergences=len(result.divergences),
            divergent_programs=divergent_programs,
            metrics=result.metrics,
        )

    if minimize and divergent_programs:
        from repro.synth.reduce import reduce_program

        for name in divergent_programs:
            program = _pristine_program(name, 1.0)
            reduced = reduce_program(
                program,
                lambda p: bool(
                    check_program(p, levels=levels, strategies=strategies,
                                  machines=machines)
                ),
            )
            result.reduced[name] = program_to_text(reduced)
    return result


def check_program(
    program: Program,
    levels: Sequence[HeuristicLevel] = ALL_LEVELS,
    n_pus: int = 4,
    max_instructions: int = 2_000_000,
    strategies: Sequence[str] = (),
    machines: Sequence[str] = (),
) -> List[str]:
    """In-process differential check of one program (no registry).

    The reducer predicate and the planted-fault tests use this: it
    runs the cells :func:`execute_fuzz_spec` would — all requested
    levels, plus the requested non-paper ``strategies`` and
    machine-preset ``machines`` — through the same oracle battery,
    against a raw :class:`~repro.ir.program.Program`.  Selection
    clones and transforms its input, so every downstream step works on
    ``partition.program``, the program the trace was recorded on.
    """
    text = program_to_text(program)
    divergences = [
        f"well-formedness: {i}" for i in well_formed(parse_program(text))
    ]
    if divergences:
        return divergences
    selections: List[Tuple[str, SelectionConfig, Optional[SimConfig]]] = [
        (level.value, SelectionConfig(level=level), None)
        for level in levels
    ]
    selections += [
        (f"{FUZZ_STRATEGY_LEVEL.value}+{strategy}",
         SelectionConfig(level=FUZZ_STRATEGY_LEVEL, strategy=strategy),
         None)
        for strategy in strategies
    ]
    selections += [
        (f"{FUZZ_STRATEGY_LEVEL.value}/{machine}",
         SelectionConfig(level=FUZZ_STRATEGY_LEVEL),
         SimConfig(machine=machine))
        for machine in machines
    ]
    traces = TraceMemo()
    for tag, selection, sim in selections:
        partition = select_tasks(
            parse_program(text), selection,
            max_profile_instructions=max_instructions, traces=traces,
        )
        trace = traces.trace(
            partition.program, max_instructions=max_instructions
        )
        _, cell_divergences, _ = check_run(
            build_task_stream(trace, partition), ReleaseAnalysis(partition),
            cell_config(sim, n_pus, True), label=f"fuzz-check/{tag}",
        )
        divergences += [f"{tag}: {d}" for d in cell_divergences]
    return divergences
