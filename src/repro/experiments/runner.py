"""The canonical experiment pipeline with compilation caching.

``run_cell`` executes the full flow of Section 4 for one
:class:`~repro.harness.spec.RunSpec`: build the workload, apply the
task selection heuristics, execute functionally, split the trace into
dynamic tasks, and replay it on the spec's machine.  ``run_benchmark``
is the one-cell convenience over it, and ``cell_config`` sizes a
cell's machine for the spec builders.  The in-memory compile
cache keeps three things under three keys:

* source programs per ``(benchmark, scale, input_set)``, so that
  every selection of one benchmark builds it once (selection clones
  it before transforming, so the shared build is never mutated);
* compilation products (partition / trace / stream / release) per
  :func:`compile_cache_key` — benchmark, scale, input sets and every
  selection field — so that machine sweeps (PU counts, in-order vs
  out-of-order) reuse them;
* functional runs (trace and profile) and analyses (CFG, def-use
  chains, reachability, dependence ranking) per *transformed
  program*, in a :class:`~repro.compiler.partition.TraceMemo` keyed
  by the program's text, so that selections whose transforms yield
  the same program interpret, profile and analyse it once, the
  native loop lowers its trace once, and only the work that depends
  on the partition is redone.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig, TaskPartition, select_tasks
from repro.compiler.partition import TraceMemo
from repro.compiler.regcomm import ReleaseAnalysis
from repro.compiler.transforms import clone_program
# ``run_program`` is not called here (the trace memo interprets), but
# perf/spans.py wraps ``runner.run_program`` by this name.
from repro.ir.interp import Trace, run_program  # noqa: F401
from repro.ir.program import Program
from repro.metrics import normalized_branch_misprediction, window_span
from repro.sim import (
    CycleBreakdown,
    MultiscalarMachine,
    SimConfig,
    TaskStream,
    build_task_stream,
)
from repro.workloads import get_benchmark

if TYPE_CHECKING:
    from repro.harness.spec import RunSpec

#: (benchmark, scale, input_set, profile_input,
#: *SelectionConfig.cache_key()), plus ``("source", hash)`` for a
#: generated program.  The selection part enumerates every config
#: field *by name* — hand-picking fields once caused configs
#: differing only in unlisted fields to alias a cached partition, and
#: a positional tuple would alias across field reorderings.
_CompileKey = Tuple


@dataclass
class Compiled:
    """Cached compilation products for one (benchmark, config)."""

    partition: TaskPartition
    trace: Trace
    stream: TaskStream
    release: ReleaseAnalysis


@dataclass
class RunRecord:
    """Everything one simulated run reports."""

    benchmark: str
    suite: str
    level: HeuristicLevel
    n_pus: int
    out_of_order: bool
    cycles: int
    instructions: int
    ipc: float
    dynamic_tasks: int
    mean_task_size: float
    mean_control_transfers: float
    mean_branches: float
    task_prediction_accuracy: float
    branch_prediction_accuracy: float
    control_squashes: int
    memory_squashes: int
    mean_window_span_measured: float
    breakdown: CycleBreakdown
    #: telemetry registry summary (counters + histograms); see
    #: :func:`repro.telemetry.metrics.run_metrics`
    metrics: Optional[Dict] = None

    @property
    def task_misprediction_percent(self) -> float:
        """Task misprediction rate in percent (Table 1 "task pred")."""
        return (1.0 - self.task_prediction_accuracy) * 100.0

    @property
    def branch_normalized_misprediction_percent(self) -> float:
        """Per-branch-equivalent misprediction percent (Table 1 "br pred")."""
        return 100.0 * normalized_branch_misprediction(
            1.0 - self.task_prediction_accuracy, self.mean_branches
        )

    @property
    def window_span_formula(self) -> float:
        """Window span via the Section 4.3.4 equation."""
        return window_span(
            self.mean_task_size, self.task_prediction_accuracy, self.n_pus
        )


class CompileCache:
    """Source builds per benchmark, compilation products per compile
    key, functional runs and analyses per program."""

    def __init__(self) -> None:
        self.builds: Dict[Tuple[str, float, str], Program] = {}
        self.compiled: Dict[_CompileKey, Compiled] = {}
        self.traces = TraceMemo()

    def build(self, name: str, scale: float, input_set: str) -> Program:
        """The source program of ``name``, built on first request.

        Never mutate it: every later compile of the benchmark at this
        scale and input reads it.
        """
        key = (name, scale, input_set)
        program = self.builds.get(key)
        if program is None:
            program = self.builds[key] = get_benchmark(name).build(
                scale, input_set=input_set
            )
        return program

    def clear(self) -> None:
        """Forget every build, compilation, functional run and analysis."""
        self.builds.clear()
        self.compiled.clear()
        self.traces.clear()


_compile_cache = CompileCache()


def clear_cache() -> None:
    """Drop all cached builds, compilations, functional runs and
    analyses.

    Tests use this for isolation, and benchmark passes to start cold.
    """
    _compile_cache.clear()


def resolve_selection(
    level: HeuristicLevel, selection: Optional[SelectionConfig]
) -> SelectionConfig:
    """The selection config a run will actually use."""
    selection = selection or SelectionConfig(level=level)
    if selection.level is not level:
        selection = replace(selection, level=level)
    return selection


def compile_cache_key(
    name: str,
    level: HeuristicLevel,
    scale: float = 1.0,
    selection: Optional[SelectionConfig] = None,
    input_set: str = "ref",
    profile_input: Optional[str] = None,
    source_hash: Optional[str] = None,
) -> _CompileKey:
    """The one compile identity: the in-memory cache key, and what
    :meth:`~repro.harness.spec.RunSpec.compile_signature` returns.

    Delegates the selection identity to
    :meth:`SelectionConfig.cache_key`, which names every field, so
    configs differing in any field (including ones added later) can
    never alias.  ``source_hash`` is the content hash of a generated
    program's IR text (``RunSpec.source_hash``); it keeps persisted
    artifacts of one generator version from serving another.
    """
    selection = resolve_selection(level, selection)
    key = (name, scale, input_set, profile_input or input_set)
    key += selection.cache_key()
    if source_hash is not None:
        key += (("source", source_hash),)
    return key


def seed_compiled(key: _CompileKey, compiled: Compiled) -> None:
    """Pre-populate the in-memory cache (harness warm-start path)."""
    _compile_cache.compiled.setdefault(key, compiled)


def peek_compiled(key: _CompileKey) -> Optional[Compiled]:
    """Look up a compilation without building it."""
    return _compile_cache.compiled.get(key)


def compile_benchmark(
    name: str,
    level: HeuristicLevel,
    scale: float = 1.0,
    selection: Optional[SelectionConfig] = None,
    input_set: str = "ref",
    profile_input: Optional[str] = None,
    source_hash: Optional[str] = None,
) -> Compiled:
    """Build, select tasks for, and trace one benchmark (cached).

    ``profile_input`` selects the input data used for *profiling*
    (task selection); ``input_set`` the data that is measured.  The
    default profiles and measures the same data, as in the paper; pass
    ``profile_input="train"`` to study profile-input sensitivity.
    ``source_hash`` only completes the cache key, so a spec's
    compilation is found under its ``compile_signature()``.
    """
    selection = resolve_selection(level, selection)
    profile_input = profile_input or input_set
    key = compile_cache_key(
        name, level, scale, selection, input_set, profile_input,
        source_hash,
    )
    cached = _compile_cache.compiled.get(key)
    if cached is not None:
        return cached
    traces = _compile_cache.traces
    # A compile creates many short-lived tracked objects (the trace's
    # block entries, the profile, the stream cut, and everything the
    # Python interpreter builds when it runs); the cyclic collector
    # only adds scan time here.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        program = _compile_cache.build(name, scale, profile_input)
        partition = select_tasks(program, selection, traces=traces)
        if profile_input != input_set:
            # Same static code, different data: measure the ref input
            # on the train-profiled partition (transforms never touch
            # data).  The measured run gets its own program object,
            # because the profiled one is memoized with its trace.
            measured = clone_program(partition.program)
            measured.memory_image = dict(
                _compile_cache.build(name, scale, input_set).memory_image
            )
            partition.program = measured
        trace = traces.trace(partition.program)
        stream = build_task_stream(trace, partition)
        release = ReleaseAnalysis(partition)
    finally:
        if gc_was_enabled:
            gc.enable()
    compiled = Compiled(partition, trace, stream, release)
    _compile_cache.compiled[key] = compiled
    return compiled


def _assemble_record(
    name: str,
    suite: str,
    level: HeuristicLevel,
    n_pus: int,
    out_of_order: bool,
    compiled: Compiled,
    result,
) -> RunRecord:
    """Fold one simulation result into the canonical record shape."""
    stream = compiled.stream
    from repro.telemetry.metrics import run_metrics

    return RunRecord(
        benchmark=name,
        suite=suite,
        level=level,
        n_pus=n_pus,
        out_of_order=out_of_order,
        cycles=result.cycles,
        instructions=result.committed_instructions,
        ipc=result.ipc,
        dynamic_tasks=result.dynamic_tasks,
        mean_task_size=stream.mean_task_size,
        mean_control_transfers=stream.mean_control_transfers(),
        mean_branches=stream.mean_conditional_branches(),
        task_prediction_accuracy=result.task_prediction_accuracy,
        branch_prediction_accuracy=result.gshare_accuracy,
        control_squashes=result.control_squashes,
        memory_squashes=result.memory_squashes,
        mean_window_span_measured=result.mean_window_span,
        breakdown=result.breakdown,
        metrics=run_metrics(result, stream),
    )


def cell_config(
    sim: Optional[SimConfig] = None,
    n_pus: Optional[int] = None,
    out_of_order: bool = True,
) -> SimConfig:
    """The machine one cell simulates: ``sim`` (default: the paper's)
    in the given issue order.

    Spec builders call this once and store the result as
    ``RunSpec.sim``; nothing rescales a spec's machine after that.
    Only an ``n_pus`` that is asked for resizes the machine (with
    paper-scaled L1s, :meth:`SimConfig.scaled_for_pus`, which refuses
    to resize a machine with per-PU profiles); otherwise it keeps its
    own PU count.
    """
    config = sim or SimConfig()
    if n_pus is not None:
        config = config.scaled_for_pus(n_pus)
    return replace(config, out_of_order=out_of_order)


def cell_machine(
    spec: RunSpec, monitor=None, fault_plan=None, tracer=None
) -> Tuple[Compiled, MultiscalarMachine]:
    """Compile ``spec``'s cell (through the memo) and build the machine
    that simulates ``spec.sim``, not yet run; :func:`run_cell`
    documents the hooks."""
    compiled = compile_benchmark(
        spec.benchmark, spec.level, spec.scale, spec.selection,
        spec.input_set, spec.profile_input, spec.source_hash,
    )
    mode = "ooo" if spec.out_of_order else "ino"
    machine = MultiscalarMachine(
        compiled.stream,
        spec.sim,
        compiled.release,
        monitor,
        fault_plan,
        label=f"{spec.benchmark}/{spec.level.value}/{spec.n_pus}{mode}",
        tracer=tracer,
    )
    return compiled, machine


def run_cell(
    spec: RunSpec, monitor=None, fault_plan=None, tracer=None
) -> RunRecord:
    """Run the full pipeline for one cell and return its record.

    ``monitor`` / ``fault_plan`` attach the reliability hooks (see
    :mod:`repro.reliability`) to the timing run: the monitor asserts
    the machine's architectural invariants, the fault plan injects
    seeded mispredictions and spurious violations.  ``tracer`` attaches
    a telemetry collector (see :mod:`repro.telemetry`) that records the
    task-lifecycle event stream for export.
    """
    suite = get_benchmark(spec.benchmark).suite
    compiled, machine = cell_machine(spec, monitor, fault_plan, tracer)
    result = machine.run()
    return _assemble_record(
        spec.benchmark, suite, spec.level, spec.n_pus, spec.out_of_order,
        compiled, result,
    )


def run_benchmark(
    name: str,
    level: HeuristicLevel,
    n_pus: Optional[int] = None,
    out_of_order: bool = True,
    scale: float = 1.0,
    selection: Optional[SelectionConfig] = None,
    sim: Optional[SimConfig] = None,
    input_set: str = "ref",
    profile_input: Optional[str] = None,
    monitor=None,
    fault_plan=None,
    tracer=None,
) -> RunRecord:
    """One cell: its spec's machine is ``cell_config(sim, n_pus,
    out_of_order)`` (``n_pus`` omitted keeps ``sim``'s PU count, four
    for the default machine), and :func:`run_cell` runs it as the
    harness does."""
    from repro.harness.spec import RunSpec

    spec = RunSpec(
        name, level, scale=scale, selection=selection,
        sim=cell_config(sim, n_pus, out_of_order), input_set=input_set,
        profile_input=profile_input,
    )
    return run_cell(spec, monitor, fault_plan, tracer)
