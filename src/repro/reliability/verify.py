"""The oracle battery and the ``repro verify`` entry point.

:func:`check_run` is the one cell check that ``repro verify``, the
fuzz campaign worker and the reducer predicate all call.  It:

1. lints the program (:func:`~repro.ir.validate.well_formed`) and the
   partition (:func:`~repro.ir.validate.partition_issues`);
2. runs the cell with the **invariant monitor** attached, asserting
   the squash/retire/commit invariants every cycle.  The monitor
   reads live machine state, so this run takes the reference loop
   (``_tick``), and so does any run with a seeded
   :class:`~repro.reliability.faults.FaultPlan` injecting forced
   mispredictions and spurious memory violations;
3. checks the **differential oracle**: the compiled trace's columns
   (recorded by the native interpreter when the kernel loads) against
   the reference :class:`~repro.ir.interp.Interpreter`'s, and the
   monitor's commit log, replayed with full semantics, against the
   sequential reference execution; and
4. without a fault plan, runs the cell again unmonitored, which is the
   native loop, and reports every :class:`~repro.sim.SimResult`
   field that differs from the monitored run.

``verify_workload`` runs the battery on one compiled registry cell;
``verify_grid`` sweeps workloads x heuristic levels and aggregates
reports, and the CLI and the CI ``verify`` job are thin wrappers over
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.compiler.regcomm import ReleaseAnalysis
from repro.experiments.runner import cell_config, compile_benchmark
from repro.harness.spec import cell_label
from repro.ir.validate import partition_issues, well_formed
from repro.reliability.faults import FaultPlan
from repro.reliability.monitors import InvariantMonitor, InvariantViolation
from repro.reliability.oracle import (
    check_commit_log,
    compare_states,
    compare_traces,
    replay_commits,
    sequential_reference,
)
from repro.sim import MultiscalarMachine, SimConfig, SimResult, TaskStream
from repro.workloads import all_benchmarks

ALL_LEVELS = tuple(HeuristicLevel)


def check_run(
    stream: TaskStream,
    release: ReleaseAnalysis,
    config: SimConfig,
    faults: Optional[FaultPlan] = None,
    label: Optional[str] = None,
) -> Tuple[Optional[SimResult], List[str], int]:
    """Run the oracle battery on one cell; never raises on divergence.

    Returns the monitored run's result (None when an invariant
    violation aborted it), every divergence found, and the number of
    checks the invariant monitor made.
    """
    partition = stream.partition
    program = partition.program
    trace = stream.trace
    divergences = [f"well-formedness: {i}" for i in well_formed(program)]
    divergences += [
        f"partition: {i}" for i in partition_issues(program, partition)
    ]
    monitor = InvariantMonitor()
    try:
        result = MultiscalarMachine(
            stream, config, release, monitor, faults, label=label
        ).run()
    except InvariantViolation as exc:
        divergences.append(f"invariant violation: {exc}")
        return None, divergences, monitor.checks

    ref_trace, ref_state = sequential_reference(program)
    divergences += compare_traces(trace, ref_trace)
    if len(ref_trace) == len(trace):
        divergences += check_commit_log(monitor.commit_log, len(trace))
        replay_state, replay_divergences = replay_commits(
            program, trace, monitor.commit_log
        )
        divergences += replay_divergences
        divergences += compare_states(ref_state, replay_state)

    if faults is None:
        unmonitored = MultiscalarMachine(
            stream, config, release, label=label
        ).run()
        for f in fields(SimResult):
            got, want = getattr(unmonitored, f.name), getattr(result, f.name)
            if got != want:
                divergences.append(
                    f"native loop {f.name} {got!r} != monitored run {want!r}"
                )
    return result, divergences, monitor.checks


@dataclass
class VerifyReport:
    """Outcome of verifying one (benchmark, level, machine) cell."""

    benchmark: str
    level: HeuristicLevel
    n_pus: int
    out_of_order: bool
    instructions: int = 0
    cycles: int = 0
    dynamic_tasks: int = 0
    control_squashes: int = 0
    memory_squashes: int = 0
    injected_control: int = 0
    injected_memory: int = 0
    invariant_checks: int = 0
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def faults_injected(self) -> int:
        return self.injected_control + self.injected_memory

    def describe(self) -> str:
        return cell_label(
            self.benchmark, self.level, self.n_pus, self.out_of_order
        )

    def summary(self) -> str:
        head = (
            f"{self.describe()}: "
            f"{'OK' if self.ok else 'DIVERGED'} "
            f"({self.instructions} insts, {self.dynamic_tasks} tasks, "
            f"{self.control_squashes}c/{self.memory_squashes}m squashes, "
            f"{self.faults_injected} faults injected, "
            f"{self.invariant_checks} invariant checks)"
        )
        if self.ok:
            return head
        return "\n".join([head] + [f"  ! {d}" for d in self.divergences])


def verify_workload(
    benchmark: str,
    level: HeuristicLevel,
    n_pus: int = 4,
    out_of_order: bool = True,
    scale: float = 1.0,
    selection: Optional[SelectionConfig] = None,
    input_set: str = "ref",
    faults: int = 0,
    seed: int = 0,
) -> VerifyReport:
    """Run the oracle battery on one registry cell; returns a report
    (never raises on divergence)."""
    report = VerifyReport(
        benchmark=benchmark, level=level, n_pus=n_pus,
        out_of_order=out_of_order,
    )
    compiled = compile_benchmark(
        benchmark, level, scale=scale, selection=selection,
        input_set=input_set,
    )
    report.dynamic_tasks = len(compiled.stream.tasks)
    plan = FaultPlan(seed=seed, faults=faults) if faults > 0 else None
    result, report.divergences, report.invariant_checks = check_run(
        compiled.stream, compiled.release,
        cell_config(None, n_pus, out_of_order), faults=plan,
        label=report.describe(),
    )
    if result is not None:
        report.instructions = result.committed_instructions
        report.cycles = result.cycles
        report.control_squashes = result.control_squashes
        report.memory_squashes = result.memory_squashes
    if plan is not None:
        report.injected_control = plan.control_injected
        report.injected_memory = plan.memory_injected
    return report


def verify_grid(
    benchmarks: Sequence[str] = (),
    levels: Sequence[HeuristicLevel] = ALL_LEVELS,
    n_pus: int = 4,
    out_of_order: bool = True,
    scale: float = 1.0,
    faults: int = 0,
    seed: int = 0,
) -> List[VerifyReport]:
    """Verify every (benchmark, level) cell; returns all reports.

    With ``faults``, each cell gets its own deterministic plan seeded
    by ``seed`` and the cell's position, so different cells inject
    different (but reproducible) schedules.
    """
    names = list(benchmarks) or [bm.name for bm in all_benchmarks()]
    reports: List[VerifyReport] = []
    for b_index, name in enumerate(names):
        for l_index, level in enumerate(levels):
            cell_seed = seed + 1009 * b_index + 9176 * l_index
            reports.append(verify_workload(
                name, level, n_pus=n_pus, out_of_order=out_of_order,
                scale=scale, faults=faults, seed=cell_seed,
            ))
    return reports
