"""The Multiscalar machine: sequencer, PU ring, squash and retire.

Per-cycle phases:

A. **Completions** — each PU drains instructions finishing this cycle;
   completed stores are checked against speculatively executed loads
   of later tasks (ARB violation → memory dependence squash).  A task
   whose successor was mispredicted resolves the misprediction when it
   completes: wrong-path occupancy is squashed (control penalty) and
   the sequencer redirects.
B. **Retire** — the oldest task, once complete, commits for
   ``task_end_overhead`` cycles and frees its PU; tasks retire strictly
   in program order (waiting tasks accumulate *load imbalance*).
C. **Assign** — the sequencer assigns at most one task per cycle to
   the next PU around the ring; after assigning it predicts the task's
   successor (path-based predictor + return address stack).  While a
   misprediction is unresolved, free PUs fill with wrong-path work.
D. **Execute** — each PU issues and fetches; every occupied PU-cycle
   is charged to a Figure-2 category.

The simulation is trace-driven: squashed work re-executes the same
dynamic instructions at later cycles; committed instruction count
equals the trace length exactly once.

Two engines run these phases:

* ``engine="reference"`` calls :meth:`MultiscalarMachine._tick` for
  every cycle, visiting every PU in both phase A and phase D — the
  original, obviously correct loop kept as the equivalence oracle.
* ``engine="fast"`` (default) runs :mod:`repro.sim.native`, a C port
  of ``_tick`` and everything it calls, over buffers the kernel lowers
  from the trace once per trace.  It skips an issue scan that could
  only issue nothing again (a PU whose scan issued nothing sleeps
  until a known cycle or an event can change the outcome), and leaves
  its scan counters in :attr:`MultiscalarMachine.kernel_counters`.
  The machine's counters and arrays are written back after the run,
  and a traced machine's :attr:`~MultiscalarMachine.events` becomes
  the kernel's lifecycle log.
  Only ``_tick`` reads the Python packing
  (:mod:`repro.sim.packed`) and the trace's and stream's object views
  it is built from, so a native run builds none of them.
  A run with a monitor or a fault plan attached takes ``_tick`` (both
  read or mutate live machine state), as does every run in a process
  where the kernel cannot be built or loaded (one warning says so).
  ``tests/test_fastpath.py`` enforces bit-identity cell by cell.
"""

from __future__ import annotations

import gc
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.regcomm import ReleaseAnalysis
from repro.compiler.task import TargetKind
from repro.predict import ReturnAddressStack, make_task_predictor
from repro.sim.breakdown import (
    REASON_INDEX,
    CycleBreakdown,
    StallReason,
)
from repro.sim.config import SimConfig
from repro.sim import native
from repro.sim.native import (
    EV_ARB_VIOLATION, EV_ASSIGN, EV_COMMIT, EV_RETIRE, EV_SQUASH,
    EV_TASK_MISPREDICT, EV_WRONG_ASSIGN, EV_WRONG_SQUASH,
)
from repro.sim.memory import MemoryHierarchy
from repro.sim.pu import ProcessingUnit
from repro.sim.runstate import RunState
from repro.sim.taskstream import TaskStream

_R_USEFUL = REASON_INDEX[StallReason.USEFUL]
_R_TASK_START = REASON_INDEX[StallReason.TASK_START]
_R_TASK_END = REASON_INDEX[StallReason.TASK_END]
_R_FETCH = REASON_INDEX[StallReason.FETCH]
_R_LOAD_IMBALANCE = REASON_INDEX[StallReason.LOAD_IMBALANCE]
_N_REASONS = len(REASON_INDEX)


@dataclass
class SimResult:
    """Everything a run measures."""

    cycles: int
    committed_instructions: int
    dynamic_tasks: int
    task_predictions: int
    task_mispredictions: int
    control_squashes: int
    memory_squashes: int
    gshare_accuracy: float
    branch_count: int
    mean_window_span: float
    breakdown: CycleBreakdown
    cache_stats: Dict[str, float] = field(default_factory=dict)
    #: in-flight tasks thrown away per squash event, in squash order
    #: (feeds the telemetry squash-depth histogram)
    squash_depths: List[int] = field(default_factory=list)
    #: per-PU cycles spent issuing retired work (index = PU position
    #: around the ring); both loops fold a task's counts in when it
    #: retires (``_retire`` in ``_tick``, ``retire`` in ``native.c``)
    pu_useful: List[int] = field(default_factory=list)
    #: per-PU total occupied cycles of retired tasks (useful + stalls
    #: + task overheads; excludes idle and squashed occupancy)
    pu_occupied: List[int] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.committed_instructions / self.cycles if self.cycles else 0.0

    @property
    def task_prediction_accuracy(self) -> float:
        """Fraction of correctly predicted inter-task transitions."""
        if self.task_predictions == 0:
            return 1.0
        return 1.0 - self.task_mispredictions / self.task_predictions


class SimulationStuck(RuntimeError):
    """The cycle loop cannot make progress (a model bug guard).

    Raised when ``max_cycles`` is exceeded.  The message carries the
    workload label, engine, retire progress and current cycle so a
    stuck grid cell is diagnosable from the traceback alone.
    """


class MultiscalarMachine:
    """Cycle-level model of the whole processor."""

    def __init__(
        self,
        stream: TaskStream,
        config: Optional[SimConfig] = None,
        release: Optional[ReleaseAnalysis] = None,
        monitor=None,
        faults=None,
        label: Optional[str] = None,
        tracer=None,
    ) -> None:
        self.config = config or SimConfig()
        self.stream = stream
        self.label = label
        self.state = RunState(stream, self.config, release)
        self.hierarchy = MemoryHierarchy(self.config)
        self.predictor = make_task_predictor(self.config.predictor)
        self.ras = ReturnAddressStack()
        #: the lifecycle log, None when untraced (DESIGN.md §10): the
        #: kernel's records, appended by ``_tick`` or left by the kernel
        self.events: Optional[array] = (
            None if tracer is None else array("q")
        )
        self.pus = [
            ProcessingUnit(i, self.config, self.state, self.events)
            for i in range(self.config.n_pus)
        ]
        for pu in self.pus:
            pu.attach_egress({})
            pu.icache_access = self.hierarchy.inst_access  # type: ignore[assignment]
        self.breakdown = CycleBreakdown()
        # sync table: (store_pc, load_pc) -> None, LRU-ordered
        self.sync_pairs: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        # speculative loads awaiting their producer store:
        # store_idx -> list of (load_idx, seq, generation)
        self.pending_viol: Dict[int, List[Tuple[int, int, int]]] = {}
        self.retire_seq = 0
        self.next_seq = 0
        self.next_assign_pu = 0
        self.resume_cycle = 0
        self.pending_mispredict: Optional[int] = None
        self.in_flight: Dict[int, ProcessingUnit] = {}
        self.task_predictions = 0
        self.task_mispredictions = 0
        self.control_squashes = 0
        self.memory_squashes = 0
        self._retiring_pu: Optional[ProcessingUnit] = None
        self._retire_finish = -1
        self._active_span = 0
        self._span_accum = 0
        self.cycle = 0
        #: idle PU-cycles, folded into the breakdown at result time so
        #: the per-cycle path is an int increment, not a dict update
        self._idle_accum = 0
        #: retired tasks' stall accounting, slotted per REASONS; folded
        #: into the breakdown at result time so each retire is ten int
        #: adds instead of an enum-keyed dict merge
        self._reason_accum = [0] * _N_REASONS
        #: the same accounting split per PU (useful, total occupied) —
        #: feeds SimResult.pu_useful/pu_occupied for the scaling
        #: study's starvation telemetry
        self._pu_useful = [0] * self.config.n_pus
        self._pu_occupied = [0] * self.config.n_pus
        # Optional reliability hooks (duck-typed; see repro.reliability).
        # ``monitor`` receives assignment/squash/retire events and may
        # raise on invariant violations; ``faults`` injects forced
        # mispredictions and spurious memory violations.
        self.monitor = monitor
        self.faults = faults
        #: tasks thrown away per squash event (len(victims) each time)
        self.squash_depths: List[int] = []
        #: the native loop's scan counters after a kernel run (keys:
        #: ``native.KERNEL_COUNTERS``); None after a ``_tick`` run.
        #: Host-side work, not a result: kept out of ``SimResult``.
        self.kernel_counters: Optional[Dict[str, int]] = None
        # Optional tracer (duck-typed; see repro.telemetry), called
        # twice: ``attach`` here and ``on_finish`` after the run.  The
        # simulator never imports it; a record site is one None test.
        self.tracer = tracer
        if faults is not None:
            faults.bind(len(stream.tasks))
        if monitor is not None:
            monitor.attach(self)
        if tracer is not None:
            tracer.attach(self)

    # ------------------------------------------------------------- services

    def data_access(self, word_addr: int) -> int:
        """Data cache access latency (PU callback)."""
        return self.hierarchy.data_access(word_addr)

    def is_synchronised(self, store_idx: int, load_idx: int) -> bool:
        """True if the sync table holds this (store PC, load PC) pair."""
        key = (self.state.pc[store_idx], self.state.pc[load_idx])
        if key in self.sync_pairs:
            self.sync_pairs.move_to_end(key)
            return True
        return False

    def _learn_sync(self, store_idx: int, load_idx: int) -> None:
        if self.config.sync_table_size <= 0:
            return
        key = (self.state.pc[store_idx], self.state.pc[load_idx])
        self.sync_pairs[key] = None
        self.sync_pairs.move_to_end(key)
        while len(self.sync_pairs) > self.config.sync_table_size:
            self.sync_pairs.popitem(last=False)

    def register_speculative_load(
        self, store_idx: int, load_idx: int, seq: int
    ) -> None:
        """Record a load that issued before its producer store."""
        self.pending_viol.setdefault(store_idx, []).append(
            (load_idx, seq, self.state.generation[seq])
        )

    # --------------------------------------------------------------- squash

    def _squash_from(self, first_seq: int, cycle: int, memory: bool) -> None:
        """Squash every in-flight real task with seq >= ``first_seq``."""
        victims = sorted(s for s in self.in_flight if s >= first_seq)
        if victims:
            self.squash_depths.append(len(victims))
        if (
            self._retiring_pu is not None
            and self._retiring_pu.seq >= first_seq
        ):
            # The task that began committing is itself a victim.
            self._retiring_pu = None
        for seq in victims:
            pu = self.in_flight.pop(seq)
            penalty = max(0, cycle - pu.assign_cycle)
            if memory:
                self.breakdown.charge_memory_squash(penalty)
            else:
                self.breakdown.charge_control_squash(penalty)
            if self.monitor is not None:
                self.monitor.on_squash_victim(
                    seq, pu.index, cycle, penalty, memory
                )
            if self.events is not None:
                self.events.extend((EV_SQUASH, seq, pu.index, cycle,
                                    penalty, memory, pu.first_issue))
            self._active_span -= self.stream.tasks[seq].length
            self.state.clear_span(seq)
            pu.reset_idle()
        self._squash_wrong(cycle)
        if self.pending_mispredict is not None and self.pending_mispredict >= first_seq:
            self.pending_mispredict = None
        self.next_seq = min(self.next_seq, first_seq)
        if first_seq > 0:
            prev_pu = self.state.pu_of_seq[first_seq - 1]
            self.next_assign_pu = (prev_pu + 1) % self.config.n_pus
        else:
            self.next_assign_pu = 0
        self.resume_cycle = max(self.resume_cycle, cycle + 1)
        if self.monitor is not None:
            self.monitor.post_squash(first_seq, cycle)

    def _squash_wrong(self, cycle: int) -> None:
        for pu in self.pus:
            if pu.wrong:
                penalty = max(0, cycle - pu.assign_cycle)
                self.breakdown.charge_control_squash(penalty)
                if self.monitor is not None:
                    self.monitor.on_wrong_squash(pu.index, cycle, penalty)
                if self.events is not None:
                    self.events.extend((EV_WRONG_SQUASH, pu.index, cycle,
                                        penalty, 0, 0, 0))
                pu.reset_idle()

    def _check_store_violation(self, store_idx: int, cycle: int) -> None:
        """A store completed: squash the earliest stale speculative load."""
        entries = self.pending_viol.pop(store_idx, None)
        if not entries:
            return
        state = self.state
        victim_seq: Optional[int] = None
        victim_load = -1
        for load_idx, seq, gen in entries:
            if state.generation[seq] != gen:
                continue  # that execution was already squashed
            if seq < self.retire_seq or seq not in self.in_flight:
                continue
            if victim_seq is None or seq < victim_seq:
                victim_seq = seq
                victim_load = load_idx
        if victim_seq is None:
            return
        self.memory_squashes += 1
        if self.monitor is not None:
            self.monitor.on_memory_violation(victim_seq)
        if self.events is not None:
            self.events.extend((EV_ARB_VIOLATION, victim_seq, cycle,
                                0, 0, 0, 0))
        self._learn_sync(store_idx, victim_load)
        self._squash_from(victim_seq, cycle, memory=True)

    def _inject_memory_fault(self, cycle: int) -> None:
        """Spurious ARB violation from the fault plan (if one is due)."""
        victim = self.faults.memory_fault_victim(self, cycle)
        if victim is None:
            return
        self.memory_squashes += 1
        if self.monitor is not None:
            self.monitor.on_memory_violation(victim, injected=True)
        if self.events is not None:
            # The third field is ``injected``.
            self.events.extend((EV_ARB_VIOLATION, victim, cycle,
                                1, 0, 0, 0))
        self._squash_from(victim, cycle, memory=True)

    # --------------------------------------------------------------- assign

    def _predict_successor(self, seq: int, cycle: int) -> None:
        """Predict task ``seq``'s successor; set pending on mispredict."""
        dyn = self.stream.tasks[seq]
        if dyn.target is None:
            return  # final task
        pc = self.stream.partition.program.block_pc(dyn.task.root)
        mispredicted_index = self.predictor.update(pc, dyn.target_index)
        correct = not mispredicted_index
        if correct and dyn.target.kind is TargetKind.RETURN:
            correct = self.ras.peek() == dyn.next_root
        if dyn.target.kind is TargetKind.CALL:
            self.ras.push(self.stream.continuation_root(seq))
        elif dyn.target.kind is TargetKind.RETURN:
            self.ras.pop()
        self.predictor.push_history(pc)
        self.task_predictions += 1
        if correct and self.faults is not None and self.faults.take_control_fault(seq):
            # Injected fault: treat a correct prediction as wrong.  The
            # sequencer redirects to the (unchanged) correct successor
            # when this task completes, so only cycles are lost.
            correct = False
        if not correct:
            self.task_mispredictions += 1
            self.pending_mispredict = seq
            self.control_squashes += 1
            if self.monitor is not None:
                self.monitor.on_control_mispredict(seq)
            if self.events is not None:
                self.events.extend((EV_TASK_MISPREDICT, seq, cycle,
                                    0, 0, 0, 0))

    def _assign(self, cycle: int) -> None:
        """Phase C: occupy the next PU around the ring, if it is free."""
        if cycle < self.resume_cycle:
            return
        pu = self.pus[self.next_assign_pu]
        if not pu.idle:
            return
        if self.pending_mispredict is not None:
            pu.assign_wrong(cycle)
            if self.monitor is not None:
                self.monitor.on_wrong_assign(pu.index, cycle)
            if self.events is not None:
                self.events.extend((EV_WRONG_ASSIGN, pu.index, cycle,
                                    0, 0, 0, 0))
            self.next_assign_pu = (self.next_assign_pu + 1) % self.config.n_pus
            return
        if self.next_seq >= len(self.stream.tasks):
            return
        seq = self.next_seq
        dyn = self.stream.tasks[seq]
        pu.assign(dyn, cycle)
        self.in_flight[seq] = pu
        if self.monitor is not None:
            self.monitor.on_assign(seq, pu.index, cycle)
        if self.events is not None:
            self.events.extend((EV_ASSIGN, seq, pu.index, cycle, 0, 0, 0))
        self._active_span += dyn.length
        self.next_seq += 1
        self.next_assign_pu = (self.next_assign_pu + 1) % self.config.n_pus
        self._predict_successor(seq, cycle)

    # --------------------------------------------------------------- retire

    def _retire(self, cycle: int) -> None:
        """Phase B: finish the head task's commit, or start the next."""
        if self._retiring_pu is not None:
            if cycle < self._retire_finish:
                return
            pu = self._retiring_pu
            accum = self._reason_accum
            occupied = 0
            for i, n in enumerate(pu.local_counts):
                if n:
                    accum[i] += n
                    occupied += n
            self._pu_useful[pu.index] += pu.local_counts[_R_USEFUL]
            self._pu_occupied[pu.index] += occupied
            seq = pu.seq
            self._active_span -= self.stream.tasks[seq].length
            del self.in_flight[seq]
            if self.events is not None:
                # Capture per-task state before reset_idle clears it.
                self.events.extend((EV_RETIRE, seq, pu.index, cycle,
                                    pu.first_issue, pu.done_cycle, 0))
            pu.reset_idle()
            if self.monitor is not None:
                self.monitor.on_retire(seq, cycle)
            self.retire_seq += 1
            self._retiring_pu = None
        pu = self.in_flight.get(self.retire_seq)
        if pu is not None and pu.done:
            pu.local_counts[_R_TASK_END] += self.config.task_end_overhead
            pu.retiring = True
            self._retiring_pu = pu
            self._retire_finish = cycle + self.config.task_end_overhead
            if self.events is not None:
                self.events.extend((EV_COMMIT, pu.seq, pu.index, cycle,
                                    0, 0, 0))

    # ------------------------------------------------------------- run loop

    def _tick(self, cycle: int) -> None:
        """Run phases A–D for one cycle, visiting every PU (the
        reference engine; ``native.c`` ports it line by line)."""
        config = self.config
        pus = self.pus
        # Phase A: completions (+ violation checks, + control resolve).
        for pu in pus:
            if pu.dyn_task is None:
                continue
            in_flight = pu.in_flight
            if in_flight:
                if in_flight[0][0] > cycle:
                    continue
            elif pu.done or pu.remaining or pu.fetch_ptr < pu.fetch_end:
                # Nothing pending, and the done-flip (the only other
                # thing drain does) needs remaining == 0 AND a finished
                # fetch stream.
                continue
            for store_idx in pu.drain_completions(cycle):
                self._check_store_violation(store_idx, cycle)
        if self.pending_mispredict is not None:
            src = self.in_flight.get(self.pending_mispredict)
            if src is not None and src.done:
                self._squash_wrong(cycle)
                self.next_assign_pu = (
                    self.state.pu_of_seq[self.pending_mispredict] + 1
                ) % config.n_pus
                self.pending_mispredict = None
                self.resume_cycle = max(
                    self.resume_cycle,
                    cycle + config.task_mispredict_redirect,
                )
        if self.faults is not None:
            self._inject_memory_fault(cycle)
        # Phase B: retire.
        if self._retiring_pu is not None:
            self._retire(cycle)
        else:
            head = self.in_flight.get(self.retire_seq)
            if head is not None and head.done:
                self._retire(cycle)
        # Phase C: assign.
        if cycle >= self.resume_cycle:
            nxt = pus[self.next_assign_pu]
            if nxt.dyn_task is None and not nxt.wrong:
                self._assign(cycle)
        # Phase D: execute + accounting.
        task_start_overhead = config.task_start_overhead
        rob_size = config.rob_size
        idle = 0
        for pu in pus:
            if pu.wrong:
                continue  # charged as penalty at resolution
            if pu.dyn_task is None:
                idle += 1
                continue
            if pu.retiring:
                continue  # TASK_END charged up front
            counts = pu.local_counts
            if pu.done:
                counts[_R_LOAD_IMBALANCE] += 1
                continue
            issued, reason = 0, None
            # Issue before fetch: an instruction fetched this cycle
            # issues the next cycle at the earliest.
            if pu.unissued:
                issued, reason = pu.issue(cycle, self)
            if (
                pu.pending_branch < 0
                and cycle >= pu.fetch_resume
                and pu.fetch_ptr < pu.fetch_end
                and pu.rob_count < rob_size
            ):
                pu.fetch(cycle)
            if issued:
                counts[_R_USEFUL] += 1
            elif cycle < pu.assign_cycle + task_start_overhead:
                counts[_R_TASK_START] += 1
            elif reason is not None:
                counts[reason.slot] += 1
            else:
                counts[_R_FETCH] += 1
        self._idle_accum += idle
        self._span_accum += self._active_span

    def run(self) -> SimResult:
        """Simulate until every dynamic task has retired."""
        if len(self.stream.tasks) == 0:
            result = self._result(0)
            if self.monitor is not None:
                self.monitor.on_finish(self, result)
            if self.tracer is not None:
                self.tracer.on_finish(self, result)
            return result
        # The cycle loop allocates only acyclic, reference-counted
        # garbage (tuples, small lists); the cyclic collector just
        # burns time re-scanning the trace arrays.  Pause it for the
        # duration of the run, restoring the caller's setting.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            cycles = None
            if (self.config.engine == "fast" and self.monitor is None
                    and self.faults is None):
                cycles = native.run(self)
            if cycles is None:
                cycles = self._run_reference()
        finally:
            if gc_was_enabled:
                gc.enable()
        self.cycle = cycles
        result = self._result(cycles)
        if self.monitor is not None:
            self.monitor.on_finish(self, result)
        if self.tracer is not None:
            self.tracer.on_finish(self, result)
        return result

    def _run_reference(self) -> int:
        """The original uniform per-cycle loop (equivalence oracle)."""
        max_cycles = self.config.max_cycles
        n_tasks = len(self.stream.tasks)
        cycle = 0
        while self.retire_seq < n_tasks:
            if cycle > max_cycles:
                raise self._stuck(cycle, f"exceeded {max_cycles} cycles")
            self._tick(cycle)
            cycle += 1
        return cycle

    def _stuck(self, cycle: int, reason: str) -> SimulationStuck:
        label = f"{self.label}: " if self.label else ""
        return SimulationStuck(
            f"{label}{reason} at cycle {cycle} "
            f"(engine={self.config.engine}, "
            f"retired {self.retire_seq}/{len(self.stream.tasks)} tasks, "
            f"next_seq={self.next_seq}, "
            f"pending_mispredict={self.pending_mispredict})"
        )

    def _result(self, cycles: int) -> SimResult:
        if any(self._reason_accum):
            self.breakdown.charge_counts(self._reason_accum)
            self._reason_accum = [0] * _N_REASONS
        if self._idle_accum:
            self.breakdown.charge(StallReason.IDLE, self._idle_accum)
            self._idle_accum = 0
        mean_span = self._span_accum / cycles if cycles else 0.0
        return SimResult(
            cycles=cycles,
            committed_instructions=len(self.stream.trace),
            dynamic_tasks=len(self.stream.tasks),
            task_predictions=self.task_predictions,
            task_mispredictions=self.task_mispredictions,
            control_squashes=self.control_squashes,
            memory_squashes=self.memory_squashes,
            gshare_accuracy=self.state.gshare_accuracy,
            branch_count=self.state.branch_count,
            mean_window_span=mean_span,
            breakdown=self.breakdown,
            cache_stats=self.hierarchy.stats(),
            squash_depths=list(self.squash_depths),
            pu_useful=list(self._pu_useful),
            pu_occupied=list(self._pu_occupied),
        )


def simulate(
    stream: TaskStream,
    config: Optional[SimConfig] = None,
    release: Optional[ReleaseAnalysis] = None,
    monitor=None,
    faults=None,
    label: Optional[str] = None,
    tracer=None,
) -> SimResult:
    """Convenience: build a machine for ``stream`` and run it."""
    return MultiscalarMachine(
        stream, config, release, monitor, faults, label=label, tracer=tracer
    ).run()
