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

Two engines run these phases.  They share the squash, retire and
assign steps and the PU's drain / issue / fetch methods; each has its
own per-cycle loop:

* ``engine="reference"`` calls :meth:`MultiscalarMachine._tick` for
  every cycle, visiting every PU in both phase A and phase D — the
  original, obviously correct loop kept as the equivalence oracle.
* ``engine="fast"`` (default) calls :meth:`MultiscalarMachine._step`,
  which runs the same phases in the same ring order over only the PUs
  holding a real, unfinished task.  A PU that replays a memoized
  blocked result and cannot fetch sleeps until its own next event;
  its stall cycles, and a done task's load imbalance, are charged in
  one step later.  After a *quiescent* step (no completion drained,
  nothing issued or fetched, no retire / assign / redirect progress)
  the machine asks every unit for its next possible event cycle —
  head of the completion heap, fetch resume, scheduled ring-forward
  arrival, task-start boundary, retire finish, sequencer resume —
  jumps straight to the minimum, and bulk-charges the skipped cycles
  to the stall category each PU was accumulating.  Because a
  quiescent PU's blocking state provably cannot change before one of
  those events (every state transition in the model is caused by
  one), the fast engine produces bit-identical results;
  ``tests/test_fastpath.py`` enforces this cell-by-cell against the
  reference engine.  Fault injection mutates per-cycle cooldown
  state, so a machine with a fault plan attached never skips.
"""

from __future__ import annotations

import gc
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
from repro.sim.memory import MemoryHierarchy
from repro.sim.pu import ProcessingUnit
from repro.sim.runstate import RunState
from repro.sim.taskstream import TaskStream

_NEVER = 1 << 60

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
    #: around the ring); identical across engines because every task's
    #: accounting folds at the shared retire path
    pu_useful: List[int] = field(default_factory=list)
    #: per-PU total occupied cycles of retired tasks (useful + stalls
    #: + task overheads; excludes idle and squashed occupancy)
    pu_occupied: List[int] = field(default_factory=list)

    def pu_utilization(self) -> List[float]:
        """Per-PU useful / occupied ratio (0.0 where never occupied)."""
        return [
            useful / occupied if occupied else 0.0
            for useful, occupied in zip(self.pu_useful, self.pu_occupied)
        ]

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

    Raised when ``max_cycles`` is exceeded, or — fast engine only —
    when no unit reports a future event while unretired tasks remain.
    The message carries the workload label, engine, retire progress
    and current cycle so a stuck grid cell is diagnosable from the
    traceback alone.
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
        # The machine spec (if any) supplies per-PU profiles and the
        # inter-task predictor kind; without one, every PU inherits
        # the global config and the predictor is the paper's
        # path-based scheme — the exact pre-machines construction.
        machine_spec = self.config.machine
        if machine_spec is not None:
            profiles = machine_spec.pus
            predictor_kind = machine_spec.predictor
        else:
            profiles = (None,) * self.config.n_pus
            predictor_kind = "path"
        self.predictor = make_task_predictor(predictor_kind)
        self.ras = ReturnAddressStack()
        self.pus = [
            ProcessingUnit(i, self.config, self.state, profile=profiles[i])
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
        #: bumped whenever machine state that any PU's issue decision
        #: could observe changes (see ProcessingUnit.issue memoization)
        self._mut_version = 0
        #: bumped on retires only; consulted just by ARB-gate-blocked
        #: results, so a retire doesn't invalidate every memo
        self._retire_version = 0
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
        #: fast engine only: the PUs holding a real task that is not
        #: done, in index order, and the number of idle PUs
        self._busy: List[ProcessingUnit] = []
        self._n_idle = self.config.n_pus
        #: per-tick constants, unpacked once per _tick / _step call
        #: instead of re-reading config attributes every cycle
        self._tick_consts = (
            self.config.task_start_overhead,
            self.config.rob_size,
            self.pus[0]._lazy_fp if self.pus else False,
        )
        # Optional reliability hooks (duck-typed; see repro.reliability).
        # ``monitor`` receives assignment/squash/retire events and may
        # raise on invariant violations; ``faults`` injects forced
        # mispredictions and spurious memory violations.
        self.monitor = monitor
        self.faults = faults
        #: tasks thrown away per squash event (len(victims) each time)
        self.squash_depths: List[int] = []
        # Optional telemetry collector (duck-typed; see repro.telemetry).
        # Same contract as the monitor: the simulator never imports the
        # telemetry package and every hook site costs one None test.
        self.tracer = tracer
        if faults is not None:
            faults.bind(len(stream.tasks))
        if monitor is not None:
            monitor.attach(self)
        if tracer is not None:
            tracer.attach(self)
            for pu in self.pus:
                pu.tracer = tracer

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

    def retouch_sync(self, pairs: List[Tuple[int, int]]) -> None:
        """Touch the sync-table entries a memoized scan touched, in
        order (a replayed ``issue`` leaves the LRU as a re-run would)."""
        pc = self.state.pc
        move_to_end = self.sync_pairs.move_to_end
        for store_idx, load_idx in pairs:
            move_to_end((pc[store_idx], pc[load_idx]))

    def _learn_sync(self, store_idx: int, load_idx: int) -> None:
        if self.config.sync_table_size <= 0:
            return
        self._mut_version += 1
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
        self._mut_version += 1
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
            if self.tracer is not None:
                self.tracer.on_squash(
                    seq, pu.index, cycle, penalty, memory, pu.first_issue
                )
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
        self._mut_version += 1
        for pu in self.pus:
            if pu.wrong:
                penalty = max(0, cycle - pu.assign_cycle)
                self.breakdown.charge_control_squash(penalty)
                if self.monitor is not None:
                    self.monitor.on_wrong_squash(pu.index, cycle, penalty)
                if self.tracer is not None:
                    self.tracer.on_wrong_squash(pu.index, cycle, penalty)
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
        if self.tracer is not None:
            self.tracer.on_arb_violation(victim_seq, cycle)
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
        if self.tracer is not None:
            self.tracer.on_arb_violation(victim, cycle, injected=True)
        self._squash_from(victim, cycle, memory=True)

    # --------------------------------------------------------------- assign

    def _continuation_root(self, seq: int):
        """Root of the task entered when the callee of task ``seq`` returns."""
        dyn = self.stream.tasks[seq]
        call_inst = self.stream.trace.insts[dyn.end - 1]
        blk = self.stream.partition.program.block(call_inst.block)
        assert blk.fallthrough is not None
        return (call_inst.block[0], blk.fallthrough)

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
            self.ras.push(self._continuation_root(seq))
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
            if self.tracer is not None:
                self.tracer.on_task_mispredict(seq, cycle)

    def _assign(self, cycle: int) -> bool:
        """Phase C; returns True when a PU was occupied this cycle."""
        if cycle < self.resume_cycle:
            return False
        pu = self.pus[self.next_assign_pu]
        if not pu.idle:
            return False
        if self.pending_mispredict is not None:
            pu.assign_wrong(cycle)
            if self.monitor is not None:
                self.monitor.on_wrong_assign(pu.index, cycle)
            if self.tracer is not None:
                self.tracer.on_wrong_assign(pu.index, cycle)
            self.next_assign_pu = (self.next_assign_pu + 1) % self.config.n_pus
            return True
        if self.next_seq >= len(self.stream.tasks):
            return False
        # No version bump: a fresh assignment changes nothing another
        # PU's blocked-issue computation reads (pu_of_seq of a task is
        # only consulted once that task has completed values, which
        # postdates its assignment; squash-driven reassignment is
        # covered by the squash bump).
        seq = self.next_seq
        dyn = self.stream.tasks[seq]
        pu.assign(dyn, cycle)
        self.in_flight[seq] = pu
        if self.monitor is not None:
            self.monitor.on_assign(seq, pu.index, cycle)
        if self.tracer is not None:
            self.tracer.on_assign(seq, pu.index, cycle)
        self._active_span += dyn.length
        self.next_seq += 1
        self.next_assign_pu = (self.next_assign_pu + 1) % self.config.n_pus
        self._predict_successor(seq, cycle)
        return True

    # --------------------------------------------------------------- retire

    def _retire(self, cycle: int) -> bool:
        """Phase B; returns True when a retire completed or started."""
        active = False
        if self._retiring_pu is not None:
            if cycle < self._retire_finish:
                return False
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
            if self.tracer is not None:
                # Capture per-task state before reset_idle clears it.
                self.tracer.on_retire(
                    seq, pu.index, cycle, pu.first_issue, pu.done_cycle
                )
            pu.reset_idle()
            if self.monitor is not None:
                self.monitor.on_retire(seq, cycle)
            self.retire_seq += 1
            self._retiring_pu = None
            self._retire_version += 1
            active = True
        pu = self.in_flight.get(self.retire_seq)
        if pu is not None and pu.done:
            pu.local_counts[_R_TASK_END] += self.config.task_end_overhead
            pu.retiring = True
            self._retiring_pu = pu
            self._retire_finish = cycle + self.config.task_end_overhead
            if self.tracer is not None:
                self.tracer.on_commit_start(pu.seq, pu.index, cycle)
            active = True
        return active

    # ------------------------------------------------------------- run loop

    def _tick(self, cycle: int) -> bool:
        """Run phases A–D for one cycle, visiting every PU (the
        reference engine); True when anything progressed.

        "Progress" means: an instruction completed, a misprediction
        resolved, a retire started or finished, a PU was assigned,
        or anything issued or fetched.  :meth:`_step` returns the same
        flag, and its False is what licenses the fast engine to consult
        :meth:`ProcessingUnit.next_event_cycle` and skip.
        """
        config = self.config
        active = False
        pus = self.pus
        # Phase A: completions (+ violation checks, + control resolve).
        for pu in pus:
            if pu.dyn_task is None:
                continue
            in_flight = pu.in_flight
            if in_flight:
                if in_flight[0][0] > cycle:
                    continue
            elif pu.done or pu.remaining or pu.fetch_ptr < pu.dyn_task.end:
                # Nothing pending, and the done-flip (the only other
                # thing drain does) needs remaining == 0 AND a finished
                # fetch stream.
                continue
            stores, popped, global_event, cross_popped = (
                pu.drain_completions(cycle)
            )
            if popped:
                active = True
            if global_event:
                self._mut_version += 1
            if cross_popped:
                # Invalidate exactly the tasks whose issue decisions
                # can observe these completions (their register or
                # memory consumers); everyone else's memoized blocked
                # results stay valid.
                consumer_seqs = self.state.consumer_seqs
                tasks_on_pus = self.in_flight
                for cidx in cross_popped:
                    for cs in consumer_seqs[cidx]:
                        cpu = tasks_on_pus.get(cs)
                        if cpu is not None:
                            cpu.issue_cache_key = -1
            for store_idx in stores:
                self._check_store_violation(store_idx, cycle)
        if self.pending_mispredict is not None:
            src = self.in_flight.get(self.pending_mispredict)
            if src is not None and src.done:
                active = True
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
            if self._retire(cycle):
                active = True
        else:
            head = self.in_flight.get(self.retire_seq)
            if head is not None and head.done and self._retire(cycle):
                active = True
        # Phase C: assign.
        if cycle >= self.resume_cycle:
            nxt = pus[self.next_assign_pu]
            if nxt.dyn_task is None and not nxt.wrong and self._assign(cycle):
                active = True
        # Phase D: execute + accounting.
        task_start_overhead, rob_size, lazy_fp = self._tick_consts
        mut_version = self._mut_version
        retire_version = self._retire_version
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
            if (
                pu.issue_cache_key == mut_version
                and cycle < pu.issue_wake
                and (
                    not pu.retire_sensitive
                    or pu.issue_retire_key == retire_version
                )
            ):
                # Memoized blocked result: nothing this PU's issue
                # decision observes has changed since it was computed.
                issued = 0
                reason = pu.last_block
                if pu.sync_touches:
                    self.retouch_sync(pu.sync_touches)
            elif pu.unissued:
                issued, reason = pu.issue(cycle, self)
            else:
                # Empty window: issue() would early-return; skip the
                # call (its other preconditions are already excluded
                # above) but keep its cache bookkeeping.
                pu.issue_wake = _NEVER
                pu.retire_sensitive = False
                pu.last_block = None
                pu.issue_cache_key = mut_version
                issued = 0
                reason = None
            if (
                pu.pending_branch < 0
                and cycle >= pu.fetch_resume
                and pu.fetch_ptr < pu.fetch_end
                and pu.rob_count < rob_size
                and pu.fetch(cycle)
            ):
                active = True
                if lazy_fp and pu.done:
                    # The task finished at fetch: its writes just
                    # bulk-forwarded, which later-scanned PUs' issue
                    # decisions may observe this very cycle — keep the
                    # hoisted version in step.
                    self._mut_version += 1
                    mut_version = self._mut_version
            if issued:
                active = True
                counts[_R_USEFUL] += 1
            elif cycle < pu.assign_cycle + task_start_overhead:
                counts[_R_TASK_START] += 1
            elif reason is not None:
                counts[pu.last_slot] += 1
            else:
                counts[_R_FETCH] += 1
        self._idle_accum += idle
        self._span_accum += self._active_span
        return active

    def _step(self, cycle: int) -> bool:
        """The fast engine's cycle: :meth:`_tick`'s phases, visiting
        only the PUs that hold a real, unfinished task.

        The phases and the ring order are ``_tick``'s; the bookkeeping
        differs.  Idle PU-cycles come from a running count of idle PUs,
        and a done task's LOAD_IMBALANCE is charged in one step when its
        commit starts.  A PU that replays a memoized blocked result and
        cannot fetch sleeps until its own next event
        (``next_event_cycle``), and its stall slot is charged in bulk
        when it wakes.  A consumer invalidation, a mutation-version
        bump, or — for a retire-sensitive result — a retire wakes it
        early.  A PU in a sync wait never sleeps: its per-cycle table
        touches must interleave with the other PUs' touches.
        """
        config = self.config
        active = False
        busy = self._busy
        mut_start = self._mut_version
        retire_start = self._retire_version
        finished = False
        # Phase A: completions (+ violation checks, + control resolve).
        # A PU squashed earlier in this loop is idle now; the drain it
        # falls through to finds nothing to do.
        for pu in busy:
            in_flight = pu.in_flight
            if in_flight:
                if in_flight[0][0] > cycle:
                    continue
            elif pu.remaining or pu.fetch_ptr < pu.fetch_end:
                continue
            stores, popped, global_event, cross_popped = (
                pu.drain_completions(cycle)
            )
            if popped:
                active = True
            if global_event:
                self._mut_version += 1
            if cross_popped:
                consumer_seqs = self.state.consumer_seqs
                tasks_on_pus = self.in_flight
                for cidx in cross_popped:
                    for cs in consumer_seqs[cidx]:
                        cpu = tasks_on_pus.get(cs)
                        if cpu is not None:
                            cpu.issue_cache_key = -1
                            if cpu.sleep_until > cycle:
                                cpu.sleep_until = cycle  # wake in phase D
            if pu.done:
                # LOAD_IMBALANCE from this cycle until its commit
                # starts; a sleep span ends here.
                finished = True
                pu.imbalance_from = cycle
                if pu.sleep_until:
                    pu.local_counts[pu.sleep_slot] += cycle - pu.sleep_from
                    pu.sleep_until = 0
            for store_idx in stores:
                self._check_store_violation(store_idx, cycle)
        if self.pending_mispredict is not None:
            src = self.in_flight.get(self.pending_mispredict)
            if src is not None and src.done:
                active = True
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
            retired = self._retire(cycle)
        else:
            head = self.in_flight.get(self.retire_seq)
            retired = head is not None and head.done and self._retire(cycle)
        if retired:
            active = True
            # A commit that just started settles the task's imbalance.
            committing = self._retiring_pu
            if committing is not None and committing.imbalance_from >= 0:
                committing.local_counts[_R_LOAD_IMBALANCE] += (
                    cycle - committing.imbalance_from
                )
                committing.imbalance_from = -1
        mut_changed = self._mut_version != mut_start
        if finished or mut_changed:
            # A done-flip, squash or redirect changed who has work.
            busy = self._busy = [
                pu for pu in busy if pu.dyn_task is not None and not pu.done
            ]
        # Idle PUs change only on a squash or redirect, a retire's end
        # and an assign.
        if mut_changed:
            self._n_idle = sum(pu.idle for pu in self.pus)
        elif self._retire_version != retire_start:
            self._n_idle += 1
        # Phase C: assign.
        if cycle >= self.resume_cycle:
            nxt = self.pus[self.next_assign_pu]
            if nxt.dyn_task is None and not nxt.wrong and self._assign(cycle):
                active = True
                self._n_idle -= 1
                if not nxt.wrong:
                    pos = len(busy)
                    while pos and busy[pos - 1].index > nxt.index:
                        pos -= 1
                    busy.insert(pos, nxt)
        # Phase D: execute + accounting.
        task_start_overhead, rob_size, lazy_fp = self._tick_consts
        mut_version = self._mut_version
        retire_version = self._retire_version
        # A version bump invalidated every sleeper's memo, a retire only
        # the retire-sensitive ones: wake them in this pass.
        if mut_changed:
            for pu in busy:
                if pu.sleep_until:
                    pu.sleep_until = cycle
        elif retire_version != retire_start:
            for pu in busy:
                if pu.sleep_until and pu.retire_sensitive:
                    pu.sleep_until = cycle
        finished = False
        for pu in busy:
            until = pu.sleep_until
            if until:
                if until > cycle:
                    continue
                # Awake: charge the slept span, then run as usual.
                pu.local_counts[pu.sleep_slot] += cycle - pu.sleep_from
                pu.sleep_until = 0
            counts = pu.local_counts
            can_sleep = False
            if (
                pu.issue_cache_key == mut_version
                and cycle < pu.issue_wake
                and (
                    not pu.retire_sensitive
                    or pu.issue_retire_key == retire_version
                )
            ):
                issued = 0
                reason = pu.last_block
                if pu.sync_touches:
                    self.retouch_sync(pu.sync_touches)
                else:
                    can_sleep = True
            elif pu.unissued:
                issued, reason = pu.issue(cycle, self)
            else:
                # Empty window: issue()'s early return, inlined.
                pu.issue_wake = _NEVER
                pu.retire_sensitive = False
                pu.last_block = None
                pu.issue_cache_key = mut_version
                issued = 0
                reason = None
            if (
                pu.pending_branch < 0
                and cycle >= pu.fetch_resume
                and pu.fetch_ptr < pu.fetch_end
                and pu.rob_count < rob_size
                and pu.fetch(cycle)
            ):
                active = True
                can_sleep = False
                if pu.done:
                    # Finished at fetch: LOAD_IMBALANCE from next cycle.
                    finished = True
                    pu.imbalance_from = cycle + 1
                    if lazy_fp:
                        # Its writes just bulk-forwarded: wake the
                        # sleepers, later PUs within this very pass.
                        self._mut_version += 1
                        mut_version = self._mut_version
                        for other in busy:
                            if other.sleep_until:
                                other.sleep_until = (
                                    cycle if other.index > pu.index
                                    else cycle + 1
                                )
            if issued:
                active = True
                counts[_R_USEFUL] += 1
            elif cycle < pu.assign_cycle + task_start_overhead:
                counts[_R_TASK_START] += 1
            elif reason is not None:
                counts[pu.last_slot] += 1
            else:
                counts[_R_FETCH] += 1
            if can_sleep:
                # Nothing it observes changes before its own next event
                # unless a wake-up above says so.
                wake, slot = pu.next_event_cycle(cycle + 1, self)
                if wake > cycle + 1:
                    pu.sleep_until = wake
                    pu.sleep_from = cycle + 1
                    pu.sleep_slot = slot
        if finished:
            self._busy = [pu for pu in busy if not pu.done]
        self._idle_accum += self._n_idle
        self._span_accum += self._active_span
        return active

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
            if self.config.engine == "reference":
                cycles = self._run_reference()
            else:
                cycles = self._run_fast()
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

    def _run_fast(self) -> int:
        """Event-driven loop: step, and after a quiescent step jump to
        the next event, bulk-charging the skipped span."""
        config = self.config
        max_cycles = config.max_cycles
        n_tasks = len(self.stream.tasks)
        pus = self.pus
        # Fault plans decrement per-cycle cooldowns: every cycle must
        # be presented to them, so skipping is off.
        can_skip = self.faults is None
        step = self._step
        cycle = 0
        while self.retire_seq < n_tasks:
            if cycle > max_cycles:
                raise self._stuck(cycle, f"exceeded {max_cycles} cycles")
            if step(cycle) or not can_skip:
                cycle += 1
                continue
            # Quiescent: find the earliest cycle anything can happen.
            t = cycle + 1
            wake = _NEVER
            if self._retiring_pu is not None:
                wake = self._retire_finish
            if pus[self.next_assign_pu].idle and (
                self.pending_mispredict is not None
                or self.next_seq < n_tasks
            ):
                resume = self.resume_cycle
                if resume < t:
                    resume = t
                if resume < wake:
                    wake = resume
            charged: List[Tuple[List[int], int]] = []
            for pu in self._busy:
                if pu.sleep_until:
                    # Its wake cycle is its next event; the span is
                    # charged when it wakes.
                    if pu.sleep_until < wake:
                        wake = pu.sleep_until
                    continue
                w, slot = pu.next_event_cycle(t, self)
                if w < wake:
                    wake = w
                charged.append((pu.local_counts, slot))
            if wake >= _NEVER:
                raise self._stuck(cycle, "no pending event (livelock)")
            if wake <= t:
                cycle = t
                continue
            if wake > max_cycles:
                wake = max_cycles + 1  # let the guard above raise
            skipped = wake - t
            if self.tracer is not None:
                self.tracer.on_cycle_skip(cycle, wake)
            if self._n_idle:
                self._idle_accum += self._n_idle * skipped
            for counts, slot in charged:
                counts[slot] += skipped
            self._span_accum += self._active_span * skipped
            cycle = wake
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
