"""One Multiscalar processing unit (Section 4.2 configuration).

Each PU executes one dynamic task at a time: it fetches the task's
instructions in (dynamic) program order at ``fetch_width`` per cycle,
holds them in a ``rob_size`` window, and issues up to ``issue_width``
ready instructions per cycle subject to the issue-list depth, the
functional unit mix, and — in in-order mode — strict program order.
Memory operations issue in program order within the task (the paper's
single memory unit), which keeps intra-task memory semantics exact.

The PU charges every occupied cycle to a Figure-2 category in a local
breakdown; the machine merges it on retire or converts the whole
occupancy into a misspeculation penalty on squash.

The hot paths (``issue``/``fetch``/``drain_completions``) index the
stream's packed trace arrays — flat ints, no ``DynInst`` attribute
chasing — and the per-task stall accounting is a dense int list
(slotted per :data:`~repro.sim.breakdown.REASONS`), so a cycle of
bookkeeping costs a couple of list indexings instead of enum-keyed
dict updates.

For the event-driven engine the PU also exposes
:meth:`next_event_cycle`: after a cycle in which the PU made no
progress it reports the earliest future cycle at which this PU could
act (next completion, fetch resume, ring-forward arrival, task-start
boundary) plus the stall category it keeps charging until then.
``issue`` records the two facts the probe needs as it scans — the
blocking reason of the oldest unissued instruction and the earliest
ring-forward arrival among blocked candidates — so the probe itself
does no rescanning.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.sim.breakdown import REASON_INDEX, StallReason
from repro.sim.config import SimConfig
from repro.sim.runstate import (
    OPCLASS_BRANCH,
    OPCLASS_FP,
    OPCLASS_INT,
    OPCLASS_MEM,
    RunState,
)
from repro.sim.taskstream import DynTask

_NEVER = 1 << 60

_N_REASONS = len(REASON_INDEX)
_R_FETCH = REASON_INDEX[StallReason.FETCH]
_R_TASK_START = REASON_INDEX[StallReason.TASK_START]
_R_USEFUL = REASON_INDEX[StallReason.USEFUL]


class ProcessingUnit:
    """Execution state of one PU."""

    def __init__(self, index: int, config: SimConfig, state: RunState,
                 profile=None) -> None:
        self.index = index
        self.config = config
        self.state = state
        self.profile = profile
        forward_policy = config.forward_policy.value
        self._schedule_fp = forward_policy == "schedule"
        self._lazy_fp = forward_policy == "lazy"
        # Per-PU profile overrides (heterogeneous machines): a None
        # profile — or a profile field left None — inherits the global
        # config value, so homogeneous machines build exactly the
        # constants they always did.
        def _of(attr, default):
            if profile is None:
                return default
            value = getattr(profile, attr)
            return default if value is None else value

        issue_width = _of("issue_width", config.issue_width)
        fetch_width = _of("fetch_width", config.fetch_width)
        # Extra execution latency per opclass (OPCLASS_* order); the
        # all-zeros default adds nothing on the issue paths below.
        lat_extra = (
            tuple(profile.lat_extra) if profile is not None else (0, 0, 0, 0)
        )
        # Per-run constants for the hot methods, bundled so each call
        # rebinds them with one attribute load and a tuple unpack
        # instead of ~20 attribute loads (the prologue cost dominates
        # short calls).  All referenced objects are identity-stable
        # for the lifetime of the run.
        self._fu_budget = [
            _of("int_units", config.int_units),
            _of("fp_units", config.fp_units),
            _of("mem_units", config.mem_units),
            _of("branch_units", config.branch_units),
        ]
        self._issue_consts = (
            state.opcls,
            state.is_load,
            state.is_mem,
            state.issue_simple,
            state.producers,
            state.task_seq,
            state.complete,
            state.forward,
            state.pu_of_seq,
            state.mem_producer,
            state.latency,
            state.addr,
            config.out_of_order,
            issue_width,
            config.issue_list_size,
            config.n_pus,
            config.ring_hop_latency,
            config.arb_entries_per_pu,
            config.arb_latency,
            config.stlf_latency,
            index,
            lat_extra,
        )
        self._fetch_consts = (
            state.block_start,
            state.is_cond_branch,
            state.gshare_mispred,
            state.is_mem,
            state.pc,
            fetch_width,
            config.rob_size,
            config.l1i.hit_latency,
            config.out_of_order,
            config.issue_list_size,
        )
        self._drain_consts = (
            state.complete,
            state.has_write,
            state.release_now,
            state.is_store,
            state.cross_consumer,
            config.release_lag,
            config.branch_mispredict_penalty,
        )
        #: optional telemetry collector (set by the machine, survives
        #: reset_idle; consulted only on the rare mispredict path)
        self.tracer = None
        self.reset_idle()

    # ------------------------------------------------------------ lifecycle

    def reset_idle(self) -> None:
        """Return to the idle state (no task assigned)."""
        self.arb_used = 0
        self.dyn_task: Optional[DynTask] = None
        self.seq = -1
        self.wrong = False
        self.assign_cycle = -1
        self.fetch_ptr = 0
        self.fetch_resume = 0
        self.next_mem_ptr = 0
        self.pending_branch = -1
        #: occupancy of the reorder buffer (fetched, not yet completed)
        self.rob_count = 0
        #: window entries awaiting issue: (trace_idx, fetch_cycle)
        self.unissued: List[Tuple[int, int]] = []
        #: fetched memory-op trace indices in program order; the entry
        #: at ``mem_head`` is the oldest unissued one (the only memory
        #: op allowed to issue — an O(1) check instead of a window scan)
        self.unissued_mem: List[int] = []
        self.mem_head = 0
        self.in_flight: List[Tuple[int, int]] = []  # (complete_cycle, idx)
        self.remaining = 0
        self.done = False
        self.done_cycle = -1
        #: cycle this task's first instruction issued (-1: none yet)
        self.first_issue = -1
        self.retiring = False
        #: per-task stall accounting, slotted per breakdown.REASONS
        self.local_counts: List[int] = [0] * _N_REASONS
        #: earliest ring-forward arrival among blocked candidates, as
        #: observed by the last ``issue`` call (event-probe input)
        self.issue_wake = _NEVER
        #: blocking reason of the oldest unissued instruction, as
        #: observed by the last ``issue`` call (event-probe input)
        self.last_block: Optional[StallReason] = None
        #: dense slot of ``last_block`` (valid when it is not None)
        self.last_slot = _R_FETCH
        #: trace index one past this task's span (0 when idle); lets
        #: the machine pre-test fetchability without touching dyn_task
        self.fetch_end = 0
        #: machine mutation version at which the last blocked ``issue``
        #: result was computed; -1 = stale.  While the machine's
        #: version matches and ``cycle < issue_wake``, a re-issue would
        #: provably reproduce (0, last_block), so the tick loop skips
        #: the call entirely.
        self.issue_cache_key = -1
        #: retire version at compute time, consulted only when the
        #: blocked result actually read ``machine.retire_seq`` (the
        #: ARB capacity gate) — most blocked results don't, so plain
        #: retires leave their memoization intact.
        self.issue_retire_key = -1
        self.retire_sensitive = False
        #: (store, load) trace-index pairs whose sync-table entry the
        #: last blocked scan touched, in scan order (None: no touch).
        #: A memo replay touches them again, so the table's LRU order
        #: is the one a re-run scan would leave.
        self.sync_touches: Optional[List[Tuple[int, int]]] = None
        # Per-PU schedule state, kept by the fast engine only.
        #: 0 while awake; while asleep, the cycle of this PU's next own
        #: event, at which the engine visits it again
        self.sleep_until = 0
        #: first cycle of the sleep span not yet charged, and its slot
        self.sleep_from = 0
        self.sleep_slot = _R_FETCH
        #: first cycle charged to LOAD_IMBALANCE once done (-1: not
        #: done); the engine charges the span when the commit starts
        self.imbalance_from = -1

    @property
    def idle(self) -> bool:
        """True when no task (real or wrong-path) occupies this PU."""
        return self.dyn_task is None and not self.wrong

    def assign(self, dyn_task: DynTask, cycle: int) -> None:
        """Start executing ``dyn_task`` at ``cycle``."""
        self.reset_idle()
        self.dyn_task = dyn_task
        self.seq = dyn_task.seq
        self.assign_cycle = cycle
        self.fetch_ptr = dyn_task.start
        self.fetch_end = dyn_task.end
        self.next_mem_ptr = dyn_task.start
        self.fetch_resume = cycle + self.config.task_start_overhead
        self.remaining = dyn_task.length
        self.state.pu_of_seq[dyn_task.seq] = self.index

    def assign_wrong(self, cycle: int) -> None:
        """Occupy the PU with wrong-path work (after a task mispredict)."""
        self.reset_idle()
        self.wrong = True
        self.assign_cycle = cycle

    def charge(self, reason: StallReason, cycles: int = 1) -> None:
        """Account ``cycles`` to ``reason`` in the task-local breakdown."""
        self.local_counts[REASON_INDEX[reason]] += cycles

    # ---------------------------------------------------------- completions

    def drain_completions(
        self, cycle: int
    ) -> Tuple[List[int], bool, bool, List[int]]:
        """Pop instructions finishing at ``cycle``; update run state.

        Returns ``(completed stores, popped anything, global event,
        cross-consumer completions)``: the machine checks the stores
        for memory dependence violations, uses the pop flag for
        activity detection, bumps its mutation version on a global
        event (a LAZY-policy task finishing — its writes forward in
        bulk), and invalidates the memoized issue results of exactly
        the consumer tasks of each cross-consumer completion.
        """
        completed_stores: List[int] = []
        cross_popped: List[int] = []
        in_flight = self.in_flight
        popped = False
        global_event = False
        if in_flight and in_flight[0][0] <= cycle:
            (
                complete,
                has_write,
                release_now,
                is_store,
                cross_consumer,
                release_lag,
                mispredict_penalty,
            ) = self._drain_consts
            heappop = heapq.heappop
            schedule_policy = self._schedule_fp
            popped = True
            self.issue_cache_key = -1
            while in_flight and in_flight[0][0] <= cycle:
                _, idx = heappop(in_flight)
                complete[idx] = cycle
                self.remaining -= 1
                self.rob_count -= 1
                if cross_consumer[idx]:
                    cross_popped.append(idx)
                if has_write[idx]:
                    if release_now[idx]:
                        self._schedule_forward(idx, cycle)
                    elif schedule_policy:
                        self._schedule_forward(idx, cycle + release_lag)
                    # LAZY: forwarded in bulk at task completion.
                if is_store[idx]:
                    completed_stores.append(idx)
                if idx == self.pending_branch:
                    self.pending_branch = -1
                    self.fetch_resume = cycle + mispredict_penalty
        if (
            not self.done
            and self.dyn_task is not None
            and self.remaining == 0
            and self.fetch_ptr >= self.dyn_task.end
        ):
            self.done = True
            self.done_cycle = cycle
            if self._lazy_fp:
                # Bulk forwarding is the only completion effect another
                # task's issue decision can observe here; under EAGER /
                # SCHEDULE every forward was already published at its
                # own drain (and targeted invalidation covered it).
                global_event = True
                self._forward_all_writes(cycle)
        return completed_stores, popped, global_event, cross_popped

    def _schedule_forward(self, idx: int, earliest: int) -> None:
        state = self.state
        if state.forward[idx] >= 0:
            return
        if state.has_remote_consumer[idx]:
            state.forward[idx] = self.machine_ring_slot(earliest)
        else:
            state.forward[idx] = earliest

    def machine_ring_slot(self, earliest: int) -> int:
        """Reserve a ring egress slot at or after ``earliest``."""
        egress = self._egress
        bandwidth = self.config.ring_bandwidth
        cycle = earliest
        while egress.get(cycle, 0) >= bandwidth:
            cycle += 1
        egress[cycle] = egress.get(cycle, 0) + 1
        return cycle

    def attach_egress(self, egress: Dict[int, int]) -> None:
        """Give the PU its ring egress schedule (owned by the machine)."""
        self._egress = egress

    def _forward_all_writes(self, cycle: int) -> None:
        state = self.state
        assert self.dyn_task is not None
        has_write = state.has_write
        forward = state.forward
        for i in range(self.dyn_task.start, self.dyn_task.end):
            if has_write[i] and forward[i] < 0:
                self._schedule_forward(i, cycle)

    # ---------------------------------------------------------------- fetch

    def fetch(self, cycle: int) -> bool:
        """Bring up to ``fetch_width`` instructions into the window.

        Returns True when anything was fetched (activity detection).
        """
        if self.dyn_task is None or self.done:
            return False
        if cycle < self.fetch_resume or self.pending_branch >= 0:
            return False
        (
            block_start,
            is_cond_branch,
            gshare_mispred,
            is_mem,
            pc,
            fetch_width,
            rob_size,
            l1i_hit_latency,
            out_of_order,
            issue_list_size,
        ) = self._fetch_consts
        end = self.dyn_task.end
        unissued = self.unissued
        unissued_mem = self.unissued_mem
        fetched = 0
        # Appending to the window invalidates a memoized blocked-issue
        # result only when the next scan would actually reach the new
        # entries: an in-order scan breaks at its first blocker, and an
        # out-of-order scan stops at ``issue_list_size`` candidates.
        # (A previously-empty window always invalidates: its memo is
        # the trivial "nothing to issue" result.)
        if out_of_order:
            if len(unissued) < issue_list_size:
                self.issue_cache_key = -1
        elif not unissued:
            self.issue_cache_key = -1
        while (
            fetched < fetch_width
            and self.fetch_ptr < end
            and self.rob_count < rob_size
        ):
            idx = self.fetch_ptr
            if block_start[idx]:
                latency = self.icache_access(pc[idx])
                if latency > l1i_hit_latency:
                    # Miss: stall the front end for the extra cycles,
                    # then this (already-fetched) line streams in.
                    self.fetch_resume = cycle + (latency - l1i_hit_latency)
            self.rob_count += 1
            unissued.append((idx, cycle))
            if is_mem[idx]:
                unissued_mem.append(idx)
            self.fetch_ptr = idx + 1
            fetched += 1
            if is_cond_branch[idx] and gshare_mispred[idx]:
                # Wrong-path fetch: stall until the branch resolves.
                self.pending_branch = idx
                self.fetch_resume = _NEVER
                if self.tracer is not None:
                    self.tracer.on_branch_mispredict(
                        self.seq, idx, cycle, self.index
                    )
                break
            if self.fetch_resume > cycle:
                break
        if (
            not self.done
            and self.remaining == 0
            and self.fetch_ptr >= end
            and self.rob_count == 0
        ):
            self.done = True
            self.done_cycle = cycle
            if self._lazy_fp:
                self._forward_all_writes(cycle)
        return fetched > 0

    def icache_access(self, pc: int) -> int:
        """Overridden by the machine with the shared hierarchy."""
        return self.config.l1i.hit_latency

    # ---------------------------------------------------------------- issue

    def issue(self, cycle: int, machine) -> Tuple[int, Optional[StallReason]]:
        """Issue ready instructions; return (#issued, stall reason).

        The stall reason reflects the oldest unissued instruction when
        nothing issued this cycle (None when something issued or there
        is nothing to issue).

        A blocked result is memoized against the machine's mutation
        version: until a completion with cross-task consumers, a
        retire, an assign, a squash, or this PU's own fetch/issue/drain
        occurs — and before any recorded ring-forward arrival
        (``issue_wake``) — re-running this computation cannot change
        its outcome, so the tick loop replays ``(0, last_block)``
        without calling in.  A scan that hit the memory sync table
        records the pairs it touched (``sync_touches``); the replay
        touches them again in the same order, and the result is
        retire-sensitive because being the head task lifts a sync wait.

        The per-candidate blocking analysis (register operands,
        program-order memory, ARB capacity, sync table) and the issue
        latency are fused inline: this loop runs millions of times per
        run and the call overhead of one helper per candidate used to
        dominate it.
        """
        self.issue_wake = _NEVER
        self.retire_sensitive = False
        self.sync_touches = None
        unissued = self.unissued
        if self.dyn_task is None or self.done or not unissued:
            self.last_block = None
            self.issue_cache_key = machine._mut_version
            return 0, None
        issued = 0
        (
            opcls,
            is_load,
            is_mem,
            issue_simple,
            producers,
            task_seq,
            complete,
            forward,
            pu_of_seq,
            mem_producer,
            latency_of,
            addr,
            out_of_order,
            issue_width,
            issue_list_size,
            n_pus,
            hop_latency,
            arb_capacity,
            arb_latency,
            stlf_latency,
            my_pu,
            lat_extra,
        ) = self._issue_consts
        # FU budget slotted by opcode class (OPCLASS_*).
        budget = self._fu_budget.copy()
        first_block: Optional[StallReason] = None
        issued_pos: List[int] = []

        limit = len(unissued)
        if out_of_order and limit > issue_list_size:
            limit = issue_list_size
        in_flight = self.in_flight
        seq = self.seq
        at_head = seq == machine.retire_seq
        heappush = heapq.heappush
        unissued_mem = self.unissued_mem
        mem_head = self.mem_head
        issued_mem = 0
        issue_wake = _NEVER
        sync_touches: Optional[List[Tuple[int, int]]] = None
        retire_sensitive = False

        for pos in range(limit):
            if issued >= issue_width:
                break
            idx, fetch_cycle = unissued[pos]
            if fetch_cycle >= cycle:
                # Decode: not issuable the cycle it was fetched.  Fetch
                # stamps never decrease along the window, so every
                # later candidate is decode-stalled too — stop scanning.
                if first_block is None:
                    first_block = StallReason.FETCH
                break
            if issue_simple[idx]:
                # No register operands and no memory semantics: after
                # the decode gate above, only the FU budget can stop
                # it.  Skips the whole dependence analysis below.
                cls = opcls[idx]
                if budget[cls] <= 0:
                    if first_block is None:
                        first_block = StallReason.USEFUL
                    if not out_of_order:
                        break
                    continue
                budget[cls] -= 1
                heappush(
                    in_flight,
                    (cycle + latency_of[idx] + lat_extra[cls], idx),
                )
                issued_pos.append(pos)
                issued += 1
                continue
            reason: Optional[StallReason] = None
            # Register operands.  A block on a scheduled ring
            # forward records the arrival cycle in ``issue_wake``
            # for the event probe — the only blocking condition
            # that clears at a known future cycle rather than at
            # another unit's event.
            for p in producers[idx]:
                pseq = task_seq[p]
                if pseq == seq:
                    done = complete[p]
                    if done < 0 or done > cycle:
                        reason = StallReason.INTRA_DEP
                        break
                else:
                    fwd = forward[p]
                    if fwd < 0:
                        reason = StallReason.INTER_COMM
                        break
                    prod_pu = pu_of_seq[pseq]
                    hops = (
                        (my_pu - prod_pu) % n_pus if prod_pu >= 0 else 1
                    )
                    if hops > 1:
                        fwd += (hops - 1) * hop_latency
                    if fwd > cycle:
                        if fwd < issue_wake:
                            issue_wake = fwd
                        reason = StallReason.INTER_COMM
                        break
            if reason is None and is_mem[idx]:
                # Program-order memory issue within the task.  The
                # head index is frozen for the whole cycle (the
                # reference window scan also still sees entries
                # issued earlier this cycle), so at most one memory
                # op issues per cycle through this gate.
                if unissued_mem[mem_head] != idx:
                    reason = StallReason.MEMORY
                if reason is None:
                    # ARB capacity: a speculative task with a full
                    # ARB stalls its memory operations until it
                    # becomes the head.  Outcome depends on
                    # retire_seq: invalidate on retire.
                    if arb_capacity > 0 and self.arb_used >= arb_capacity:
                        retire_sensitive = True
                        if not at_head:
                            reason = StallReason.MEMORY
                    if reason is None and is_load[idx]:
                        p = mem_producer[idx]
                        if p >= 0:
                            pseq = task_seq[p]
                            if pseq == seq:
                                done = complete[p]
                                if done < 0 or done > cycle:
                                    reason = StallReason.MEMORY
                            elif complete[p] < 0 or complete[p] > cycle:
                                # Not forwarded by the ARB yet.
                                if machine.is_synchronised(p, idx):
                                    # Touched the sync table's LRU:
                                    # a memo replay must touch it too.
                                    if sync_touches is None:
                                        sync_touches = []
                                    sync_touches.append((p, idx))
                                    retire_sensitive = True
                                    if not at_head:
                                        reason = StallReason.SYNC_WAIT
                                # else: speculate
            if reason is not None:
                if first_block is None:
                    first_block = reason
                if not out_of_order:
                    break
                continue
            cls = opcls[idx]
            if budget[cls] <= 0:
                if first_block is None:
                    first_block = StallReason.USEFUL
                if not out_of_order:
                    break
                continue
            budget[cls] -= 1
            if is_load[idx]:
                p = mem_producer[idx]
                if p >= 0 and task_seq[p] == seq:
                    latency = stlf_latency
                elif p >= 0 and complete[p] >= 0:
                    latency = arb_latency
                else:
                    if p >= 0:
                        # Speculative load: may be violated when p
                        # executes.
                        machine.register_speculative_load(p, idx, seq)
                    latency = machine.data_access(addr[idx])
                    if latency < arb_latency:
                        latency = arb_latency
            else:
                latency = latency_of[idx]
            heappush(in_flight, (cycle + latency + lat_extra[cls], idx))
            issued_pos.append(pos)
            issued += 1
            if is_mem[idx]:
                self.next_mem_ptr = idx + 1
                issued_mem += 1
                if not at_head:
                    self.arb_used += 1

        self.issue_wake = issue_wake
        if issued:
            if self.first_issue < 0:
                self.first_issue = cycle
            if issued_mem:
                self.mem_head = mem_head + issued_mem
            for shift, pos in enumerate(issued_pos):
                del unissued[pos - shift]
            self.last_block = None
            self.issue_cache_key = -1
            return issued, None
        self.last_block = first_block
        if first_block is not None:
            self.last_slot = first_block.slot
        self.retire_sensitive = retire_sensitive
        self.sync_touches = sync_touches
        self.issue_cache_key = machine._mut_version
        self.issue_retire_key = machine._retire_version
        return 0, first_block

    # ---------------------------------------------------------- event probe

    def next_event_cycle(self, t: int, machine) -> Tuple[int, int]:
        """Earliest cycle >= ``t`` this PU could act, and the stall slot
        (a ``REASONS`` index) it charges until then.

        Only meaningful for a PU holding a real, unfinished task,
        immediately after a cycle in which it made no progress (nothing
        drained, issued, or fetched): the blocking state observed by
        that cycle's ``issue`` call then holds for every cycle before
        the returned wake-up point, so the machine can charge the whole
        span in one step.  Wake-up sources that live on *other* units
        (a producer task's completion, the retire chain, the sequencer)
        are deliberately not bounded here — the machine takes the
        minimum across all units, and wakes a sleeping PU on those
        events itself.
        """
        in_flight = self.in_flight
        wake = in_flight[0][0] if in_flight else _NEVER
        if (
            self.pending_branch < 0
            and self.fetch_ptr < self.fetch_end
            and self.rob_count < self.config.rob_size
        ):
            resume = self.fetch_resume
            if resume < t:
                resume = t
            if resume < wake:
                wake = resume
        if self.issue_wake < wake:
            wake = self.issue_wake
        boundary = self.assign_cycle + self.config.task_start_overhead
        if t < boundary:
            # The charge category flips from TASK_START at the boundary.
            if boundary < wake:
                wake = boundary
            return wake, _R_TASK_START
        if self.last_block is None:
            return wake, _R_FETCH
        return wake, self.last_slot
