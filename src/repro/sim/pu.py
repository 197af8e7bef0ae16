"""One Multiscalar processing unit (Section 4.2 configuration).

Each PU executes one dynamic task at a time: it fetches the task's
instructions in (dynamic) program order at ``fetch_width`` per cycle,
holds them in a ``rob_size`` window, and issues up to ``issue_width``
ready instructions per cycle subject to the issue-list depth, the
functional unit mix, and — in in-order mode — strict program order.
An instruction issues at the earliest the cycle after its fetch: the
machine runs ``issue`` before ``fetch`` in each cycle, so a scan only
meets entries fetched in earlier cycles.
Memory operations issue in program order within the task (the paper's
single memory unit), which keeps intra-task memory semantics exact.

The PU charges every occupied cycle to a Figure-2 category in a local
breakdown; the machine merges it on retire or converts the whole
occupancy into a misspeculation penalty on squash.

The hot paths (``issue``/``fetch``/``drain_completions``) index the
stream's packed trace arrays — flat ints, no ``DynInst`` attribute
chasing — through per-PU tuples built on first use, so only a
reference run packs (see :mod:`repro.sim.packed`).  The per-task
stall accounting is a dense int list (slotted per
:data:`~repro.sim.breakdown.REASONS`), so a cycle of bookkeeping
costs a couple of list indexings instead of enum-keyed dict updates.

These methods are the model the native loop (``native.c``) ports
function by function: ``drain_completions`` is its ``drain``,
``issue`` its ``issue`` and ``fetch`` its ``fetch``.  Nothing is
memoized; the reference loop
(:meth:`~repro.sim.machine.MultiscalarMachine._tick`) re-runs every
non-empty window's issue scan every cycle.  The kernel instead sleeps
a PU whose scan issued nothing until a known cycle or an event can
change the outcome, which changes no result (DESIGN.md §9).
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.sim.breakdown import REASON_INDEX, StallReason
from repro.sim.config import SimConfig
from repro.sim.runstate import RunState
from repro.sim.taskstream import DynTask

_NEVER = 1 << 60

_N_REASONS = len(REASON_INDEX)


class ProcessingUnit:
    """Execution state of one PU."""

    def __init__(self, index: int, config: SimConfig,
                 state: RunState) -> None:
        self.index = index
        self.config = config
        self.state = state
        forward_policy = config.forward_policy.value
        self._schedule_fp = forward_policy == "schedule"
        self._lazy_fp = forward_policy == "lazy"
        # This PU's widths and units (its profile's overrides on a
        # heterogeneous machine, else the config's own values).
        self.issue_width = config.pu_field(index, "issue_width")
        self.fetch_width = config.pu_field(index, "fetch_width")
        # Extra execution latency per opclass (OPCLASS_* order); the
        # all-zeros default adds nothing on the issue paths below.
        self.lat_extra = (
            config.pus[index].lat_extra if config.pus else (0, 0, 0, 0)
        )
        self._fu_budget = [
            config.pu_field(index, "int_units"),
            config.pu_field(index, "fp_units"),
            config.pu_field(index, "mem_units"),
            config.pu_field(index, "branch_units"),
        ]
        #: optional telemetry collector (set by the machine, survives
        #: reset_idle; consulted only on the rare mispredict path)
        self.tracer = None
        self.reset_idle()

    # Per-run constants for the hot methods, bundled so each call
    # rebinds them with one attribute load and a tuple unpack instead
    # of ~20 attribute loads (the prologue cost dominates short calls).
    # All referenced objects are identity-stable for the lifetime of
    # the run.  Built on first use: only the reference loop calls the
    # hot methods, and the tuples alias the Python packing.

    @cached_property
    def _issue_consts(self) -> tuple:
        """Constants of :meth:`issue`."""
        state, config = self.state, self.config
        return (
            state.opcls,
            state.is_load,
            state.is_mem,
            state.producers,
            state.task_seq,
            state.complete,
            state.forward,
            state.pu_of_seq,
            state.mem_producer,
            state.latency,
            state.addr,
            config.out_of_order,
            self.issue_width,
            config.issue_list_size,
            config.n_pus,
            config.ring_hop_latency,
            config.arb_entries_per_pu,
            config.arb_latency,
            config.stlf_latency,
            self.index,
            self.lat_extra,
        )

    @cached_property
    def _fetch_consts(self) -> tuple:
        """Constants of :meth:`fetch`."""
        state, config = self.state, self.config
        return (
            state.block_start,
            state.is_cond_branch,
            state.gshare_mispred,
            state.pc,
            self.fetch_width,
            config.rob_size,
            config.l1i.hit_latency,
        )

    @cached_property
    def _drain_consts(self) -> tuple:
        """Constants of :meth:`drain_completions`."""
        state, config = self.state, self.config
        return (
            state.complete,
            state.has_write,
            state.release_now,
            state.is_store,
            config.release_lag,
            config.branch_mispredict_penalty,
        )

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
        self.pending_branch = -1
        #: occupancy of the reorder buffer (fetched, not yet completed)
        self.rob_count = 0
        #: trace indices of the window entries awaiting issue, in
        #: program order
        self.unissued: List[int] = []
        self.in_flight: List[Tuple[int, int]] = []  # (complete_cycle, idx)
        self.remaining = 0
        self.done = False
        self.done_cycle = -1
        #: cycle this task's first instruction issued (-1: none yet)
        self.first_issue = -1
        self.retiring = False
        #: per-task stall accounting, slotted per breakdown.REASONS
        self.local_counts: List[int] = [0] * _N_REASONS
        #: trace index one past this task's span (0 when idle); lets
        #: the machine pre-test fetchability without touching dyn_task
        self.fetch_end = 0

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
        self.fetch_resume = cycle + self.config.task_start_overhead
        self.remaining = dyn_task.length
        self.state.pu_of_seq[dyn_task.seq] = self.index

    def assign_wrong(self, cycle: int) -> None:
        """Occupy the PU with wrong-path work (after a task mispredict)."""
        self.reset_idle()
        self.wrong = True
        self.assign_cycle = cycle

    # ---------------------------------------------------------- completions

    def drain_completions(self, cycle: int) -> List[int]:
        """Pop instructions finishing at ``cycle``; update run state.

        Returns the completed stores, which the machine checks for
        memory dependence violations.
        """
        completed_stores: List[int] = []
        in_flight = self.in_flight
        if in_flight and in_flight[0][0] <= cycle:
            (
                complete,
                has_write,
                release_now,
                is_store,
                release_lag,
                mispredict_penalty,
            ) = self._drain_consts
            heappop = heapq.heappop
            schedule_policy = self._schedule_fp
            while in_flight and in_flight[0][0] <= cycle:
                _, idx = heappop(in_flight)
                complete[idx] = cycle
                self.remaining -= 1
                self.rob_count -= 1
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
                self._forward_all_writes(cycle)
        return completed_stores

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

    def fetch(self, cycle: int) -> None:
        """Bring up to ``fetch_width`` instructions into the window.

        The machine calls it only when the PU can fetch this cycle: it
        holds an unfinished task with instructions left to fetch, room
        in the window, no unresolved mispredicted branch, and
        ``cycle >= fetch_resume``.  So at least one instruction enters
        the window, and the task cannot go done here; it goes done in
        :meth:`drain_completions`.
        """
        (
            block_start,
            is_cond_branch,
            gshare_mispred,
            pc,
            fetch_width,
            rob_size,
            l1i_hit_latency,
        ) = self._fetch_consts
        end = self.fetch_end
        unissued = self.unissued
        fetched = 0
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
            unissued.append(idx)
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

    def icache_access(self, pc: int) -> int:
        """Overridden by the machine with the shared hierarchy."""
        return self.config.l1i.hit_latency

    # ---------------------------------------------------------------- issue

    def issue(self, cycle: int, machine) -> Tuple[int, Optional[StallReason]]:
        """Issue ready window entries; return (#issued, stall reason).

        The stall reason is that of the oldest blocked entry when
        nothing issued this cycle (None when something issued or there
        is nothing to report).  The machine calls it only for a PU
        holding an unfinished task with a non-empty window.

        The per-candidate blocking analysis (register operands,
        program-order memory, ARB capacity, sync table) and the issue
        latency are fused inline: this loop runs millions of times per
        run and the call overhead of one helper per candidate used to
        dominate it.
        """
        (
            opcls,
            is_load,
            is_mem,
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
        unissued = self.unissued
        limit = len(unissued)
        if out_of_order and limit > issue_list_size:
            limit = issue_list_size
        in_flight = self.in_flight
        seq = self.seq
        at_head = seq == machine.retire_seq
        heappush = heapq.heappush
        issued = 0
        seen_mem = False

        for pos in range(limit):
            if issued >= issue_width:
                break
            idx = unissued[pos]
            reason: Optional[StallReason] = None
            # Register operands.
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
                        reason = StallReason.INTER_COMM
                        break
            if is_mem[idx]:
                # Memory ops issue in program order: only the oldest
                # unissued one of the window (the first one the scan
                # meets) may pass, at most once per cycle.
                oldest = not seen_mem
                seen_mem = True
                if reason is None and not oldest:
                    reason = StallReason.MEMORY
                # ARB capacity: a speculative task with a full ARB
                # stalls its memory operations until it is the head.
                if (
                    reason is None
                    and arb_capacity > 0
                    and self.arb_used >= arb_capacity
                    and not at_head
                ):
                    reason = StallReason.MEMORY
                if reason is None and is_load[idx]:
                    p = mem_producer[idx]
                    if p >= 0:
                        if task_seq[p] == seq:
                            done = complete[p]
                            if done < 0 or done > cycle:
                                reason = StallReason.MEMORY
                        elif complete[p] < 0 or complete[p] > cycle:
                            # Not forwarded by the ARB yet: wait if the
                            # sync table holds the pair, else speculate.
                            if (
                                machine.is_synchronised(p, idx)
                                and not at_head
                            ):
                                reason = StallReason.SYNC_WAIT
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
            if is_mem[idx] and not at_head:
                self.arb_used += 1

        if issued:
            if self.first_issue < 0:
                self.first_issue = cycle
            for shift, pos in enumerate(issued_pos):
                del unissued[pos - shift]
            return issued, None
        return 0, first_block
