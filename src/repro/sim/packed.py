"""Packed dynamic-trace arrays, built once per trace and once per stream.

The timing model never looks at a :class:`~repro.ir.interp.DynInst`
in its hot loops: everything a replay needs is lowered here into flat
parallel arrays indexed by trace position.  They come in two parts:

* :class:`TraceArrays` — opcode class codes, latencies, pcs,
  effective addresses, register and memory producers resolved to
  trace indices, per-instruction flags and the precomputed gshare
  outcome stream.  None of it depends on a partition, so it is built
  once per :class:`~repro.ir.interp.Trace` and shared by every task
  stream cut from that trace (compiles whose transforms yield the
  same program share the trace, see
  :class:`~repro.compiler.partition.TraceMemo`).
* :class:`PackedTrace` — the arrays that depend on where the
  partition cuts the trace: the dynamic task of each instruction, the
  cross-task consumer flags and lists, and the release flags.

Both are immutable and shared: every
:class:`~repro.sim.runstate.RunState` (one per machine run) aliases
them instead of re-deriving them, so a machine sweep over one
compiled stream pays the packing cost exactly once — at
``build_task_stream`` time.

Layout choices: single-byte fields (flags, opcode classes) are
``bytearray``; rarely-read wide fields (pc, addresses) are
``array('q')``; fields read on the issue fast path (latencies, task
sequence numbers, memory producers) stay plain ``list``s of ints
because CPython list indexing is faster than unboxing from ``array``.
Register names are interned to dense integer ids while resolving
producers, after which the names are not needed at all.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import OpClass, Opcode
from repro.predict import GsharePredictor
from repro.sim.config import ForwardPolicy

OPCLASS_INT = 0
OPCLASS_FP = 1
OPCLASS_MEM = 2
OPCLASS_BRANCH = 3

_OPCLASS_ID = {
    OpClass.INT: OPCLASS_INT,
    OpClass.FP: OPCLASS_FP,
    OpClass.MEM: OPCLASS_MEM,
    OpClass.BRANCH: OPCLASS_BRANCH,
}


class TraceArrays:
    """Flat, immutable per-instruction arrays of one trace.

    Build them through :meth:`of`, which caches them on the trace.
    """

    def __init__(self, trace) -> None:
        insts = trace.insts
        n = len(insts)
        self.n = n

        self.opcls = bytearray(n)
        self.latency: List[int] = [0] * n
        self.is_load = bytearray(n)
        self.is_store = bytearray(n)
        self.is_mem = bytearray(n)
        self.is_cond_branch = bytearray(n)
        self.block_start = bytearray(n)
        self.has_write = bytearray(n)
        self.gshare_mispred = bytearray(n)
        self.pc = array("q", bytes(8 * n))
        self.addr = array("q", bytes(8 * n))
        self.producers: List[Tuple[int, ...]] = [()] * n
        self.mem_producer: List[int] = [-1] * n

        for start_idx, _block in trace.block_entries:
            if start_idx < n:
                self.block_start[start_idx] = 1

        # Register names are interned to dense ids so the producer
        # resolution below keys its tables by small ints; the names
        # never survive into the packed arrays.
        reg_ids: Dict[str, int] = {}
        reg_id_get = reg_ids.get
        last_writer: Dict[int, int] = {}
        last_store: Dict[int, int] = {}
        gshare = GsharePredictor()
        opclass_of = _OPCLASS_ID
        no_producers: Tuple[int, ...] = ()

        opcls = self.opcls
        latency = self.latency
        is_load = self.is_load
        is_store = self.is_store
        is_mem = self.is_mem
        is_cond_branch = self.is_cond_branch
        has_write = self.has_write
        gshare_mispred = self.gshare_mispred
        pc = self.pc
        addr = self.addr
        producers = self.producers
        mem_producer = self.mem_producer

        for i, dyn in enumerate(insts):
            op = dyn.op
            opcls[i] = opclass_of[op.op_class]
            latency[i] = op.latency
            pc[i] = dyn.pc
            if op is Opcode.LOAD:
                is_load[i] = 1
                is_mem[i] = 1
                assert dyn.addr is not None
                addr[i] = dyn.addr
                mem_producer[i] = last_store.get(dyn.addr, -1)
            elif op is Opcode.STORE:
                is_store[i] = 1
                is_mem[i] = 1
                assert dyn.addr is not None
                addr[i] = dyn.addr
                last_store[dyn.addr] = i
            elif op.is_branch:
                is_cond_branch[i] = 1
                assert dyn.taken is not None
                if gshare.update(dyn.pc, dyn.taken):
                    gshare_mispred[i] = 1

            reads = dyn.reads
            if reads:
                prods = no_producers
                for name in reads:
                    r = reg_id_get(name)
                    if r is None:
                        r = reg_ids[name] = len(reg_ids)
                    w = last_writer.get(r, -1)
                    if w >= 0 and w not in prods:
                        prods = prods + (w,)
                if prods:
                    if len(prods) > 1:
                        prods = tuple(sorted(prods))
                    producers[i] = prods
            write = dyn.write
            if write is not None:
                has_write[i] = 1
                r = reg_id_get(write)
                if r is None:
                    r = reg_ids[write] = len(reg_ids)
                last_writer[r] = i

        # Issue fast path: an instruction with no register producers
        # and no memory semantics can never block on operands, memory
        # order, the ARB, or the sync table — the issue scan's only
        # questions for it are decode timing and FU budget.  Roughly
        # half of a typical trace qualifies, so the scan checks this
        # one flag before walking the dependence machinery.
        self.issue_simple = simple = bytearray(n)
        for i in range(n):
            if not producers[i] and not is_mem[i]:
                simple[i] = 1

        # Gshare outcomes are a pure function of the trace, so the
        # predictor's end-of-run statistics are frozen here.  Its
        # prediction count is the trace's conditional branch count.
        self.gshare_predictions = gshare.predictions
        self.gshare_accuracy = gshare.accuracy
        self.control_transfers = trace.control_transfer_count()

    @staticmethod
    def of(trace) -> "TraceArrays":
        """``trace``'s arrays, built on first use and kept on the trace."""
        arrays = trace.arrays
        if arrays is None:
            arrays = trace.arrays = TraceArrays(trace)
        return arrays


class PackedTrace:
    """One task stream's arrays: the trace's :class:`TraceArrays`
    (as :attr:`arrays`) plus the ones that depend on the partition."""

    def __init__(self, stream) -> None:
        arrays = TraceArrays.of(stream.trace)
        self.arrays = arrays
        n = arrays.n
        self.n = n

        self.task_seq: List[int] = [0] * n
        task_seq = self.task_seq
        for seq, dyn_task in enumerate(stream.tasks):
            span = dyn_task.end - dyn_task.start
            if span > 0:
                task_seq[dyn_task.start : dyn_task.end] = [seq] * span

        # Cross-task consumer tracking.  Completion of an instruction
        # without the ``cross_consumer`` flag cannot unblock any
        # *other* task: no later task reads its register value and no
        # later task's load memory-depends on it.  For flagged
        # instructions ``consumer_seqs`` lists exactly the dynamic
        # tasks whose issue decisions can observe the completion — the
        # event engine invalidates only those tasks' memoized
        # blocked-issue results instead of everyone's.
        self.has_remote_consumer = has_remote = bytearray(n)
        self.cross_consumer = cross = bytearray(n)
        consumers: Dict[int, set] = {}
        consumer_entry = consumers.setdefault
        for seq, p, prods in zip(
            task_seq, arrays.mem_producer, arrays.producers
        ):
            if p >= 0 and task_seq[p] != seq:
                cross[p] = 1
                consumer_entry(p, set()).add(seq)
            for p in prods:
                if task_seq[p] != seq:
                    has_remote[p] = 1
                    cross[p] = 1
                    consumer_entry(p, set()).add(seq)
        self.consumer_seqs: Dict[int, Tuple[int, ...]] = {
            p: tuple(seqs) for p, seqs in consumers.items()
        }

        self._stream = stream
        #: release flags per forward policy, computed on demand.  The
        #: cached entry also remembers the ``ReleaseAnalysis`` it was
        #: derived from so a caller supplying a different analysis
        #: object gets a fresh computation instead of a stale alias.
        self._release_cache: Dict[str, Tuple[Optional[object], bytearray]] = {}

    def release_now(self, policy: ForwardPolicy, release=None) -> bytearray:
        """Per-instruction "forward at completion" flags for ``policy``.

        ``release`` is the :class:`~repro.compiler.regcomm.ReleaseAnalysis`
        used for :attr:`~repro.sim.config.ForwardPolicy.SCHEDULE`; when
        ``None`` a canonical analysis of the stream's partition is built.
        """
        cached = self._release_cache.get(policy.value)
        if cached is not None and (
            policy is not ForwardPolicy.SCHEDULE
            or release is None
            or cached[0] is release
        ):
            return cached[1]
        flags = self._compute_release_now(policy, release)
        self._release_cache[policy.value] = (release, flags)
        return flags

    def _compute_release_now(
        self, policy: ForwardPolicy, release
    ) -> bytearray:
        n = self.n
        flags = bytearray(n)
        if policy is ForwardPolicy.LAZY:
            return flags
        has_write = self.arrays.has_write
        if policy is ForwardPolicy.EAGER:
            flags[:] = has_write
            return flags
        if release is None:
            from repro.compiler.regcomm import ReleaseAnalysis

            release = ReleaseAnalysis(self._stream.partition)
        stream = self._stream
        absorbed = stream.absorbed_flags
        tasks = stream.tasks
        task_seq = self.task_seq
        is_release = release.is_release
        # The answer depends only on the static position, so each
        # (task, block, instruction) is analysed once per stream.
        memo: Dict[Tuple[int, Tuple[str, str], int], bool] = {}
        for i, dyn in enumerate(stream.trace.insts):
            if not has_write[i] or absorbed[i]:
                continue
            task = tasks[task_seq[i]].task
            block = dyn.block
            key = (task.task_id, block, dyn.iidx)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = block in task.blocks and is_release(
                    task, block, dyn.iidx, dyn.write
                )
            if hit:
                flags[i] = 1
        return flags
