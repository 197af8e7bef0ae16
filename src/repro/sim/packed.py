"""The reference engine's packed trace arrays, built on first use.

``_tick`` never looks at a :class:`~repro.ir.interp.DynInst` in its
hot loops: everything a replay needs is lowered here into flat
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
  partition cuts the trace: the dynamic task of each instruction and
  whether its register write is read by another task.

Only the reference loop reads them.  They are built from the trace's
:class:`~repro.ir.interp.DynInst` view and the stream's
:class:`~repro.sim.taskstream.DynTask` view, which expand the trace's
columns and the stream's task table on first use.  The native loop
lowers its own buffers from the same columns (``native.c``'s
``ms_lower``) and reads the task table directly, so a kernel run
builds none of this; :attr:`TaskStream.packed
<repro.sim.taskstream.TaskStream.packed>` builds it the first time a
:class:`~repro.sim.runstate.RunState` binds its static aliases.  Both
parts are immutable and shared by every reference run of a stream.
The two lowerings are independent implementations of one mapping, so
every fast-vs-reference sweep also checks the views against the
columns the kernel reads.

Layout choices: single-byte fields (flags, opcode classes) are
``bytearray``; rarely-read wide fields (pc, addresses) are
``array('q')``; fields every issue scan reads (latencies, task
sequence numbers, memory producers) stay plain ``list``s of ints
because CPython list indexing is faster than unboxing from ``array``.
Register names are interned to dense integer ids while resolving
producers, after which the names are not needed at all.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.ir.instructions import OpClass, Opcode
from repro.predict import GsharePredictor
from repro.sim.config import ForwardPolicy

OPCLASS_INT = 0
OPCLASS_FP = 1
OPCLASS_MEM = 2
OPCLASS_BRANCH = 3

OPCLASS_ID = {
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
        opclass_of = OPCLASS_ID
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

        # Gshare outcomes are a pure function of the trace, so the
        # predictor's end-of-run statistics are frozen here.  Its
        # prediction count is the trace's conditional branch count.
        self.gshare_predictions = gshare.predictions
        self.gshare_accuracy = gshare.accuracy

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

        # A register write with a consumer in another task forwards
        # over the ring (egress bandwidth); one read only inside its
        # own task does not.
        self.has_remote_consumer = has_remote = bytearray(n)
        for seq, prods in zip(task_seq, arrays.producers):
            for p in prods:
                if task_seq[p] != seq:
                    has_remote[p] = 1

        self._stream = stream

    def release_now(self, policy: ForwardPolicy, release=None) -> bytearray:
        """Per-instruction "forward at completion" flags for ``policy``.

        ``release`` is the :class:`~repro.compiler.regcomm.ReleaseAnalysis`
        used for :attr:`~repro.sim.config.ForwardPolicy.SCHEDULE`, whose
        flags the stream computes and both engines share (see
        :meth:`~repro.sim.taskstream.TaskStream.schedule_release`).
        """
        if policy is ForwardPolicy.SCHEDULE:
            return self._stream.schedule_release(release)
        if policy is ForwardPolicy.EAGER:
            return self.arrays.has_write
        return bytearray(self.n)
