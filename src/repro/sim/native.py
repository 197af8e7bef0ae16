"""Loader and driver of the native cycle loop (``native.c``).

``engine="fast"`` runs :func:`run`, a C port of
:meth:`~repro.sim.machine.MultiscalarMachine._tick`, unless a monitor
or a fault plan is attached (both read or mutate live machine state,
so those runs take ``_tick``).  The kernel is built with the system C
compiler on first use into ``<artifact cache root>/native/<digest>.so``
(the digest covers the source and the compiler command) and loaded
through :mod:`ctypes`, once per process.  When the build or the load
fails, one ``RuntimeWarning`` names the error and ``fast`` runs
``_tick`` instead.

The kernel lowers each trace itself: :func:`lowering` hands
``ms_lower`` the trace's flat columns (block-entry starts and pcs,
memory addresses, branch outcomes) and per-pc tables of the program's
static instructions, and ``ms_lower`` fills every per-instruction
buffer the cycle loop reads (a :class:`Lowering`).  That runs once per
trace, and the lowering lives in a weak-keyed side table, so it dies
with its trace and is never pickled with a compiled artifact.  The
per-task table is the stream's own
(:attr:`~repro.sim.taskstream.TaskStream.table`, emitted by
:func:`~repro.sim.taskstream.build_task_stream`).  So a kernel run
builds no per-instruction or per-task Python object: neither the
Python packing (:mod:`repro.sim.packed`), the reference loop's input,
nor the trace's ``DynInst`` view nor the stream's ``DynTask`` view.
After the run, the machine's counters and cache / predictor
statistics are written back, the run state's ``complete`` and
``forward`` become the kernel's own arrays, and an attached tracer
receives the run's lifecycle events in order.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import uuid
import warnings
import weakref
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Opcode
from repro.predict import GshareTaskPredictor, HybridTaskPredictor
from repro.sim.breakdown import REASONS
from repro.sim.config import ForwardPolicy
from repro.sim.packed import OPCLASS_ID
from repro.sim.taskstream import T_COLS

SOURCE = Path(__file__).with_name("native.c")
#: compiler command; the output and source paths are appended
COMMAND: Tuple[str, ...] = ("cc", "-O2", "-std=c99", "-shared", "-fPIC")

# Layouts shared with native.c (its P_*, B_*, L_*, LI_*, LO_*, T_*,
# O_* enums).
_N_BUFS, _N_TRACE_BUFS = 24, 15
_N_LIN = 10
_LO_N_PROD, _LO_GSHARE_MISPREDICTIONS, _N_LOUT = range(3)
_LOWER_NO_MEMORY = 1
_KIND_LOAD, _KIND_STORE, _KIND_COND = 1, 2, 4
_POLICY = {"schedule": 0, "eager": 1, "lazy": 2}
_O_STATUS, _O_CYCLE = 0, 1  # then machine scalars, as in _write_back
_O_REASONS = 17
_O_CACHE = _O_REASONS + len(REASONS)
_O_PRED = _O_CACHE + 6
_O_RAS_OVERFLOWS = _O_PRED + 9
_O_N_EVENTS, _O_N_DEPTHS, _O_N_SYNC, _O_N_RAS, _O_N_LEARNS = range(
    _O_RAS_OVERFLOWS + 1, _O_RAS_OVERFLOWS + 6
)
_N_OUT = _O_N_LEARNS + 1
_EV_WORDS = 7
_COPY_EVENTS, _COPY_DEPTHS, _COPY_SYNC, _COPY_RAS, _COPY_LEARNS = range(5)
#: breakdown.REASONS order the kernel's R_* slots assume
_SLOTS = ("USEFUL", "TASK_START", "TASK_END", "INTRA_DEP", "INTER_COMM",
          "MEMORY", "SYNC_WAIT", "FETCH", "LOAD_IMBALANCE", "IDLE")

#: the loaded kernel; None until first use, False once it has failed
_kernel = None


def digest() -> str:
    """Digest of the kernel source and the compiler command."""
    sha = hashlib.sha256(SOURCE.read_bytes())
    sha.update("\0".join(COMMAND).encode("utf-8"))
    return sha.hexdigest()[:32]


def library_path() -> Path:
    """Where the kernel is (or will be) built."""
    from repro.harness.cache import default_cache_root

    return default_cache_root() / "native" / f"{digest()}.so"


def _build(path: Path) -> None:
    """Compile the kernel to ``path``: a private temp file, then an
    atomic rename, so concurrent builders never see a torn library."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    try:
        proc = subprocess.run(
            [*COMMAND, "-o", str(tmp), str(SOURCE)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise OSError(
                f"{COMMAND[0]} exited {proc.returncode}: "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def kernel():
    """The loaded kernel library, or None when it cannot be had.

    Built on first use and memoized per process; a failure warns once.
    """
    global _kernel
    if _kernel is None:
        import ctypes

        try:
            if tuple(r.name for r in REASONS) != _SLOTS:
                raise OSError("breakdown.REASONS order changed")
            path = library_path()
            if not path.exists():
                _build(path)
            lib = ctypes.CDLL(str(path))
            lib.ms_lower.restype = ctypes.c_int
            lib.ms_lower.argtypes = [ctypes.c_void_p] * 4
            lib.ms_run.restype = ctypes.c_void_p
            lib.ms_run.argtypes = [ctypes.c_void_p] * 4
            lib.ms_copy.restype = None
            lib.ms_copy.argtypes = [ctypes.c_void_p, ctypes.c_int,
                                    ctypes.c_void_p]
            lib.ms_free.restype = None
            lib.ms_free.argtypes = [ctypes.c_void_p]
            _kernel = lib
        except OSError as exc:
            _kernel = False
            warnings.warn(
                f"native cycle loop unavailable ({exc}); "
                f"engine='fast' runs the Python loop",
                RuntimeWarning, stacklevel=2,
            )
    return _kernel or None


def loop_name() -> str:
    """Which loop runs ``engine="fast"`` in this process."""
    return "native" if kernel() is not None else "python"


# ------------------------------------------------------------- buffers

#: Trace -> its Lowering
_lowerings: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


#: the lowering's one-byte-per-instruction buffers
_BYTE_FIELDS = (
    "opcls", "is_load", "is_store", "is_mem", "is_cond_branch",
    "block_start", "has_write", "gshare_mispred", "issue_simple",
)


class Lowering:
    """The per-instruction buffers ``ms_lower`` fills for one trace.

    The fields are native.c's trace buffers, in its ``B_*`` order.
    Each equals the :class:`~repro.sim.packed.TraceArrays` field of the
    same name, except that ``prod_off`` and ``prod`` hold its
    ``producers`` as CSR (an offsets array plus a flat index array).
    """

    FIELDS = _BYTE_FIELDS + (
        "pc", "addr", "latency", "mem_producer", "prod_off", "prod",
    )

    def __init__(self, n: int, prod_capacity: int) -> None:
        self.n = n
        for name in _BYTE_FIELDS:
            setattr(self, name, bytearray(n))
        self.pc = array("q", bytes(8 * n))
        self.addr = array("q", bytes(8 * n))
        self.latency = array("i", bytes(4 * n))
        self.mem_producer = array("i", bytes(4 * n))
        self.prod_off = array("i", bytes(4 * (n + 1)))
        self.prod = array("i", bytes(4 * prod_capacity))
        self.gshare_predictions = 0
        self.gshare_mispredictions = 0

    @property
    def gshare_accuracy(self) -> float:
        """As :attr:`~repro.predict.GsharePredictor.accuracy`."""
        if self.gshare_predictions == 0:
            return 1.0
        return 1.0 - self.gshare_mispredictions / self.gshare_predictions

    def buffers(self) -> Tuple:
        """The buffers, in :attr:`FIELDS` order."""
        return tuple(getattr(self, name) for name in self.FIELDS)


def _address(buf, views: List) -> Optional[int]:
    """``buf``'s data address (None when absent or empty); a
    bytearray's ctypes view is kept in ``views`` while the caller
    needs the address."""
    import ctypes

    if buf is None or not len(buf):
        return None
    if isinstance(buf, array):
        return buf.buffer_info()[0]
    view = (ctypes.c_char * len(buf)).from_buffer(buf)
    views.append(view)
    return ctypes.addressof(view)


def _static_tables(program) -> Tuple:
    """Per-pc columns of ``program``'s static instructions: opcode
    class, kind bits, latency, written register (-1: none), the
    registers read as CSR, the register count and the most registers
    one instruction reads.  Register names are interned to dense ids.
    """
    regs: Dict[str, int] = {}
    opcls, kind = bytearray(), bytearray()
    latency, write = array("i"), array("i")
    read_off, reads = array("i", [0]), array("i")
    max_reads = 0
    # Pcs run in layout order, one per instruction and one for an
    # empty block (Program._assign_pcs).
    for func in program.functions():
        for blk in func.blocks():
            for ins in blk.instructions or (None,):
                if ins is None:
                    opcls.append(0)
                    kind.append(0)
                    latency.append(0)
                    write.append(-1)
                    read_off.append(len(reads))
                    continue
                op = ins.opcode
                opcls.append(OPCLASS_ID[op.op_class])
                kind.append(
                    _KIND_LOAD if op is Opcode.LOAD
                    else _KIND_STORE if op is Opcode.STORE
                    else _KIND_COND if op.is_branch
                    else 0
                )
                latency.append(op.latency)
                write.append(
                    -1 if ins.writes is None
                    else regs.setdefault(ins.writes, len(regs))
                )
                for name in ins.reads:
                    reads.append(regs.setdefault(name, len(regs)))
                read_off.append(len(reads))
                max_reads = max(max_reads, len(ins.reads))
    return opcls, kind, latency, write, read_off, reads, len(regs), max_reads


def lowering(trace) -> Optional[Lowering]:
    """``trace``'s kernel buffers, lowered on first use and kept for
    the trace's lifetime; None when the kernel is unavailable."""
    low = _lowerings.get(trace)
    if low is None:
        lib = kernel()
        if lib is None:
            return None
        low = _lowerings[trace] = _lower(lib, trace)
    return low


def _lower(lib, trace) -> Lowering:
    *tables, n_regs, max_reads = _static_tables(trace.program)
    n = len(trace)
    columns = (
        array("q", [start for start, _ in trace.block_entries]),
        array("q", trace.entry_pcs),
        array("q", trace.mem_addrs),
        trace.taken,
    )
    low = Lowering(n, n * max_reads)
    lparams = array("q", [n, len(columns[0]), len(tables[0]), n_regs,
                          len(columns[2]), len(columns[3]), len(low.prod)])
    views: List = []
    lin = _pointers(views, (*columns, *tables), _N_LIN)
    bufs = _pointers(views, low.buffers(), _N_TRACE_BUFS)
    lout = array("q", bytes(8 * _N_LOUT))
    status = lib.ms_lower(lparams.buffer_info()[0], lin, bufs,
                          lout.buffer_info()[0])
    del views
    if status == _LOWER_NO_MEMORY:
        raise MemoryError("native trace lowering: out of memory")
    if status:
        raise ValueError(
            "native trace lowering: the trace's columns disagree with "
            "its program"
        )
    del low.prod[lout[_LO_N_PROD]:]
    low.gshare_predictions = len(trace.taken)
    low.gshare_mispredictions = lout[_LO_GSHARE_MISPREDICTIONS]
    return low


def _pointers(views: List, bufs, count: int):
    """A ``void *[count]`` of ``bufs``' addresses (see :func:`_address`)."""
    import ctypes

    if len(bufs) != count:
        raise ValueError(f"native: {len(bufs)} buffers, expected {count}")
    return (ctypes.c_void_p * count)(*(_address(buf, views) for buf in bufs))


def _predictor_kind(predictor) -> int:
    if isinstance(predictor, HybridTaskPredictor):
        return 2
    if isinstance(predictor, GshareTaskPredictor):
        return 1
    return 0


def _params(machine) -> array:
    config = machine.config

    def words_per_line(cache) -> int:
        return max(1, cache.line_bytes // config.word_bytes)

    return array("q", [
        len(machine.stream.trace),
        len(machine.stream.tasks),
        config.n_pus,
        int(config.out_of_order),
        config.rob_size,
        config.issue_list_size,
        config.task_start_overhead,
        config.task_end_overhead,
        config.branch_mispredict_penalty,
        config.task_mispredict_redirect,
        config.ring_bandwidth,
        config.ring_hop_latency,
        _POLICY[config.forward_policy.value],
        config.release_lag,
        config.arb_latency,
        config.arb_entries_per_pu,
        config.stlf_latency,
        config.sync_table_size,
        config.l1d.sets, config.l1d.assoc, config.l1d.hit_latency,
        words_per_line(config.l1d),
        config.l1i.sets, config.l1i.assoc, config.l1i.hit_latency,
        words_per_line(config.l1i),
        config.l2.sets, config.l2.assoc, config.l2.hit_latency,
        config.memory_latency,
        config.max_cycles,
        _predictor_kind(machine.predictor),
        int(machine.tracer is not None),
    ])


def _pu_params(machine) -> array:
    words: List[int] = []
    for pu in machine.pus:
        words += [pu.issue_width, pu.fetch_width, *pu._fu_budget,
                  *pu.lat_extra]
    return array("q", words)


# ----------------------------------------------------------------- run


def run(machine) -> Optional[int]:
    """Run ``machine`` to completion on the kernel; the cycle count, or
    None when the kernel is unavailable (the caller runs ``_tick``)."""
    lib = kernel()
    if lib is None:
        return None
    stream = machine.stream
    state = machine.state
    low = lowering(stream.trace)
    n = low.n
    tasks, roots = stream.table, stream.roots
    release = None
    if machine.config.forward_policy is ForwardPolicy.SCHEDULE:
        release = stream.schedule_release(state.release_analysis)
    has_remote = bytearray(n)
    complete = array("q", bytes(8 * n))
    forward = array("q", bytes(8 * n))
    generation = array("q", state.generation)
    pu_of_seq = array("q", state.pu_of_seq)
    pu_useful = array("q", machine._pu_useful)
    pu_occupied = array("q", machine._pu_occupied)
    n_tasks = len(stream.tasks)
    if (len(tasks) != T_COLS * n_tasks
            or (release is not None and len(release) != n)
            or len(generation) != n_tasks or len(pu_of_seq) != n_tasks):
        raise ValueError("native cycle loop: array sizes disagree")
    views: List = []
    bufs = _pointers(views, (
        *low.buffers(), release, has_remote, tasks,
        complete, forward, generation, pu_of_seq, pu_useful, pu_occupied,
    ), _N_BUFS)
    params = _params(machine)
    pu_params = _pu_params(machine)
    out = array("q", bytes(8 * _N_OUT))
    handle = lib.ms_run(params.buffer_info()[0], pu_params.buffer_info()[0],
                        bufs, out.buffer_info()[0])
    del views
    if not handle:
        raise MemoryError("native cycle loop: out of memory")
    try:
        def copy(what: int, words: int) -> array:
            dst = array("q", bytes(8 * words))
            if words:
                lib.ms_copy(handle, what, dst.buffer_info()[0])
            return dst

        events = copy(_COPY_EVENTS, _EV_WORDS * out[_O_N_EVENTS])
        depths = copy(_COPY_DEPTHS, out[_O_N_DEPTHS])
        sync = copy(_COPY_SYNC, 2 * out[_O_N_SYNC])
        ras = copy(_COPY_RAS, out[_O_N_RAS])
        learns = copy(_COPY_LEARNS, 2 * out[_O_N_LEARNS])
    finally:
        lib.ms_free(handle)

    _write_back(machine, out, depths, sync, learns, ras, roots)
    # The kernel's arrays themselves: copying them into the run
    # state's lists would allocate 2n Python ints nothing reads.
    state.complete = complete
    state.forward = forward
    state.generation[:] = generation
    state.pu_of_seq[:] = pu_of_seq
    state.has_remote_consumer = has_remote
    state.gshare_accuracy = low.gshare_accuracy
    machine._pu_useful[:] = pu_useful
    machine._pu_occupied[:] = pu_occupied
    if machine.tracer is not None:
        _replay(machine.tracer, events)
    cycle = out[_O_CYCLE]
    if out[_O_STATUS]:
        raise machine._stuck(
            cycle, f"exceeded {machine.config.max_cycles} cycles"
        )
    return cycle


def _write_back(machine, out, depths, sync, learns, ras, roots) -> None:
    """Leave ``machine`` reading as it would after a ``_tick`` run."""
    (machine.retire_seq, machine.next_seq, machine.next_assign_pu,
     machine.resume_cycle, pending, machine.task_predictions,
     machine.task_mispredictions, machine.control_squashes,
     machine.memory_squashes) = out[2:11]
    machine.pending_mispredict = None if pending < 0 else pending
    breakdown = machine.breakdown
    breakdown.control_misspeculation += out[11]
    breakdown.memory_misspeculation += out[12]
    machine._idle_accum += out[13]
    machine._span_accum += out[14]
    machine._active_span = out[15]
    machine._retire_finish = out[16]
    accum = machine._reason_accum
    for slot in range(len(accum)):
        accum[slot] += out[_O_REASONS + slot]
    hierarchy = machine.hierarchy
    for k, cache in enumerate((hierarchy.l1d, hierarchy.l1i, hierarchy.l2)):
        cache.hits = out[_O_CACHE + 2 * k]
        cache.misses = out[_O_CACHE + 2 * k + 1]
    predictor = machine.predictor
    predictions, mispredictions, history = out[_O_PRED:_O_PRED + 3]
    predictor.predictions = predictions
    predictor.mispredictions = mispredictions
    if isinstance(predictor, HybridTaskPredictor):
        for k, part in enumerate((predictor.path, predictor.gshare)):
            base = _O_PRED + 3 + 3 * k
            part.predictions, part.mispredictions, part.history = (
                out[base:base + 3]
            )
    else:
        predictor.history = history
    machine.ras.overflows = out[_O_RAS_OVERFLOWS]
    machine.ras._stack = [roots[i] for i in ras]
    machine.squash_depths.extend(depths)
    # Every learned pair goes through _learn_sync, in order, as in a
    # _tick run (subclasses hook it); the table then takes the kernel's
    # final LRU state, which also reflects the issue scans' touches.
    for k in range(0, len(learns), 2):
        machine._learn_sync(learns[k], learns[k + 1])
    machine.sync_pairs = OrderedDict(
        ((sync[k], sync[k + 1]), None) for k in range(0, len(sync), 2)
    )


def _replay(tracer, events: array) -> None:
    """Call ``tracer``'s hooks with the kernel's events, in order."""
    hooks = (
        lambda e: tracer.on_assign(e[1], e[2], e[3]),
        lambda e: tracer.on_wrong_assign(e[1], e[2]),
        lambda e: tracer.on_task_mispredict(e[1], e[2]),
        lambda e: tracer.on_branch_mispredict(e[1], e[2], e[3], e[4]),
        lambda e: tracer.on_arb_violation(e[1], e[2]),
        lambda e: tracer.on_squash(e[1], e[2], e[3], e[4], bool(e[5]),
                                   e[6]),
        lambda e: tracer.on_wrong_squash(e[1], e[2], e[3]),
        lambda e: tracer.on_commit_start(e[1], e[2], e[3]),
        lambda e: tracer.on_retire(e[1], e[2], e[3], e[4], e[5]),
    )
    for k in range(0, len(events), _EV_WORDS):
        event = events[k:k + _EV_WORDS]
        hooks[event[0]](event)


__all__ = ["COMMAND", "SOURCE", "Lowering", "digest", "kernel",
           "library_path", "loop_name", "lowering", "run"]
