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

The kernel reads the trace's and the stream's packed arrays in place.
The few that are Python lists (latencies, producers, task spans and
targets) are lowered to ``array`` buffers once per trace and once per
stream, and kept in weak-keyed side tables, so they are never pickled
with a compiled artifact.  After the run, the machine's counters,
per-run arrays and cache / predictor statistics are written back, and
an attached tracer receives the run's lifecycle events in order.
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
from itertools import accumulate, chain
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.compiler.task import TargetKind
from repro.predict import GshareTaskPredictor, HybridTaskPredictor
from repro.sim.breakdown import REASONS

SOURCE = Path(__file__).with_name("native.c")
#: compiler command; the output and source paths are appended
COMMAND: Tuple[str, ...] = ("cc", "-O2", "-std=c99", "-shared", "-fPIC")

# Layouts shared with native.c (its P_*, B_*, T_*, O_* enums).
_N_BUFS = 24
_T_COLS = 7
_KIND = {TargetKind.CALL: 1, TargetKind.RETURN: 2}
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

#: TraceArrays -> (latency, mem_producer, producer offsets, producers)
_trace_buffers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
#: PackedTrace -> (per-task columns, interned roots by id)
_stream_buffers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _trace_arrays(arrays) -> Tuple[array, ...]:
    bufs = _trace_buffers.get(arrays)
    if bufs is None:
        producers = arrays.producers
        bufs = _trace_buffers[arrays] = (
            array("i", arrays.latency),
            array("i", arrays.mem_producer),
            array("i", accumulate(map(len, producers), initial=0)),
            array("i", chain.from_iterable(producers)),
        )
    return bufs


def _stream_arrays(machine) -> Tuple[array, List]:
    stream = machine.stream
    packed = stream.packed
    bufs = _stream_buffers.get(packed)
    if bufs is None:
        program = stream.partition.program
        roots: Dict = {}
        pcs: Dict = {}

        def intern(root) -> int:
            if root is None:
                return -1
            return roots.setdefault(root, len(roots))

        columns = array("q", bytes(8 * _T_COLS * len(stream.tasks)))
        for seq, dyn in enumerate(stream.tasks):
            row = seq * _T_COLS
            columns[row] = dyn.start
            columns[row + 1] = dyn.end
            if dyn.target is None:
                continue  # final task: no successor to predict
            root = dyn.task.root
            pc = pcs.get(root)
            if pc is None:
                pc = pcs[root] = program.block_pc(root)
            kind = _KIND.get(dyn.target.kind, 3)
            columns[row + 2] = pc
            columns[row + 3] = dyn.target_index
            columns[row + 4] = kind
            columns[row + 5] = intern(dyn.next_root)
            columns[row + 6] = (
                intern(machine._continuation_root(seq)) if kind == 1 else -1
            )
        bufs = _stream_buffers[packed] = (columns, list(roots))
    return bufs


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
        machine.stream.packed.n,
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
    import ctypes

    state = machine.state
    packed = machine.stream.packed
    arrays = packed.arrays
    n = packed.n
    latency, mem_producer, prod_off, prod = _trace_arrays(arrays)
    tasks, roots = _stream_arrays(machine)
    complete = array("q", bytes(8 * n))
    forward = array("q", bytes(8 * n))
    generation = array("q", state.generation)
    pu_of_seq = array("q", state.pu_of_seq)
    pu_useful = array("q", machine._pu_useful)
    pu_occupied = array("q", machine._pu_occupied)
    per_inst = (
        arrays.opcls, arrays.is_load, arrays.is_store, arrays.is_mem,
        arrays.is_cond_branch, arrays.block_start, arrays.has_write,
        arrays.gshare_mispred, arrays.issue_simple,
        packed.has_remote_consumer, state.release_now,
        arrays.pc, arrays.addr, latency, mem_producer,
    )
    n_tasks = len(machine.stream.tasks)
    if (any(len(buf) != n for buf in per_inst)
            or len(prod_off) != n + 1 or len(prod) != prod_off[-1]
            or len(tasks) != _T_COLS * n_tasks
            or len(generation) != n_tasks or len(pu_of_seq) != n_tasks):
        raise ValueError("native cycle loop: packed array sizes disagree")
    views = []

    def address(buf) -> Optional[int]:
        if not len(buf):
            return None
        if isinstance(buf, array):
            return buf.buffer_info()[0]
        view = (ctypes.c_char * len(buf)).from_buffer(buf)
        views.append(view)
        return ctypes.addressof(view)

    bufs = (ctypes.c_void_p * _N_BUFS)(*map(address, (
        *per_inst, prod_off, prod, tasks,
        complete, forward, generation, pu_of_seq, pu_useful, pu_occupied,
    )))
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
    state.complete[:] = complete
    state.forward[:] = forward
    state.generation[:] = generation
    state.pu_of_seq[:] = pu_of_seq
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


__all__ = ["COMMAND", "SOURCE", "digest", "kernel", "library_path",
           "loop_name", "run"]
