"""Loader and driver of the native kernel (``native.c``).

The kernel does three jobs:

* **Functional interpretation.**  :func:`interpret` runs a program in
  ``ms_interp`` and builds its :class:`~repro.ir.interp.Trace` from
  the recorded columns (the instruction count, the block entries with
  their start pcs, the memory addresses, the branch outcomes), with
  the column types the Python :class:`~repro.ir.interp.Interpreter`
  records.  :func:`~repro.ir.interp.run_program` uses it whenever the
  kernel loads.  It returns None (and ``run_program`` runs the
  reference ``Interpreter``) when the program needs a value the
  kernel cannot reproduce exactly, such as an int64 overflow, int()
  of a NaN, infinite or out-of-range float or an int-versus-float
  compare beyond 2^53, or when the reference raises; past the
  instruction limit it raises
  :class:`~repro.ir.interp.ExecutionLimitExceeded` itself.
* **Lowering.**  :func:`lowering` hands ``ms_lower`` the trace's flat
  columns and fills every per-instruction buffer the cycle loop reads
  (a :class:`Lowering`), once per trace, kept in a weak-keyed side
  table so it dies with its trace and is never pickled with a
  compiled artifact.  Both jobs read one static :class:`Encoding` of
  the program (per-pc, per-block and per-register tables); a trace
  the kernel recorded keeps its encoding until it is lowered.
  :func:`release_flags` copies a stream's SCHEDULE release masks into
  every block entry in ``ms_release``.
* **The cycle loop.**  ``engine="fast"`` runs :func:`run`, a C port of
  :meth:`~repro.sim.machine.MultiscalarMachine._tick`, unless a
  monitor or a fault plan is attached (both read or mutate live
  machine state, so those runs take ``_tick``).  Unlike ``_tick`` it
  does not re-run an issue scan that can only issue nothing again: a
  PU whose scan issued nothing sleeps until a known cycle or an event
  can change the outcome.  The per-task table is
  the stream's own (:attr:`~repro.sim.taskstream.TaskStream.table`).
  So a kernel run builds no per-instruction or per-task Python object:
  neither the Python packing (:mod:`repro.sim.packed`), the reference
  loop's input, nor the trace's ``DynInst`` view nor the stream's
  ``DynTask`` view.  After the run, the machine's counters and cache /
  predictor statistics are written back, the sync table takes the
  kernel's final LRU order (the kernel fills its own table in C, so
  ``_learn_sync`` runs only under ``_tick``), the run state's
  ``complete`` and ``forward`` become the kernel's own arrays, a
  traced machine's ``events`` becomes the kernel's lifecycle log, and
  ``machine.kernel_counters`` holds the kernel's scan counters
  (:data:`KERNEL_COUNTERS`).

The kernel is built with the system C compiler on first use into
``<artifact cache root>/native/<digest>.so`` (the digest covers the
source and the compiler command) and loaded through :mod:`ctypes`,
once per process.  When the build or the load fails, one
``RuntimeWarning`` names the error; programs are then interpreted in
Python and ``fast`` runs ``_tick``.
"""

from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import uuid
import warnings
import weakref
from array import array
from collections import OrderedDict
from itertools import accumulate
from operator import sub
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.ir.instructions import Opcode
from repro.ir.interp import ExecutionLimitExceeded, Trace
from repro.predict import GshareTaskPredictor, HybridTaskPredictor
from repro.sim.breakdown import REASONS
from repro.sim.config import ForwardPolicy
from repro.sim.packed import OPCLASS_ID
from repro.sim.taskstream import T_COLS

SOURCE = Path(__file__).with_name("native.c")
#: compiler command; the output and source paths are appended
COMMAND: Tuple[str, ...] = ("cc", "-O2", "-std=c99", "-shared", "-fPIC")

# Layouts shared with native.c (its P_*, B_*, L_*, LI_*, LO_*, T_*,
# O_*, IP_*, IB_*, IO_*, IC_*, RP_*, RB_* and EV_* enums);
# tests/test_native.py checks each mirror against the C source.
_N_BUFS, _N_TRACE_BUFS = 23, 14
_N_LIN = 10
_N_IBUFS = 14
_IO_STATUS, _IO_N, _IO_N_ENTRIES, _IO_N_MEM, _IO_N_BRANCHES, _N_IOUT = (
    range(6))
_INTERP_OK, _INTERP_LIMIT = 0, 1
_IC_ENTRY_START, _IC_ENTRY_BLOCK, _IC_ENTRY_PC, _IC_MEM_ADDR, _IC_TAKEN = (
    range(5))
_N_RBUFS = 9
_LO_N_PROD, _LO_GSHARE_MISPREDICTIONS, _N_LOUT = range(3)
_LOWER_NO_MEMORY = 1
_KIND_LOAD, _KIND_STORE, _KIND_COND = 1, 2, 4
_POLICY = {"schedule": 0, "eager": 1, "lazy": 2}
# out[_O_RETIRE_SEQ:_O_REASONS] are the machine scalars _write_back reads
_O_STATUS, _O_CYCLE, _O_RETIRE_SEQ = 0, 1, 2
_O_REASONS = 17
_O_CACHE = _O_REASONS + len(REASONS)
_O_PRED = _O_CACHE + 6
_O_RAS_OVERFLOWS = _O_PRED + 9
_O_N_EVENTS, _O_N_DEPTHS, _O_N_SYNC, _O_N_RAS = range(
    _O_RAS_OVERFLOWS + 1, _O_RAS_OVERFLOWS + 5
)
_O_COUNTERS = _O_N_RAS + 1
#: the kernel's scan counters (its C_* slots), the keys of a machine's
#: ``kernel_counters``: PU-cycles by state, then the issue scans run,
#: those that issued nothing, the visits that skipped a scan asleep and
#: the window entries the scans examined
KERNEL_COUNTERS = (
    "wrong_path", "idle", "retiring", "done", "active",
    "scans", "fruitless_scans", "skipped_asleep", "entries_examined",
)
_N_OUT = _O_COUNTERS + len(KERNEL_COUNTERS)
#: the lifecycle record kinds (its EV_*).  A record is EV_WORDS int64
#: words: the kind, then the kind's fields, zero-padded (DESIGN.md
#: §10 lists them); ``_tick`` and the kernel write the same records.
(EV_ASSIGN, EV_WRONG_ASSIGN, EV_TASK_MISPREDICT, EV_BRANCH_MISPREDICT,
 EV_ARB_VIOLATION, EV_SQUASH, EV_WRONG_SQUASH, EV_COMMIT,
 EV_RETIRE) = range(9)
EV_WORDS = 7
_COPY_EVENTS, _COPY_DEPTHS, _COPY_SYNC, _COPY_RAS = range(4)
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
            lib.ms_interp.restype = ctypes.c_void_p
            lib.ms_interp.argtypes = [ctypes.c_void_p] * 3
            lib.ms_interp_copy.restype = None
            lib.ms_interp_copy.argtypes = [ctypes.c_void_p, ctypes.c_int,
                                           ctypes.c_void_p]
            lib.ms_interp_free.restype = None
            lib.ms_interp_free.argtypes = [ctypes.c_void_p]
            lib.ms_lower.restype = ctypes.c_int
            lib.ms_lower.argtypes = [ctypes.c_void_p] * 4
            lib.ms_release.restype = ctypes.c_int
            lib.ms_release.argtypes = [ctypes.c_void_p] * 2
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
                f"native kernel unavailable ({exc}); programs are "
                f"interpreted in Python and engine='fast' runs the "
                f"Python loop",
                RuntimeWarning, stacklevel=2,
            )
    return _kernel or None


def loop_name() -> str:
    """Which loop runs ``engine="fast"`` in this process."""
    return "native" if kernel() is not None else "python"


# ------------------------------------------------------------- buffers

#: Trace -> its Lowering
_lowerings: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
#: Trace recorded by the kernel -> its program's Encoding, until the
#: trace is lowered
_encodings: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


#: the lowering's one-byte-per-instruction buffers
_BYTE_FIELDS = (
    "opcls", "is_load", "is_store", "is_mem", "is_cond_branch",
    "block_start", "has_write", "gshare_mispred",
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
    """``buf``'s data address (None when absent or empty); ``buf`` (or,
    for a bytearray, its ctypes view) is kept in ``views`` while the
    caller needs the address."""
    import ctypes

    if buf is None or not len(buf):
        return None
    if isinstance(buf, array):
        views.append(buf)
        return buf.buffer_info()[0]
    view = ctypes.c_char.from_buffer(buf)
    views.append(view)
    return ctypes.addressof(view)


#: native.c's OP_* codes
(_OP_BAD, _OP_ADD, _OP_SUB, _OP_MUL, _OP_DIV, _OP_REM, _OP_AND, _OP_OR,
 _OP_XOR, _OP_SHL, _OP_SHR, _OP_SLT, _OP_SLE, _OP_SEQ, _OP_SNE, _OP_FADD,
 _OP_FSUB, _OP_FMUL, _OP_FDIV, _OP_LI, _OP_MOV, _OP_CVTFI, _OP_LOAD,
 _OP_STORE, _OP_BEQZ, _OP_BNEZ, _OP_JUMP, _OP_CALL, _OP_RET,
 _OP_HALT) = range(30)
_IMM_NONE, _IMM_INT, _IMM_FLOAT = range(3)
#: Opcode -> (OP_* code, the operands its encoding reads: "ab" two
#: sources or a source and an immediate, "a" one source, "i" an
#: immediate, "m" a memory operand, "t" a target block, "c" a callee,
#: "" none).  LI covers FLI, and MOV covers FMOV and CVTIF: the
#: conversion is the destination register's.
_INTERP = {
    Opcode.ADD: (_OP_ADD, "ab"), Opcode.SUB: (_OP_SUB, "ab"),
    Opcode.MUL: (_OP_MUL, "ab"), Opcode.DIV: (_OP_DIV, "ab"),
    Opcode.REM: (_OP_REM, "ab"), Opcode.AND: (_OP_AND, "ab"),
    Opcode.OR: (_OP_OR, "ab"), Opcode.XOR: (_OP_XOR, "ab"),
    Opcode.SHL: (_OP_SHL, "ab"), Opcode.SHR: (_OP_SHR, "ab"),
    Opcode.SLT: (_OP_SLT, "ab"), Opcode.SLE: (_OP_SLE, "ab"),
    Opcode.SEQ: (_OP_SEQ, "ab"), Opcode.SNE: (_OP_SNE, "ab"),
    Opcode.FADD: (_OP_FADD, "ab"), Opcode.FSUB: (_OP_FSUB, "ab"),
    Opcode.FMUL: (_OP_FMUL, "ab"), Opcode.FDIV: (_OP_FDIV, "ab"),
    Opcode.LI: (_OP_LI, "i"), Opcode.FLI: (_OP_LI, "i"),
    Opcode.MOV: (_OP_MOV, "a"), Opcode.FMOV: (_OP_MOV, "a"),
    Opcode.CVTIF: (_OP_MOV, "a"), Opcode.CVTFI: (_OP_CVTFI, "a"),
    Opcode.LOAD: (_OP_LOAD, "m"), Opcode.STORE: (_OP_STORE, "m"),
    Opcode.BEQZ: (_OP_BEQZ, "at"), Opcode.BNEZ: (_OP_BNEZ, "at"),
    Opcode.JUMP: (_OP_JUMP, "t"), Opcode.CALL: (_OP_CALL, "c"),
    Opcode.RET: (_OP_RET, ""), Opcode.HALT: (_OP_HALT, ""),
}
#: mnemonic -> (OP_* code, operand shape, opcode class id, kind bits,
#: latency).  Keyed by ``Opcode._value_``: a str key hashes in C, where
#: an Opcode key pays a Python-level ``Enum.__hash__`` and
#: ``Opcode.value`` a Python-level property, a quarter of a
#: microsecond each per static instruction.
_OP_INFO = {
    op._value_: (*_INTERP[op], OPCLASS_ID[op.op_class],
                 _KIND_LOAD if op is Opcode.LOAD
                 else _KIND_STORE if op is Opcode.STORE
                 else _KIND_COND if op.is_branch else 0,
                 op.latency)
    for op in Opcode
}
_INT64 = range(-(1 << 63), 1 << 63)
_DOUBLE = struct.Struct("d")
_BITS = struct.Struct("q")
_BAD = (_OP_BAD, -1, -1, _IMM_NONE, 0, -1)


def _immediate(value) -> Optional[Tuple[int, int]]:
    """``(kind, bits)`` of an ALU or LI immediate; None when it is not
    an int64 or a float (the kernel cannot compute with it)."""
    if type(value) is float:
        return _IMM_FLOAT, _BITS.unpack(_DOUBLE.pack(value))[0]
    if type(value) in (int, bool) and value in _INT64:
        return _IMM_INT, int(value)
    return None


def _memory_image(image) -> Optional[Tuple[array, array, array]]:
    """The memory image as addresses, value bits and float flags; None
    when an address is not an int64 or a value neither an int64 nor a
    float."""
    values = list(image.values())
    types = set(map(type, values))
    try:
        addrs = array("q", list(image))
        if types <= {int, bool}:
            return addrs, array("q", values), array("B", bytes(len(values)))
    except (TypeError, OverflowError):
        return None
    bits = array("q")
    if types == {float}:
        bits.frombytes(array("d", values).tobytes())
        return addrs, bits, array("B", b"\x01" * len(values))
    fp = array("B")
    for value in values:
        imm = _immediate(value)
        if imm is None:
            return None
        fp.append(imm[0] == _IMM_FLOAT)
        bits.append(imm[1])
    return addrs, bits, fp


class Encoding:
    """One program's static encoding, read by ``ms_interp`` and
    ``ms_lower``.

    Per pc (one per instruction and one per empty block, in layout
    order, as ``Program._assign_pcs``): the lowering's opcode class,
    kind bits, latency, written register (-1: none) and registers read
    (CSR, ``r0`` left out), and the interpreter's opcode, sources (-1:
    none; ``r0`` is a register nothing writes), immediate kind and bits
    and target block.  Per block, in layout order (:attr:`blocks` holds
    their ids): the first pc, the length and the fallthrough block (-1:
    none).  Per register: 1 for an fp register.  Register names are
    interned to dense ids.  :attr:`memory` is the initial memory image
    (addresses, value bits, float flags), or None when the kernel
    cannot hold one of its words.

    An instruction the kernel cannot run as the reference does (an
    operand missing or not a register name, an immediate that is not
    an int64 or a float, a CALL without a continuation) is encoded as
    ``OP_BAD``, and executing it hands the program to the reference.
    """

    def __init__(self, program) -> None:
        regs: Dict[str, int] = {}
        self.reg_fp = reg_fp = array("B")

        def reg(name) -> int:
            rid = regs.get(name)
            if rid is None:
                rid = regs[name] = len(regs)
                reg_fp.append(isinstance(name, str) and name[:1] == "f")
            return rid

        def source(name) -> int:
            # The reference reads ``name[0]``: a name must be a str.
            if type(name) is not str or not name:
                raise TypeError(name)
            return reg(name)

        self.blocks: List = []
        block_ids: Dict = {}
        for func in program.functions():
            for blk in func.blocks():
                block_ids[(func.name, blk.label)] = len(self.blocks)
                self.blocks.append((func.name, blk.label))
        self.block_pc, self.block_len = array("q"), array("i")
        self.block_fall = array("i")
        self.read_off, self.reads = array("i", [0]), array("i")
        rows: List[Tuple] = []
        empty = (0, 0, 0, -1) + _BAD
        for func in program.functions():
            for blk in func.blocks():
                instructions = blk.instructions
                self.block_pc.append(len(rows))
                self.block_len.append(len(instructions))
                self.block_fall.append(block_ids.get(
                    (func.name, blk.fallthrough), -1
                ))
                if not instructions:
                    rows.append(empty)
                    self.read_off.append(len(self.reads))
                    continue
                for ins in instructions:
                    code, shape, *lowered = _OP_INFO[ins.opcode._value_]
                    writes = ins.writes
                    try:
                        interp = _interp_columns(
                            ins, code, shape, source, program, func.name,
                            blk, block_ids,
                        )
                    except (TypeError, IndexError, KeyError, ValueError,
                            OverflowError):
                        interp = _BAD
                    rows.append((*lowered,
                                 -1 if writes is None else reg(writes),
                                 *interp))
                    self.reads.extend(map(reg, ins.reads))
                    self.read_off.append(len(self.reads))
        columns = list(zip(*rows))
        self.opcls, self.kind = array("B", columns[0]), array("B", columns[1])
        self.latency = array("i", columns[2])
        self.write = array("i", columns[3])
        self.op = array("B", columns[4])
        self.src0, self.src1 = array("i", columns[5]), array("i", columns[6])
        self.imm_kind = array("B", columns[7])
        self.imm = array("q", columns[8])
        self.target = array("i", columns[9])
        self.max_reads = max(map(sub, self.read_off[1:], self.read_off),
                             default=0)
        self.n_regs = len(regs)
        main = program.main
        self.entry = block_ids[(main.name, main.entry_label)]
        self.memory = _memory_image(program.memory_image)


def _interp_columns(ins, code: int, shape: str, source, program, func: str,
                    blk, block_ids) -> Tuple:
    """``(op, src0, src1, immediate kind, immediate bits, target
    block)`` of ``ins`` for ``ms_interp``; a load's or store's base
    register is src0 and a store's value src1.  Raises where the
    reference would fail on the operands' shape."""
    srcs = ins.srcs
    if shape == "ab" or shape == "a" or shape == "i" or code == _OP_LOAD:
        source(ins.dst)  # a writer: the reference raises on no name
    if shape == "ab":
        if len(srcs) > 1:
            return code, source(srcs[0]), source(srcs[1]), _IMM_NONE, 0, -1
        imm = _immediate(ins.imm)
        return _BAD if imm is None else (code, source(srcs[0]), -1, *imm, -1)
    if shape == "a":
        return code, source(srcs[0]), -1, _IMM_NONE, 0, -1
    if shape == "i":
        imm = _immediate(ins.imm)
        return _BAD if imm is None else (code, -1, -1, *imm, -1)
    if shape == "m":
        # address = int(base) + int(imm or 0): the offset is static.
        offset = int(ins.imm or 0)
        if offset not in _INT64:
            return _BAD
        if code == _OP_LOAD:
            return code, source(srcs[0]), -1, _IMM_INT, offset, -1
        return code, source(srcs[1]), source(srcs[0]), _IMM_INT, offset, -1
    if shape == "at":
        return (code, source(srcs[0]), -1, _IMM_NONE, 0,
                block_ids[(func, ins.target)])
    if shape == "t":
        return code, -1, -1, _IMM_NONE, 0, block_ids[(func, ins.target)]
    if shape == "c":
        callee = program.function(ins.target)
        if blk.fallthrough is None:
            return _BAD
        return (code, -1, -1, _IMM_NONE, 0,
                block_ids[(callee.name, callee.entry_label)])
    return code, -1, -1, _IMM_NONE, 0, -1


def interpret(program, max_instructions: int) -> Optional[Trace]:
    """``program``'s trace, recorded by ``ms_interp``.

    None when the kernel is unavailable, or when the run needs a value
    or raises an error the kernel does not reproduce: the caller then
    runs the reference :class:`~repro.ir.interp.Interpreter`.  Past
    ``max_instructions`` it raises
    :class:`~repro.ir.interp.ExecutionLimitExceeded`, as the reference
    does.
    """
    lib = kernel()
    if lib is None or type(max_instructions) is not int:
        return None
    enc = Encoding(program)
    if enc.memory is None:
        return None
    iparams = array("q", [len(enc.blocks), enc.n_regs, len(enc.memory[0]),
                          enc.entry, min(max_instructions, 1 << 62)])
    views: List = []
    ibufs = _pointers(views, (
        enc.op, enc.imm_kind, enc.write, enc.src0, enc.src1, enc.target,
        enc.imm, enc.block_pc, enc.block_len, enc.block_fall, enc.reg_fp,
        *enc.memory,
    ), _N_IBUFS)
    iout = array("q", bytes(8 * _N_IOUT))
    handle = lib.ms_interp(iparams.buffer_info()[0], ibufs,
                           iout.buffer_info()[0])
    del views
    if not handle:
        raise MemoryError("native interpreter: out of memory")
    try:
        status = iout[_IO_STATUS]
        if status == _INTERP_LIMIT:
            raise ExecutionLimitExceeded(
                f"exceeded {max_instructions} dynamic instructions"
            )
        if status != _INTERP_OK:
            return None
        n_entries = iout[_IO_N_ENTRIES]

        def column(what: int, length: int) -> array:
            dst = array("q", bytes(8 * length))
            if length:
                lib.ms_interp_copy(handle, what, dst.buffer_info()[0])
            return dst

        starts = column(_IC_ENTRY_START, n_entries)
        ids = column(_IC_ENTRY_BLOCK, n_entries)
        pcs = column(_IC_ENTRY_PC, n_entries)
        addrs = column(_IC_MEM_ADDR, iout[_IO_N_MEM])
        taken = bytearray(iout[_IO_N_BRANCHES])
        if taken:
            views = []
            lib.ms_interp_copy(handle, _IC_TAKEN, _address(taken, views))
            del views
    finally:
        lib.ms_interp_free(handle)
    trace = Trace(program)
    trace.n = iout[_IO_N]
    trace.block_entries = list(zip(starts, map(enc.blocks.__getitem__, ids)))
    trace.entry_pcs = pcs.tolist()
    trace.mem_addrs = addrs.tolist()
    trace.taken = taken
    _encodings[trace] = enc
    return trace


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
    enc = _encodings.pop(trace, None) or Encoding(trace.program)
    tables = (enc.opcls, enc.kind, enc.latency, enc.write, enc.read_off,
              enc.reads)
    n = len(trace)
    columns = (
        array("q", [start for start, _ in trace.block_entries]),
        array("q", trace.entry_pcs),
        array("q", trace.mem_addrs),
        trace.taken,
    )
    low = Lowering(n, n * enc.max_reads)
    lparams = array("q", [n, len(columns[0]), len(tables[0]), enc.n_regs,
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


def release_flags(stream, masks: Dict[Tuple[int, int], bytearray]
                  ) -> Optional[bytearray]:
    """``stream``'s SCHEDULE release flags, copied by ``ms_release``
    from ``masks`` (keyed by task root pc and block pc); None when the
    kernel is unavailable."""
    lib = kernel()
    if lib is None:
        return None
    low = lowering(stream.trace)
    keys = list(masks)
    offsets = array("q", accumulate(map(len, masks.values()), initial=0))
    flags = bytearray(low.n)
    rparams = array("q", [low.n, len(stream.table) // T_COLS, len(keys)])
    views: List = []
    rbufs = _pointers(views, (
        stream.table, low.pc, low.block_start, stream.absorbed_flags,
        array("q", [root for root, _ in keys]),
        array("q", [pc for _, pc in keys]),
        offsets, bytearray().join(masks.values()), flags,
    ), _N_RBUFS)
    status = lib.ms_release(rparams.buffer_info()[0], rbufs)
    del views
    if status:
        raise MemoryError("native release flags: out of memory")
    return flags


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
        int(machine.events is not None),
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

        events = copy(_COPY_EVENTS, EV_WORDS * out[_O_N_EVENTS])
        depths = copy(_COPY_DEPTHS, out[_O_N_DEPTHS])
        sync = copy(_COPY_SYNC, 2 * out[_O_N_SYNC])
        ras = copy(_COPY_RAS, out[_O_N_RAS])
    finally:
        lib.ms_free(handle)

    _write_back(machine, out, depths, sync, ras, roots)
    machine.kernel_counters = dict(zip(KERNEL_COUNTERS,
                                       out[_O_COUNTERS:_N_OUT]))
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
    if machine.events is not None:
        machine.events = events
    cycle = out[_O_CYCLE]
    if out[_O_STATUS]:
        raise machine._stuck(
            cycle, f"exceeded {machine.config.max_cycles} cycles"
        )
    return cycle


def _write_back(machine, out, depths, sync, ras, roots) -> None:
    """Leave ``machine`` reading as it would after a ``_tick`` run."""
    (machine.retire_seq, machine.next_seq, machine.next_assign_pu,
     machine.resume_cycle, pending, machine.task_predictions,
     machine.task_mispredictions, machine.control_squashes,
     machine.memory_squashes, control_misspec, memory_misspec, idle, span,
     machine._active_span,
     machine._retire_finish) = out[_O_RETIRE_SEQ:_O_REASONS]
    machine.pending_mispredict = None if pending < 0 else pending
    breakdown = machine.breakdown
    breakdown.control_misspeculation += control_misspec
    breakdown.memory_misspeculation += memory_misspec
    machine._idle_accum += idle
    machine._span_accum += span
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
    # The sync table takes the kernel's final LRU order.
    machine.sync_pairs = OrderedDict(
        ((sync[k], sync[k + 1]), None) for k in range(0, len(sync), 2)
    )


__all__ = ["COMMAND", "EV_ARB_VIOLATION", "EV_ASSIGN",
           "EV_BRANCH_MISPREDICT", "EV_COMMIT", "EV_RETIRE", "EV_SQUASH",
           "EV_TASK_MISPREDICT", "EV_WORDS", "EV_WRONG_ASSIGN",
           "EV_WRONG_SQUASH", "KERNEL_COUNTERS", "SOURCE", "Encoding",
           "Lowering", "digest", "interpret", "kernel", "library_path",
           "loop_name", "lowering", "release_flags", "run"]
