"""Functional execution of IR programs, with dynamic trace capture.

The interpreter is the "functional" half of the classic functional /
timing simulator split: it executes a program exactly (register and
memory values, branch outcomes, effective addresses) and records a
:class:`Trace` — the linear dynamic instruction stream.  The timing
model (``repro.sim``) replays the trace under a task partition, so
timing bugs can never corrupt program semantics.

A trace is recorded as columns, not as one object per instruction:
the block entries with their start pcs, the effective address of
each memory op and the outcome of each conditional branch.  Every
block entry runs its whole block, so everything else about a dynamic
instruction is static and comes from the program.  The profiler, the
stream cut and the native timing model read the columns;
:attr:`Trace.insts` (and indexing or iterating a trace) builds the
:class:`DynInst` list from them on first use, for the reference
engine's packing, the oracle and tests.

:func:`run_program` records the columns in the native kernel
(:func:`repro.sim.native.interpret`) whenever it loads.  The
:class:`Interpreter` here is the reference: the oracle's sequential
execution and the commit replay run it, and ``run_program`` falls
back to it when the kernel is unavailable, and for any program whose
run needs a value the kernel cannot reproduce exactly (an int64
overflow in ADD, SUB, MUL or SHL, a negative shift, int() of a NaN,
infinite or out-of-range float, an int-versus-float compare beyond
2^53) or raises an error, so the reference raises its own exception.
Only the instruction limit is reported by the kernel itself, as the
same :class:`ExecutionLimitExceeded`.

Semantics notes:

* Integer division/remainder truncate toward zero (C semantics);
  division by zero yields 0 (the workloads avoid it, but the guard
  keeps fuzzed programs executable).
* Memory is word addressed; uninitialised words read as 0.
* ``CALL`` pushes a return continuation (the call block's fallthrough);
  ``RET`` pops it.  Registers are a single global file, as on real
  hardware — calling conventions are the workloads' concern.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.ir.block import BlockId
from repro.ir.instructions import Instruction, Opcode
from repro.ir.program import Program


class ExecutionLimitExceeded(RuntimeError):
    """Raised when a program exceeds the dynamic instruction budget."""


class DynInst:
    """One dynamic instruction in a trace.

    Attributes:
        index: position in the trace (0-based).
        block: the static block id ``(function, label)``.
        iidx: index of the static instruction within its block.
        op: the :class:`~repro.ir.instructions.Opcode`.
        pc: static instruction address.
        reads: register names read.
        write: register name written, or ``None``.
        addr: effective memory address for LOAD/STORE, else ``None``.
        taken: branch outcome for conditional branches, else ``None``.
        callee: callee function name for CALL, else ``None``.
    """

    __slots__ = (
        "index",
        "block",
        "iidx",
        "op",
        "pc",
        "reads",
        "write",
        "addr",
        "taken",
        "callee",
    )

    def __init__(
        self,
        index: int,
        block: BlockId,
        iidx: int,
        op: Opcode,
        pc: int,
        reads: Tuple[str, ...],
        write: Optional[str],
        addr: Optional[int],
        taken: Optional[bool],
        callee: Optional[str],
    ) -> None:
        self.index = index
        self.block = block
        self.iidx = iidx
        self.op = op
        self.pc = pc
        self.reads = reads
        self.write = write
        self.addr = addr
        self.taken = taken
        self.callee = callee

    def __repr__(self) -> str:
        return (
            f"DynInst(#{self.index} {self.op.value} @ {self.block[0]}:"
            f"{self.block[1]}[{self.iidx}])"
        )


class Trace:
    """The dynamic instruction stream of one program execution.

    The trace is its columns, recorded as the interpreter runs: the
    block entries, the start pc of each, the effective address of each
    memory op and the outcome of each conditional branch, plus the
    instruction count.  :attr:`insts` is a view built from them.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        #: dynamic instructions executed
        self.n = 0
        #: dynamic block entry events as (trace index of first inst, block id)
        self.block_entries: List[Tuple[int, BlockId]] = []
        #: pc of the first instruction of each block entry (0 for an
        #: empty block), aligned with ``block_entries``
        self.entry_pcs: List[int] = []
        #: effective address of each LOAD and STORE, in trace order
        self.mem_addrs: List[int] = []
        #: outcome of each conditional branch (1 = taken), in trace order
        self.taken = bytearray()
        #: the reference engine's partition-independent packed arrays
        #: (:class:`repro.sim.packed.TraceArrays`), built on first use
        #: and shared by every task stream cut from this trace
        self.arrays = None
        self._insts: Optional[List[DynInst]] = None
        self._control_transfers: Optional[int] = None

    def __getstate__(self):
        # The view and the packing are rebuilt on demand; a pickled
        # trace carries only its columns.
        state = self.__dict__.copy()
        state["_insts"] = None
        state["arrays"] = None
        return state

    @property
    def insts(self) -> List[DynInst]:
        """One :class:`DynInst` per dynamic instruction, built from the
        columns on first use and kept for the trace's lifetime."""
        if self._insts is None:
            self._insts = self._expand()
        return self._insts

    def _expand(self) -> List[DynInst]:
        blocks = self.program.block
        addrs = iter(self.mem_addrs)
        outcomes = iter(self.taken)
        insts: List[DynInst] = []
        append = insts.append
        for (start, block), pc in zip(self.block_entries, self.entry_pcs):
            for iidx, ins in enumerate(blocks(block).instructions):
                op = ins.opcode
                append(DynInst(
                    start + iidx,
                    block,
                    iidx,
                    op,
                    pc + iidx,
                    ins.reads,
                    ins.writes,
                    next(addrs) if op.is_memory else None,
                    bool(next(outcomes)) if op.is_branch else None,
                    ins.target if op is Opcode.CALL else None,
                ))
        return insts

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.insts)

    def __getitem__(self, index: int) -> DynInst:
        return self.insts[index]

    def control_transfer_count(self) -> int:
        """Number of dynamic control transfer instructions."""
        if self._control_transfers is None:
            # Only a block's terminator transfers control, and every
            # block entry runs its whole block.
            block = self.program.block
            self._control_transfers = sum(
                times
                for blk, times in Counter(
                    b for _, b in self.block_entries
                ).items()
                if block(blk).terminator is not None
            )
        return self._control_transfers

    def conditional_branch_count(self) -> int:
        """Number of dynamic conditional branches."""
        return len(self.taken)


class Interpreter:
    """Executes a :class:`~repro.ir.program.Program` and records a trace."""

    def __init__(self, program: Program, max_instructions: int = 2_000_000) -> None:
        program.validate()
        self.program = program
        self.max_instructions = max_instructions
        self.int_regs: Dict[str, int] = {"r0": 0}
        self.fp_regs: Dict[str, float] = {}
        self.memory: Dict[int, float] = dict(program.memory_image)
        self.halted = False

    # ------------------------------------------------------------ registers

    def read_reg(self, name: str) -> float:
        """Current value of register ``name`` (0 if never written)."""
        if name[0] == "f":
            return self.fp_regs.get(name, 0.0)
        if name == "r0":
            return 0
        return self.int_regs.get(name, 0)

    def write_reg(self, name: str, value: float) -> None:
        """Set register ``name``; writes to ``r0`` are discarded."""
        if name == "r0":
            return
        if name[0] == "f":
            self.fp_regs[name] = float(value)
        else:
            self.int_regs[name] = int(value)

    # -------------------------------------------------------------- running

    def run(self) -> Trace:
        """Execute from ``main`` until HALT; return the trace.

        Register file access is inlined (int/fp dict gets keyed by the
        ``f`` name prefix, matching :meth:`read_reg` / :meth:`write_reg`)
        — this loop executes millions of dynamic instructions per trace
        and the helper-call overhead used to dominate it.
        """
        trace = Trace(self.program)
        program = self.program
        func_name = program.main_name
        label = program.function(func_name).entry_label
        assert label is not None
        call_stack: List[Tuple[str, str]] = []
        append_entry = trace.block_entries.append
        append_entry_pc = trace.entry_pcs.append
        append_addr = trace.mem_addrs.append
        append_taken = trace.taken.append
        limit = self.max_instructions
        int_regs = self.int_regs
        fp_regs = self.fp_regs
        memory = self.memory
        n_insts = 0
        _LOAD = Opcode.LOAD
        _STORE = Opcode.STORE
        _BEQZ = Opcode.BEQZ
        _BNEZ = Opcode.BNEZ
        _JUMP = Opcode.JUMP
        _CALL = Opcode.CALL
        _RET = Opcode.RET
        _HALT = Opcode.HALT
        _LI = Opcode.LI
        _FLI = Opcode.FLI
        _CVTFI = Opcode.CVTFI
        _MOVES = (Opcode.MOV, Opcode.FMOV, Opcode.CVTIF, Opcode.CVTFI)

        while not self.halted:
            func = program.function(func_name)
            blk = func.block(label)
            append_entry((n_insts, (func_name, label)))
            next_func = func_name
            next_label: Optional[str] = blk.fallthrough
            # PCs are assigned sequentially within a block, so one
            # lookup per block entry replaces one per instruction.
            block_pc = (
                program.pc_of(func_name, label, 0) if blk.instructions else 0
            )
            append_entry_pc(block_pc)
            # Every entry runs its whole block, so the instruction
            # budget is checked once per entry.
            n_insts += len(blk.instructions)
            if n_insts > limit:
                raise ExecutionLimitExceeded(
                    f"exceeded {limit} dynamic instructions"
                )
            for ins in blk.instructions:
                op = ins.opcode
                if op is _LOAD:
                    name = ins.srcs[0]
                    base = (
                        fp_regs.get(name, 0.0)
                        if name[0] == "f"
                        else int_regs.get(name, 0)
                    )
                    addr = int(base) + int(ins.imm or 0)
                    append_addr(addr)
                    dst = ins.dst
                    if dst != "r0":
                        val = memory.get(addr, 0)
                        if dst[0] == "f":
                            fp_regs[dst] = float(val)
                        else:
                            int_regs[dst] = int(val)
                elif op is _STORE:
                    name = ins.srcs[0]
                    value = (
                        fp_regs.get(name, 0.0)
                        if name[0] == "f"
                        else int_regs.get(name, 0)
                    )
                    name = ins.srcs[1]
                    base = (
                        fp_regs.get(name, 0.0)
                        if name[0] == "f"
                        else int_regs.get(name, 0)
                    )
                    addr = int(base) + int(ins.imm or 0)
                    append_addr(addr)
                    memory[addr] = value
                elif op is _BEQZ or op is _BNEZ:
                    name = ins.srcs[0]
                    value = (
                        fp_regs.get(name, 0.0)
                        if name[0] == "f"
                        else int_regs.get(name, 0)
                    )
                    taken = (value == 0) if op is _BEQZ else (value != 0)
                    append_taken(taken)
                    if taken:
                        next_label = ins.target
                elif op is _JUMP:
                    next_label = ins.target
                elif op is _CALL:
                    assert ins.target is not None
                    assert blk.fallthrough is not None, (
                        f"call in {blk.label} lacks a continuation"
                    )
                    call_stack.append((func_name, blk.fallthrough))
                    next_func = ins.target
                    next_label = program.function(next_func).entry_label
                elif op is _RET:
                    if not call_stack:
                        raise RuntimeError(
                            f"RET with empty call stack in {func_name}:{label}"
                        )
                    next_func, next_label = call_stack.pop()
                elif op is _HALT:
                    self.halted = True
                    next_label = None
                else:
                    # ALU / move family, inlined from _execute_alu.
                    srcs = ins.srcs
                    if op is _LI or op is _FLI:
                        val = ins.imm
                    elif op in _MOVES:  # MOV / FMOV / CVTIF / CVTFI
                        name = srcs[0]
                        val = (
                            fp_regs.get(name, 0.0)
                            if name[0] == "f"
                            else int_regs.get(name, 0)
                        )
                        if op is _CVTFI:
                            val = int(val)
                    else:
                        name = srcs[0]
                        a = (
                            fp_regs.get(name, 0.0)
                            if name[0] == "f"
                            else int_regs.get(name, 0)
                        )
                        if len(srcs) > 1:
                            name = srcs[1]
                            b = (
                                fp_regs.get(name, 0.0)
                                if name[0] == "f"
                                else int_regs.get(name, 0)
                            )
                        else:
                            b = ins.imm
                        val = op.alu(a, b)
                    dst = ins.dst
                    if dst != "r0":
                        if dst[0] == "f":
                            fp_regs[dst] = float(val)
                        else:
                            int_regs[dst] = int(val)
            if self.halted:
                break
            if next_label is None:
                raise RuntimeError(
                    f"fell off the end of block {func_name}:{label}"
                )
            func_name, label = next_func, next_label
        trace.n = n_insts
        return trace

    def _execute_alu(self, ins: Instruction) -> None:
        op = ins.opcode
        if op is Opcode.LI or op is Opcode.FLI:
            assert ins.dst is not None and ins.imm is not None
            self.write_reg(ins.dst, ins.imm)
            return
        if op in (Opcode.MOV, Opcode.FMOV, Opcode.CVTIF):
            assert ins.dst is not None
            self.write_reg(ins.dst, self.read_reg(ins.srcs[0]))
            return
        if op is Opcode.CVTFI:
            assert ins.dst is not None
            self.write_reg(ins.dst, int(self.read_reg(ins.srcs[0])))
            return
        a = self.read_reg(ins.srcs[0])
        b = self.read_reg(ins.srcs[1]) if len(ins.srcs) > 1 else ins.imm
        assert b is not None, f"missing second operand for {ins}"
        assert ins.dst is not None
        self.write_reg(ins.dst, op.alu(a, b))


def _int_div(a: float, b: float) -> int:
    if b == 0:
        return 0
    q = abs(int(a)) // abs(int(b))
    return q if (a >= 0) == (b >= 0) else -q


def _int_rem(a: float, b: float) -> int:
    if b == 0:
        return 0
    return int(a) - _int_div(a, b) * int(b)


_ALU_FUNCS = {
    Opcode.ADD: lambda a, b: int(a) + int(b),
    Opcode.SUB: lambda a, b: int(a) - int(b),
    Opcode.MUL: lambda a, b: int(a) * int(b),
    Opcode.DIV: _int_div,
    Opcode.REM: _int_rem,
    Opcode.AND: lambda a, b: int(a) & int(b),
    Opcode.OR: lambda a, b: int(a) | int(b),
    Opcode.XOR: lambda a, b: int(a) ^ int(b),
    Opcode.SHL: lambda a, b: int(a) << int(b),
    Opcode.SHR: lambda a, b: int(a) >> int(b),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SLE: lambda a, b: 1 if a <= b else 0,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.SNE: lambda a, b: 1 if a != b else 0,
    Opcode.FADD: lambda a, b: float(a) + float(b),
    Opcode.FSUB: lambda a, b: float(a) - float(b),
    Opcode.FMUL: lambda a, b: float(a) * float(b),
    Opcode.FDIV: lambda a, b: float(a) / b if b != 0 else 0.0,
}

# Bind each ALU function directly onto its opcode: ``op.alu(a, b)`` is
# an attribute load, where ``_ALU_FUNCS[op]`` pays an enum hash per
# dynamic ALU instruction.
for _op, _fn in _ALU_FUNCS.items():
    _op.alu = _fn


def run_program(program: Program, max_instructions: int = 2_000_000) -> Trace:
    """Interpret ``program`` and return its trace.

    The native kernel records it when it loads; the reference
    :class:`Interpreter` runs when it does not, and whenever the kernel
    reports a value it cannot reproduce or an error (so the reference
    raises its own exception).  Past ``max_instructions`` both raise
    :class:`ExecutionLimitExceeded`.
    """
    program.validate()
    # Imported here: the kernel's module imports this one.
    from repro.sim import native

    trace = native.interpret(program, max_instructions)
    if trace is None:
        trace = Interpreter(program, max_instructions=max_instructions).run()
    return trace
