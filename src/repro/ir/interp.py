"""Functional execution of IR programs, with dynamic trace capture.

The interpreter is the "functional" half of the classic functional /
timing simulator split: it executes a program exactly (register and
memory values, branch outcomes, effective addresses) and records a
:class:`Trace` — the linear dynamic instruction stream.  The timing
model (``repro.sim``) replays the trace under a task partition, so
timing bugs can never corrupt program semantics.

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
    """The dynamic instruction stream of one program execution."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.insts: List[DynInst] = []
        #: dynamic block entry events as (trace index of first inst, block id)
        self.block_entries: List[Tuple[int, BlockId]] = []
        #: the timing model's partition-independent packed arrays
        #: (:class:`repro.sim.packed.TraceArrays`), built on first use
        #: and shared by every task stream cut from this trace
        self.arrays = None

    def __len__(self) -> int:
        return len(self.insts)

    def __iter__(self):
        return iter(self.insts)

    def __getitem__(self, index: int) -> DynInst:
        return self.insts[index]

    @property
    def dynamic_instruction_count(self) -> int:
        """Total dynamic instructions executed."""
        return len(self.insts)

    def control_transfer_count(self) -> int:
        """Number of dynamic control transfer instructions."""
        return sum(1 for d in self.insts if d.op.is_control)


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
        insts = trace.insts
        append_inst = insts.append
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
            trace.block_entries.append((n_insts, (func_name, label)))
            next_func = func_name
            next_label: Optional[str] = blk.fallthrough
            block_id = (func_name, label)
            # PCs are assigned sequentially within a block, so one
            # lookup per block entry replaces one per instruction.
            block_pc = (
                program.pc_of(func_name, label, 0) if blk.instructions else 0
            )
            for iidx, ins in enumerate(blk.instructions):
                if n_insts >= limit:
                    raise ExecutionLimitExceeded(
                        f"exceeded {limit} dynamic instructions"
                    )
                op = ins.opcode
                addr: Optional[int] = None
                taken: Optional[bool] = None
                callee: Optional[str] = None

                if op is _LOAD:
                    name = ins.srcs[0]
                    base = (
                        fp_regs.get(name, 0.0)
                        if name[0] == "f"
                        else int_regs.get(name, 0)
                    )
                    addr = int(base) + int(ins.imm or 0)
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
                    memory[addr] = value
                elif op is _BEQZ or op is _BNEZ:
                    name = ins.srcs[0]
                    value = (
                        fp_regs.get(name, 0.0)
                        if name[0] == "f"
                        else int_regs.get(name, 0)
                    )
                    taken = (value == 0) if op is _BEQZ else (value != 0)
                    if taken:
                        next_label = ins.target
                elif op is _JUMP:
                    next_label = ins.target
                elif op is _CALL:
                    assert ins.target is not None
                    callee = ins.target
                    assert blk.fallthrough is not None, (
                        f"call in {blk.label} lacks a continuation"
                    )
                    call_stack.append((func_name, blk.fallthrough))
                    next_func = callee
                    next_label = program.function(callee).entry_label
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

                append_inst(
                    DynInst(
                        n_insts,
                        block_id,
                        iidx,
                        op,
                        block_pc + iidx,
                        ins.reads,
                        ins.writes,
                        addr,
                        taken,
                        callee,
                    )
                )
                n_insts += 1
            if self.halted:
                break
            if next_label is None:
                raise RuntimeError(
                    f"fell off the end of block {func_name}:{label}"
                )
            func_name, label = next_func, next_label
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
    """Convenience: interpret ``program`` and return its trace."""
    return Interpreter(program, max_instructions=max_instructions).run()
