"""Fluent construction of IR programs.

``IRBuilder`` keeps a current function and a current block and offers
one method per opcode plus structural helpers.  The synthetic SPEC95
workloads (``repro.workloads``) are written against this API, e.g.::

    b = IRBuilder()
    with b.function("main"):
        b.li("r1", 0)
        body = b.new_label("body")
        done = b.new_label("done")
        b.jump(body)
        with b.block(body):
            b.addi("r1", "r1", 1)
            b.slt("r9", "r1", "r2")
            b.bnez("r9", body, fallthrough=done)
        with b.block(done):
            b.halt()

Blocks left without a terminator automatically fall through to the next
block opened on the same function, unless an explicit fallthrough is
set with :meth:`IRBuilder.set_fallthrough`.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.program import Program


class IRBuilder:
    """Incrementally builds a :class:`~repro.ir.program.Program`."""

    def __init__(self, main: str = "main") -> None:
        self.program = Program(main=main)
        self._func: Optional[Function] = None
        self._block: Optional[BasicBlock] = None
        self._pending_fallthrough: Optional[BasicBlock] = None
        self._label_counter = 0

    # ---------------------------------------------------------------- scope

    @contextlib.contextmanager
    def function(self, name: str) -> Iterator[Function]:
        """Open a function scope; an ``entry`` block is created."""
        func = Function(name)
        self.program.add_function(func)
        prev_func, prev_block = self._func, self._block
        self._func = func
        self._block = None
        self._pending_fallthrough = None
        self.open_block("entry")
        try:
            yield func
        finally:
            self._finish_pending()
            self._func, self._block = prev_func, prev_block

    @contextlib.contextmanager
    def block(self, label: str) -> Iterator[BasicBlock]:
        """Open (and make current) a new block named ``label``."""
        blk = self.open_block(label)
        yield blk

    def open_block(self, label: str) -> BasicBlock:
        """Start a new current block; resolve any pending fallthrough."""
        func = self._require_function()
        blk = BasicBlock(label=label, instructions=[])
        func.add_block(blk)
        if self._pending_fallthrough is not None:
            if self._pending_fallthrough.fallthrough is None:
                self._pending_fallthrough.fallthrough = label
            self._pending_fallthrough = None
        elif self._block is not None and self._block.terminator is None:
            # The previous block ended without control flow: it falls
            # through to the block being opened.
            if self._block.fallthrough is None:
                self._block.fallthrough = label
        self._block = blk
        return blk

    def new_label(self, stem: str) -> str:
        """Return a fresh program-unique block label from ``stem``."""
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def set_fallthrough(self, label: str) -> None:
        """Explicitly set the current block's fallthrough label."""
        self._require_block().fallthrough = label
        if self._pending_fallthrough is self._block:
            self._pending_fallthrough = None

    def _require_function(self) -> Function:
        if self._func is None:
            raise ValueError("no function scope is open")
        return self._func

    def _require_block(self) -> BasicBlock:
        if self._block is None:
            raise ValueError("no block is open")
        return self._block

    def _finish_pending(self) -> None:
        if self._pending_fallthrough is not None:
            raise ValueError(
                f"block {self._pending_fallthrough.label!r} falls off "
                "the end of its function"
            )

    # ----------------------------------------------------------------- emit

    def emit(self, instruction: Instruction) -> Instruction:
        """Append ``instruction`` to the current block."""
        blk = self._require_block()
        if blk.terminator is not None:
            raise ValueError(
                f"block {blk.label!r} already terminated by {blk.terminator}"
            )
        blk.instructions.append(instruction)
        if instruction.opcode.is_control:
            term = instruction.opcode
            if term in (Opcode.BEQZ, Opcode.BNEZ, Opcode.CALL):
                # These need a fallthrough: fill from the next block
                # opened unless already set.
                if blk.fallthrough is None:
                    self._pending_fallthrough = blk
            self._block = None
        return instruction

    def _alu(self, opcode: Opcode, dst: str, *srcs: str) -> Instruction:
        return self.emit(Instruction(opcode, dst=dst, srcs=tuple(srcs)))

    def _alui(self, opcode: Opcode, dst: str, src: str, imm: float) -> Instruction:
        return self.emit(Instruction(opcode, dst=dst, srcs=(src,), imm=imm))

    # Integer ALU -----------------------------------------------------------

    def add(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a + b``."""
        return self._alu(Opcode.ADD, dst, a, b)

    def addi(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = a + imm``."""
        return self._alui(Opcode.ADD, dst, a, imm)

    def sub(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a - b``."""
        return self._alu(Opcode.SUB, dst, a, b)

    def subi(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = a - imm``."""
        return self._alui(Opcode.SUB, dst, a, imm)

    def mul(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a * b``."""
        return self._alu(Opcode.MUL, dst, a, b)

    def muli(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = a * imm``."""
        return self._alui(Opcode.MUL, dst, a, imm)

    def div(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a // b`` (toward zero)."""
        return self._alu(Opcode.DIV, dst, a, b)

    def rem(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a mod b`` (sign of dividend)."""
        return self._alu(Opcode.REM, dst, a, b)

    def remi(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = a mod imm``."""
        return self._alui(Opcode.REM, dst, a, imm)

    def and_(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a & b``."""
        return self._alu(Opcode.AND, dst, a, b)

    def andi(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = a & imm``."""
        return self._alui(Opcode.AND, dst, a, imm)

    def or_(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a | b``."""
        return self._alu(Opcode.OR, dst, a, b)

    def xor(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a ^ b``."""
        return self._alu(Opcode.XOR, dst, a, b)

    def xori(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = a ^ imm``."""
        return self._alui(Opcode.XOR, dst, a, imm)

    def shl(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = a << imm``."""
        return self._alui(Opcode.SHL, dst, a, imm)

    def shr(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = a >> imm``."""
        return self._alui(Opcode.SHR, dst, a, imm)

    def slt(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = 1 if a < b else 0``."""
        return self._alu(Opcode.SLT, dst, a, b)

    def slti(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = 1 if a < imm else 0``."""
        return self._alui(Opcode.SLT, dst, a, imm)

    def sle(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = 1 if a <= b else 0``."""
        return self._alu(Opcode.SLE, dst, a, b)

    def seq(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = 1 if a == b else 0``."""
        return self._alu(Opcode.SEQ, dst, a, b)

    def seqi(self, dst: str, a: str, imm: int) -> Instruction:
        """``dst = 1 if a == imm else 0``."""
        return self._alui(Opcode.SEQ, dst, a, imm)

    def sne(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = 1 if a != b else 0``."""
        return self._alu(Opcode.SNE, dst, a, b)

    def li(self, dst: str, imm: int) -> Instruction:
        """``dst = imm``."""
        return self.emit(Instruction(Opcode.LI, dst=dst, imm=imm))

    def mov(self, dst: str, src: str) -> Instruction:
        """``dst = src`` (integer)."""
        return self._alu(Opcode.MOV, dst, src)

    # Floating point --------------------------------------------------------

    def fadd(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a + b`` (fp)."""
        return self._alu(Opcode.FADD, dst, a, b)

    def fsub(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a - b`` (fp)."""
        return self._alu(Opcode.FSUB, dst, a, b)

    def fmul(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a * b`` (fp)."""
        return self._alu(Opcode.FMUL, dst, a, b)

    def fdiv(self, dst: str, a: str, b: str) -> Instruction:
        """``dst = a / b`` (fp)."""
        return self._alu(Opcode.FDIV, dst, a, b)

    def fmov(self, dst: str, src: str) -> Instruction:
        """``dst = src`` (fp)."""
        return self._alu(Opcode.FMOV, dst, src)

    def fli(self, dst: str, imm: float) -> Instruction:
        """``dst = imm`` (fp immediate)."""
        return self.emit(Instruction(Opcode.FLI, dst=dst, imm=imm))

    def cvtif(self, dst: str, src: str) -> Instruction:
        """``dst(fp) = float(src(int))``."""
        return self._alu(Opcode.CVTIF, dst, src)

    def cvtfi(self, dst: str, src: str) -> Instruction:
        """``dst(int) = int(src(fp))`` (truncating)."""
        return self._alu(Opcode.CVTFI, dst, src)

    # Memory ----------------------------------------------------------------

    def load(self, dst: str, base: str, offset: int = 0) -> Instruction:
        """``dst = mem[base + offset]``."""
        return self.emit(
            Instruction(Opcode.LOAD, dst=dst, srcs=(base,), imm=offset)
        )

    def store(self, value: str, base: str, offset: int = 0) -> Instruction:
        """``mem[base + offset] = value``."""
        return self.emit(
            Instruction(Opcode.STORE, srcs=(value, base), imm=offset)
        )

    # Control ---------------------------------------------------------------

    def beqz(
        self, cond: str, target: str, fallthrough: Optional[str] = None
    ) -> Instruction:
        """Branch to ``target`` if ``cond == 0``."""
        if fallthrough is not None:
            self._require_block().fallthrough = fallthrough
        return self.emit(Instruction(Opcode.BEQZ, srcs=(cond,), target=target))

    def bnez(
        self, cond: str, target: str, fallthrough: Optional[str] = None
    ) -> Instruction:
        """Branch to ``target`` if ``cond != 0``."""
        if fallthrough is not None:
            self._require_block().fallthrough = fallthrough
        return self.emit(Instruction(Opcode.BNEZ, srcs=(cond,), target=target))

    def jump(self, target: str) -> Instruction:
        """Unconditional jump to block ``target``."""
        return self.emit(Instruction(Opcode.JUMP, target=target))

    def call(self, func_name: str, fallthrough: Optional[str] = None) -> Instruction:
        """Call ``func_name``; execution continues at ``fallthrough``."""
        if fallthrough is not None:
            self._require_block().fallthrough = fallthrough
        return self.emit(Instruction(Opcode.CALL, target=func_name))

    def ret(self) -> Instruction:
        """Return from the current function."""
        return self.emit(Instruction(Opcode.RET))

    def halt(self) -> Instruction:
        """Stop the program."""
        return self.emit(Instruction(Opcode.HALT))

    # ---------------------------------------------------------------- final

    def build(self, validate: bool = True) -> Program:
        """Finish and return the program (validated by default)."""
        self._finish_pending()
        if validate:
            self.program.validate()
        return self.program
