"""Intermediate representation for Multiscalar task selection.

The IR is a small RISC-like instruction set organised into basic
blocks, functions, and programs.  It is the substrate that the paper's
compiler heuristics (``repro.compiler``) operate on, and that the
functional interpreter (``repro.ir.interp``) executes to produce
dynamic traces for the timing simulator.

Public surface:

* :class:`~repro.ir.instructions.Opcode`,
  :class:`~repro.ir.instructions.Instruction` and the ``Reg`` helpers —
  the instruction set.
* :class:`~repro.ir.block.BasicBlock`,
  :class:`~repro.ir.function.Function`,
  :class:`~repro.ir.program.Program` — the structural containers.
* :class:`~repro.ir.builder.IRBuilder` — fluent construction of
  programs (used heavily by ``repro.workloads``).
* :mod:`~repro.ir.cfg` — DFS numbering, dominators, natural loops.
* :mod:`~repro.ir.dataflow` — reaching definitions, def-use chains,
  liveness, codependent sets.
* :mod:`~repro.ir.analysis` — those facts per function, built once
  and shared by every selection of one program.
* :class:`~repro.ir.interp.Interpreter` — functional execution and
  trace capture.
"""

from repro.ir.asmtext import parse_program, program_to_text
from repro.ir.block import BasicBlock
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import (
    FP_REGISTER_COUNT,
    INT_REGISTER_COUNT,
    Instruction,
    Opcode,
    OpClass,
    fp_reg,
    int_reg,
    is_fp_reg,
    is_int_reg,
)
from repro.ir.interp import DynInst, ExecutionLimitExceeded, Interpreter, Trace
from repro.ir.program import Program
from repro.ir.validate import (
    WellFormednessError,
    assert_well_formed,
    partition_issues,
    well_formed,
)

__all__ = [
    "BasicBlock",
    "DynInst",
    "ExecutionLimitExceeded",
    "FP_REGISTER_COUNT",
    "Function",
    "INT_REGISTER_COUNT",
    "IRBuilder",
    "Instruction",
    "Interpreter",
    "OpClass",
    "Opcode",
    "Program",
    "Trace",
    "WellFormednessError",
    "assert_well_formed",
    "fp_reg",
    "int_reg",
    "is_fp_reg",
    "is_int_reg",
    "parse_program",
    "partition_issues",
    "program_to_text",
    "well_formed",
]
