"""IR transforms used by the task size heuristic and scheduling.

* :func:`unroll_loop` / :func:`unroll_small_loops` — replicate small
  loop bodies so that short-loop tasks reach LOOP_THRESH instructions
  (Section 3.2).
* :func:`hoist_induction_increments` — move induction variable
  increments to the top of loops "so that later iterations get the
  values of the induction variables from earlier iterations without
  any delay" (Section 3.3).  Semantics are preserved by rewriting
  body uses of the induction register to a compensated temporary.

All transforms mutate the program in place and invalidate its PC
layout; callers should work on a cloned program
(:func:`clone_program`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

from repro.ir.block import BasicBlock
from repro.ir.cfg import CFG, Loop, build_cfg
from repro.ir.dataflow import live_registers
from repro.ir.function import Function
from repro.ir.instructions import (
    FP_REGISTER_COUNT,
    INT_REGISTER_COUNT,
    Instruction,
    Opcode,
)
from repro.ir.program import Program


def clone_program(program: Program) -> Program:
    """Copy ``program`` so transforms leave the original intact.

    The program, its functions, blocks, instruction lists and memory
    image are copied; the frozen :class:`Instruction` objects are
    shared.
    """
    clone = Program(program.main_name)
    for func in program.functions():
        copied = Function(func.name, func.entry_label)
        for blk in func.blocks():
            copied.add_block(
                BasicBlock(blk.label, list(blk.instructions), blk.fallthrough)
            )
        clone.add_function(copied)
    clone.memory_image = dict(program.memory_image)
    clone.invalidate_layout()
    return clone


# --------------------------------------------------------------- unrolling


def loop_static_size(function: Function, loop: Loop) -> int:
    """Static instruction count of the loop body."""
    return sum(function.block(lbl).size for lbl in loop.body)


def _is_simple_loop(cfg: CFG, loop: Loop) -> bool:
    """Single back edge and no nested loop headers inside."""
    if len(loop.back_edges) != 1:
        return False
    for other in cfg.loops:
        if other is loop:
            continue
        if other.header in loop.body:
            return False
    return True


def _expansion_candidate(
    function: Function,
    loop: Loop,
    live_in: Dict[str, Set[str]],
) -> Optional[int]:
    """Index in the back block of an expandable induction increment.

    Requirements: a ``r = r ± imm`` with ``r`` defined exactly once in
    the loop, and ``r`` dead at every loop exit target (expansion
    over-advances ``r`` on early exits, so it must not be observable).
    """
    back_src, _header = loop.back_edges[0]
    back_blk = function.block(back_src)
    defs = _loop_defs(function, loop)
    for idx, ins in enumerate(back_blk.instructions):
        if (
            ins.opcode in (Opcode.ADD, Opcode.SUB)
            and ins.imm is not None
            and len(ins.srcs) == 1
            and ins.dst == ins.srcs[0]
            and defs.get(ins.dst, 0) == 1
        ):
            reg = ins.dst
            dead_at_exits = True
            for label in loop.body:
                for succ in function.block(label).successor_labels():
                    if succ not in loop.body and reg in live_in.get(succ, set()):
                        dead_at_exits = False
            if dead_at_exits:
                return idx
    return None


def _rewrite_induction_to_temp(
    function: Function, loop: Loop, inc_index: int, temp: str
) -> Instruction:
    """Rewrite the loop to track the induction value in ``temp``.

    The increment becomes ``temp = temp ± imm`` in place, and every
    use of the register inside the loop reads ``temp``; positions are
    preserved, so per-iteration values are unchanged.  Returns the
    original increment instruction (for the header prologue).
    """
    back_src, _header = loop.back_edges[0]
    back_blk = function.block(back_src)
    inc = back_blk.instructions[inc_index]
    reg = inc.dst
    assert reg is not None

    def rewrite(ins: Instruction) -> Instruction:
        if reg in ins.srcs:
            srcs = tuple(temp if s == reg else s for s in ins.srcs)
            return Instruction(ins.opcode, ins.dst, srcs, ins.imm, ins.target)
        return ins

    for label in loop.body:
        blk = function.block(label)
        blk.instructions[:] = [rewrite(i) for i in blk.instructions]
    back_blk.instructions[inc_index] = Instruction(
        inc.opcode, temp, (temp,), inc.imm
    )
    return inc


def unroll_loop(
    function: Function,
    cfg: CFG,
    loop: Loop,
    factor: int,
    live_in: Optional[Dict[str, Set[str]]] = None,
    expand_induction: bool = True,
    program: Optional[Program] = None,
) -> bool:
    """Unroll ``loop`` by ``factor`` via body replication with exits.

    The original body is iteration 0; ``factor - 1`` copies are chained
    through the back edge, and the last copy's back edge returns to the
    original header.  Loop-exit edges are kept per copy, so any trip
    count remains correct.  Returns False (no change) for non-simple
    loops or ``factor < 2``.

    When ``expand_induction`` holds and the loop has a safe induction
    increment, the register is advanced by ``factor * imm`` once at the
    top of the unrolled body and per-copy values are tracked in a fresh
    temporary — without this, the cross-task induction value would only
    be produced at the *end* of the unrolled task, serialising
    successive tasks on the register ring.
    """
    if factor < 2 or not _is_simple_loop(cfg, loop):
        return False
    back_src, header = loop.back_edges[0]
    body = sorted(loop.body)

    prologue: List[Instruction] = []
    if expand_induction and live_in is not None and program is not None:
        inc_index = _expansion_candidate(function, loop, live_in)
        temp = None
        if inc_index is not None:
            inc_dst = function.block(back_src).instructions[inc_index].dst
            assert inc_dst is not None
            temp = _free_register(program, fp=inc_dst.startswith("f"))
        if inc_index is not None and temp is not None:
            inc = _rewrite_induction_to_temp(function, loop, inc_index, temp)
            assert inc.dst is not None and inc.imm is not None
            total = inc.imm * factor
            undo = Opcode.SUB if inc.opcode is Opcode.ADD else Opcode.ADD
            prologue = [
                Instruction(inc.opcode, inc.dst, (inc.dst,), total),
                Instruction(undo, temp, (inc.dst,), total),
            ]

    def copy_label(label: str, k: int) -> str:
        return f"{label}#u{k}"

    # Create copies 1..factor-1.
    for k in range(1, factor):
        for label in body:
            orig = function.block(label)
            new_insts: List[Instruction] = []
            for ins in orig.instructions:
                if ins.target is not None and ins.target in loop.body:
                    if label == back_src and ins.target == header:
                        # Back edge of copy k: chain to the next copy,
                        # or close the loop from the last copy.
                        nxt = copy_label(header, k + 1) if k + 1 < factor else header
                        new_insts.append(
                            Instruction(
                                ins.opcode, ins.dst, ins.srcs, ins.imm, nxt
                            )
                        )
                    else:
                        new_insts.append(
                            Instruction(
                                ins.opcode,
                                ins.dst,
                                ins.srcs,
                                ins.imm,
                                copy_label(ins.target, k),
                            )
                        )
                else:
                    new_insts.append(ins)
            fallthrough = orig.fallthrough
            if fallthrough is not None and fallthrough in loop.body:
                if label == back_src and fallthrough == header:
                    fallthrough = (
                        copy_label(header, k + 1) if k + 1 < factor else header
                    )
                else:
                    fallthrough = copy_label(fallthrough, k)
            function.add_block(
                BasicBlock(
                    label=copy_label(label, k),
                    instructions=new_insts,
                    fallthrough=fallthrough,
                )
            )

    # Redirect iteration 0's back edge into copy 1.
    blk0 = function.block(back_src)
    first_copy_header = copy_label(header, 1)
    term = blk0.terminator
    if term is not None and term.target == header:
        blk0.instructions[-1] = Instruction(
            term.opcode, term.dst, term.srcs, term.imm, first_copy_header
        )
    if blk0.fallthrough == header:
        blk0.fallthrough = first_copy_header
    if prologue:
        function.block(header).instructions[:0] = prologue
    return True


def unroll_small_loops(
    program: Program,
    loop_thresh: int,
    max_unroll: int = 8,
    expand_induction: bool = True,
) -> int:
    """Unroll every simple innermost loop smaller than ``loop_thresh``.

    Returns the number of loops unrolled.  CFGs are rebuilt per
    function after each unroll (copies must not be re-unrolled, which
    the size test guarantees once the body reaches the threshold).
    """
    unrolled = 0
    for function in program.functions():
        cfg = build_cfg(function)
        # Snapshot loops first: unrolling invalidates the CFG.
        candidates = [
            loop
            for loop in cfg.loops
            if _is_simple_loop(cfg, loop)
            and 0 < loop_static_size(function, loop) < loop_thresh
        ]
        for loop in candidates:
            size = loop_static_size(function, loop)
            factor = min(max_unroll, max(2, math.ceil(loop_thresh / size)))
            # Re-derive the CFG so nested bookkeeping stays consistent.
            cfg = build_cfg(function)
            live = {lp.header: lp for lp in cfg.loops}
            current = live.get(loop.header)
            if current is None:
                continue
            live_in = live_registers(function, cfg)
            if unroll_loop(
                function,
                cfg,
                current,
                factor,
                live_in=live_in,
                expand_induction=expand_induction,
                program=program,
            ):
                unrolled += 1
    if unrolled:
        program.invalidate_layout()
    return unrolled


# ---------------------------------------------------------------- hoisting


def _free_register(program: Program, fp: bool) -> Optional[str]:
    """An architectural register never mentioned anywhere in ``program``.

    Registers are a single global file shared across calls, so a
    temporary that is merely unused in one function could still be
    clobbered by (or clobber) a callee or caller — the scan must be
    program-wide.
    """
    used: Set[str] = set()
    for function in program.functions():
        for blk in function.blocks():
            for ins in blk.instructions:
                used.update(ins.srcs)
                if ins.dst is not None:
                    used.add(ins.dst)
    prefix, count = ("f", FP_REGISTER_COUNT) if fp else ("r", INT_REGISTER_COUNT)
    start = 1  # r0 is hard-wired zero
    for i in range(count - 1, start - 1, -1):
        name = f"{prefix}{i}"
        if name not in used:
            return name
    return None


def _loop_defs(function: Function, loop: Loop) -> Dict[str, int]:
    """Times each register is statically defined inside the loop."""
    counts: Dict[str, int] = {}
    for label in loop.body:
        for ins in function.block(label).instructions:
            if ins.writes is not None:
                counts[ins.writes] = counts.get(ins.writes, 0) + 1
    return counts


def hoist_induction_increments(program: Program) -> int:
    """Hoist ``r = r ± imm`` increments to loop headers where safe.

    Safety conditions (checked per candidate):

    * simple innermost loop with a single back edge;
    * the increment sits in the back-edge source block and is the only
      definition of its register in the loop;
    * every loop exit either leaves from the back-edge source block
      (where the increment has already executed in the original code)
      or the register is dead at the exit target.

    Uses of the register elsewhere in the body are rewritten to a
    fresh temporary ``t = r - imm`` computed right after the hoisted
    increment, preserving per-iteration values exactly.

    Returns the number of increments hoisted.
    """
    hoisted = 0
    for function in program.functions():
        cfg = build_cfg(function)
        live_in = live_registers(function, cfg)
        for loop in cfg.loops:
            if not _is_simple_loop(cfg, loop):
                continue
            back_src, header = loop.back_edges[0]
            back_blk = function.block(back_src)
            defs = _loop_defs(function, loop)
            # Find a candidate increment in the back block.
            cand_idx: Optional[int] = None
            for idx, ins in enumerate(back_blk.instructions):
                if (
                    ins.opcode in (Opcode.ADD, Opcode.SUB)
                    and ins.imm is not None
                    and len(ins.srcs) == 1
                    and ins.dst == ins.srcs[0]
                    and defs.get(ins.dst, 0) == 1
                ):
                    cand_idx = idx
                    break
            if cand_idx is None:
                continue
            inc = back_blk.instructions[cand_idx]
            reg = inc.dst
            assert reg is not None
            # Exit safety.
            safe = True
            for label in loop.body:
                for succ in function.block(label).successor_labels():
                    if succ in loop.body:
                        continue
                    if label == back_src:
                        continue  # increment already done there
                    if reg in live_in.get(succ, set()):
                        safe = False
            if not safe:
                continue
            # Uses of reg before the increment in the back block, or in
            # any other body block, must see the pre-increment value.
            temp = _free_register(program, fp=reg.startswith("f"))
            if temp is None:
                continue

            def rewrite(ins2: Instruction) -> Instruction:
                if reg in ins2.srcs:
                    srcs = tuple(temp if s == reg else s for s in ins2.srcs)
                    return Instruction(
                        ins2.opcode, ins2.dst, srcs, ins2.imm, ins2.target
                    )
                return ins2

            compensate = Instruction(
                Opcode.SUB if inc.opcode is Opcode.ADD else Opcode.ADD,
                dst=temp,
                srcs=(reg,),
                imm=inc.imm,
            )
            for label in loop.body:
                blk = function.block(label)
                if label == back_src:
                    # Pre-increment uses see the old value via temp;
                    # post-increment uses keep the register.
                    blk.instructions[:cand_idx] = [
                        rewrite(i) for i in blk.instructions[:cand_idx]
                    ]
                elif label == header:
                    blk.instructions[:] = [rewrite(i) for i in blk.instructions]
                else:
                    blk.instructions[:] = [rewrite(i) for i in blk.instructions]
            del back_blk.instructions[cand_idx]
            header_blk = function.block(header)
            header_blk.instructions[:0] = [inc, compensate]
            hoisted += 1
        if hoisted:
            program.invalidate_layout()
    return hoisted
