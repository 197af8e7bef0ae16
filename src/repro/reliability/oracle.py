"""Differential oracle: sequential execution vs. machine commit order.

Two independent executions of the same program must agree on
architectural state:

1. the **sequential reference** — the IR interpreter running the
   program front to back (no tasks, no speculation); and
2. the **commit replay** — the same program's instructions re-executed
   with full interpreter semantics, but in the order the multiscalar
   machine *committed* them (the concatenated spans of retired
   dynamic tasks, taken from the invariant monitor's commit log).

Because the replay recomputes every register value, effective address
and branch outcome from scratch, any machine bug that commits work in
the wrong order, twice, or not at all shows up as a concrete
divergence: an address mismatch, a branch that resolves differently,
or a final register/memory word that differs.  Squashed and
wrong-path work legitimately differ between runs — they never commit,
so the oracle never sees them (see DESIGN.md §8 for the equivalence
definition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.ir.instructions import Opcode
from repro.ir.interp import Interpreter, Trace
from repro.ir.program import Program

#: cap on reported divergences so a badly broken run stays readable
MAX_DIVERGENCES = 20


@dataclass
class ArchState:
    """Final architectural state of one execution."""

    int_regs: Dict[str, int] = field(default_factory=dict)
    fp_regs: Dict[str, float] = field(default_factory=dict)
    memory: Dict[int, float] = field(default_factory=dict)
    retired_instructions: int = 0

    @classmethod
    def from_interpreter(cls, interp: Interpreter, retired: int) -> "ArchState":
        return cls(
            int_regs={r: v for r, v in interp.int_regs.items() if r != "r0"},
            fp_regs=dict(interp.fp_regs),
            memory=dict(interp.memory),
            retired_instructions=retired,
        )


def sequential_reference(program: Program,
                         max_instructions: int = 2_000_000
                         ) -> Tuple[Trace, ArchState]:
    """Run ``program`` sequentially; return its trace and final state."""
    interp = Interpreter(program, max_instructions=max_instructions)
    trace = interp.run()
    return trace, ArchState.from_interpreter(interp, len(trace))


def replay_commits(
    program: Program,
    trace: Trace,
    commit_log: Sequence[Tuple[int, int, int]],
) -> Tuple[ArchState, List[str]]:
    """Re-execute ``trace`` in committed order with fresh semantics.

    ``commit_log`` is the monitor's retirement record: ``(seq, start,
    end)`` spans of trace indices.  Every instruction is recomputed
    from the replayed register file — the recorded trace is consulted
    only to *cross-check* effective addresses and branch outcomes.
    Returns the final state and any divergences found along the way.
    """
    interp = Interpreter(program)  # fresh registers + initial memory image
    divergences: List[str] = []

    def diverge(message: str) -> None:
        if len(divergences) < MAX_DIVERGENCES:
            divergences.append(message)

    replayed = 0
    for seq, start, end in commit_log:
        for i in range(start, end):
            dyn = trace.insts[i]
            ins = program.block(dyn.block).instructions[dyn.iidx]
            op = ins.opcode
            if op is Opcode.LOAD:
                base = interp.read_reg(ins.srcs[0])
                addr = int(base) + int(ins.imm or 0)
                if addr != dyn.addr:
                    diverge(
                        f"#{i} (task {seq}) load address {addr} != traced "
                        f"{dyn.addr}"
                    )
                interp.write_reg(ins.dst, interp.memory.get(addr, 0))
            elif op is Opcode.STORE:
                value = interp.read_reg(ins.srcs[0])
                base = interp.read_reg(ins.srcs[1])
                addr = int(base) + int(ins.imm or 0)
                if addr != dyn.addr:
                    diverge(
                        f"#{i} (task {seq}) store address {addr} != traced "
                        f"{dyn.addr}"
                    )
                interp.memory[addr] = value
            elif op in (Opcode.BEQZ, Opcode.BNEZ):
                value = interp.read_reg(ins.srcs[0])
                taken = (value == 0) if op is Opcode.BEQZ else (value != 0)
                if taken != dyn.taken:
                    diverge(
                        f"#{i} (task {seq}) branch resolves "
                        f"{'taken' if taken else 'not-taken'}, trace says "
                        f"{'taken' if dyn.taken else 'not-taken'}"
                    )
            elif op in (Opcode.JUMP, Opcode.CALL, Opcode.RET, Opcode.HALT):
                pass  # control only; order is given by the commit log
            else:
                interp._execute_alu(ins)
            replayed += 1
    return ArchState.from_interpreter(interp, replayed), divergences


def check_commit_log(
    commit_log: Sequence[Tuple[int, int, int]], trace_length: int
) -> List[str]:
    """Structural checks: in-order seqs, contiguous full coverage."""
    problems: List[str] = []
    expected_seq = 0
    cursor = 0
    for seq, start, end in commit_log:
        if seq != expected_seq:
            problems.append(
                f"commit order broken: saw task {seq}, expected "
                f"{expected_seq}"
            )
        if start != cursor:
            problems.append(
                f"task {seq} commits [{start}, {end}) but trace cursor is "
                f"at {cursor}"
            )
        cursor = end
        expected_seq = seq + 1
    if cursor != trace_length:
        problems.append(
            f"commit log covers {cursor}/{trace_length} trace instructions"
        )
    return problems[:MAX_DIVERGENCES]


def _same_value(a, b) -> bool:
    if a == b:
        return True
    # NaN never compares equal to itself, but two executions that both
    # end with NaN in a register agree architecturally (found by
    # fuzzing: FP-heavy generated programs tripped 44 spurious
    # divergences per run on identical states).
    return (isinstance(a, float) and isinstance(b, float)
            and math.isnan(a) and math.isnan(b))


def _diff_dict(kind: str, ref: Dict, got: Dict,
               out: List[str]) -> None:
    for key in sorted(set(ref) | set(got), key=str):
        a, b = ref.get(key), got.get(key)
        if not _same_value(a, b):
            if len(out) >= MAX_DIVERGENCES:
                return
            out.append(f"{kind}[{key}]: reference {a!r} != replay {b!r}")


#: the recorded columns of a :class:`~repro.ir.interp.Trace`
TRACE_COLUMNS = ("block_entries", "entry_pcs", "mem_addrs", "taken")


def compare_traces(trace: Trace, reference: Trace) -> List[str]:
    """Divergences of ``trace``'s columns from the ``reference``
    interpreter's: the instruction count, then the first index at
    which each column differs."""
    out: List[str] = []
    if trace.n != reference.n:
        out.append(f"trace n {trace.n} != reference {reference.n}")
    for name in TRACE_COLUMNS:
        got, want = getattr(trace, name), getattr(reference, name)
        if got == want:
            continue
        i = next((k for k, pair in enumerate(zip(got, want))
                  if pair[0] != pair[1]), min(len(got), len(want)))

        def at(column):
            return repr(column[i]) if i < len(column) else "<missing>"

        out.append(f"trace {name}[{i}] {at(got)} != reference {at(want)}")
    return out


def compare_states(reference: ArchState, replay: ArchState) -> List[str]:
    """Human-readable divergences between two final states."""
    out: List[str] = []
    if reference.retired_instructions != replay.retired_instructions:
        out.append(
            f"retired instruction count: reference "
            f"{reference.retired_instructions} != replay "
            f"{replay.retired_instructions}"
        )
    _diff_dict("int_reg", reference.int_regs, replay.int_regs, out)
    _diff_dict("fp_reg", reference.fp_regs, replay.fp_regs, out)
    _diff_dict("mem", reference.memory, replay.memory, out)
    return out[:MAX_DIVERGENCES]
