"""IR well-formedness validation beyond the structural invariants.

``Program.validate()`` checks local structure (terminators, label
resolution within a function, CALL targets).  This module layers the
whole-program lint the fuzzing campaign and the test suite run on
every workload:

* **targets resolve** — every branch / jump / fallthrough label names
  a block of its function, every CALL names a function, ``main``
  exists (re-checked here so one call reports *all* issues instead of
  raising on the first);
* **reachability** — every block is reachable from its function's
  entry (dead blocks are latent bugs in hand-written workloads and
  are never emitted by the generator);
* **no undefined register reads** — an interprocedural *must-defined*
  analysis over the flat global register file: a register may be read
  only where it has been written on **every** path from program entry
  (``r0`` is the hardwired zero).  The interpreter zero-initialises
  registers, so a violation is not a crash — it is a program whose
  meaning silently depends on implicit zeros, which is exactly the
  kind of latent workload bug differential fuzzing should not have to
  reason about.

``well_formed`` returns a list of human-readable issue strings (empty
means clean) so tests can assert on the whole report;
``assert_well_formed`` raises instead.  ``partition_issues`` checks
the task-selection output: every task region must have a **single
entry** — no CFG edge from outside a task may target a non-root
member block.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ir.block import BlockId
from repro.ir.function import Function
from repro.ir.instructions import Opcode
from repro.ir.program import Program

#: the hardwired zero register: always readable, writes discarded
ZERO = "r0"

#: analysis state: the set of must-defined registers, or ``None`` for
#: the optimistic top element ("everything defined", i.e. unvisited)
_State = Optional[FrozenSet[str]]


class WellFormednessError(ValueError):
    """Raised by :func:`assert_well_formed`; carries all issues."""

    def __init__(self, program_name: str, issues: List[str]) -> None:
        self.issues = issues
        lines = "\n".join(f"  - {issue}" for issue in issues)
        super().__init__(
            f"program {program_name!r} is not well-formed "
            f"({len(issues)} issue(s)):\n{lines}"
        )


def well_formed(program: Program) -> List[str]:
    """All well-formedness issues of ``program`` (empty list = clean)."""
    issues: List[str] = []
    if program.main_name not in [f.name for f in program.functions()]:
        issues.append(f"missing entry function {program.main_name!r}")
        return issues
    for func in program.functions():
        issues.extend(_structural_issues(program, func))
    if issues:
        # Target-resolution errors would make the dataflow analysis
        # crash or lie; report them alone first.
        return issues
    issues.extend(_undefined_reads(program))
    return issues


def assert_well_formed(program: Program, name: str = "<program>") -> None:
    """Raise :class:`WellFormednessError` unless ``program`` is clean."""
    issues = well_formed(program)
    if issues:
        raise WellFormednessError(name, issues)


# --------------------------------------------------------------- structure


def _structural_issues(program: Program, func: Function) -> List[str]:
    issues: List[str] = []
    where = f"function {func.name!r}"
    if func.entry_label is None or not func.has_block(func.entry_label):
        issues.append(f"{where}: missing entry block")
        return issues
    if not func.block(func.entry_label).instructions:
        # The dynamic trace records instructions, not blocks: an empty
        # entry block is invisible to trace-based task construction,
        # so a CALL into this function cannot be matched to the task
        # rooted at its entry (found by fuzzing: TaskStreamError on a
        # reduced program whose callee entry was emptied).
        issues.append(f"{where}: entry block is empty")
    for blk in func.blocks():
        at = f"{where}, block {blk.label!r}"
        for idx, ins in enumerate(blk.instructions[:-1]):
            if ins.opcode.is_control:
                issues.append(
                    f"{at}: control instruction {ins.opcode.name} at "
                    f"non-terminator position {idx}"
                )
        term = blk.terminator
        if term is None and blk.fallthrough is None:
            issues.append(f"{at}: no terminator and no fallthrough")
        if term is not None and term.opcode.is_branch and blk.fallthrough is None:
            issues.append(f"{at}: conditional branch without fallthrough")
        if term is not None and term.opcode is Opcode.CALL:
            assert term.target is not None
            if not program.has_function(term.target):
                issues.append(f"{at}: CALL to unknown function {term.target!r}")
            if blk.fallthrough is None:
                issues.append(f"{at}: CALL without a continuation fallthrough")
        for succ in blk.successor_labels():
            if not func.has_block(succ):
                issues.append(f"{at}: targets unknown block {succ!r}")
    if not issues:
        unreachable = _unreachable_blocks(func)
        for label in unreachable:
            issues.append(f"{where}: block {label!r} unreachable from entry")
    return issues


def _unreachable_blocks(func: Function) -> List[str]:
    seen = {func.entry_label}
    stack = [func.entry_label]
    while stack:
        label = stack.pop()
        for succ in func.block(label).successor_labels():
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return [label for label in func.labels() if label not in seen]


# ----------------------------------------------------- must-defined reads


def _join(a: _State, b: _State) -> _State:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _undefined_reads(program: Program) -> List[str]:
    """Reads of registers not must-defined on every path from entry.

    Registers form one global file shared across calls (the
    interpreter pushes only return continuations), so definedness
    flows *into* a callee at every call site (joined over sites) and
    *back* to the continuation from the callee's RET states.  The
    fixpoint is the standard optimistic chaotic iteration: states
    start at top (``None``) and only shrink.
    """
    entry_in: Dict[str, _State] = {f.name: None for f in program.functions()}
    ret_out: Dict[str, _State] = {f.name: None for f in program.functions()}
    entry_in[program.main_name] = frozenset({ZERO})

    changed = True
    while changed:
        changed = False
        for func in program.functions():
            state = entry_in[func.name]
            if state is None:
                continue
            calls, rets, _ = _flow_function(func, state, ret_out, collect=False)
            for callee, at_call in calls:
                joined = _join(entry_in[callee], at_call)
                if joined != entry_in[callee]:
                    entry_in[callee] = joined
                    changed = True
            if rets != ret_out[func.name]:
                ret_out[func.name] = rets
                changed = True

    issues: List[str] = []
    for func in program.functions():
        state = entry_in[func.name]
        if state is None:
            continue  # never called: structurally dead, not a read bug
        _, _, reads = _flow_function(func, state, ret_out, collect=True)
        issues.extend(reads)
    return issues


def _flow_function(
    func: Function,
    entry_state: FrozenSet[str],
    ret_out: Dict[str, _State],
    collect: bool,
) -> Tuple[List[Tuple[str, _State]], _State, List[str]]:
    """One intra-procedural must-defined pass.

    Returns ``(call_sites, ret_state, issues)`` where ``call_sites``
    is ``[(callee, defined_at_call), ...]``, ``ret_state`` is the join
    over all RET points (``None`` if the function cannot return), and
    ``issues`` is the undefined-read report (only when ``collect``).

    Definedness is monotone along an execution path — a write never
    un-defines anything — so the state after a CALL is the call-site
    state unioned with whatever the callee guarantees at its returns
    (``ret_out``), or top while the callee's returns are unanalysed.
    """
    block_in: Dict[str, _State] = {label: None for label in func.labels()}
    block_in[func.entry_label] = entry_state
    calls: List[Tuple[str, _State]] = []
    rets: _State = None
    issues: List[str] = []

    worklist = [func.entry_label]
    on_list = {func.entry_label}
    while worklist:
        label = worklist.pop(0)
        on_list.discard(label)
        state = block_in[label]
        if state is None:
            continue
        blk = func.block(label)
        defined: _State = state
        for idx, ins in enumerate(blk.instructions):
            if collect and defined is not None:
                for reg in ins.reads:
                    if reg not in defined:
                        issues.append(
                            f"function {func.name!r}, block {blk.label!r}, "
                            f"instruction {idx} ({ins.opcode.name}) reads "
                            f"{reg} which is not defined on every path "
                            f"from program entry"
                        )
            written = ins.writes
            if written is not None and defined is not None:
                defined = defined | {written}
            if ins.opcode is Opcode.CALL:
                assert ins.target is not None
                calls.append((ins.target, defined))
                after = ret_out.get(ins.target)
                defined = None if after is None or defined is None \
                    else defined | after
            elif ins.opcode is Opcode.RET:
                rets = _join(rets, defined)
        for succ in blk.successor_labels():
            joined = _join(block_in[succ], defined)
            if joined != block_in[succ]:
                block_in[succ] = joined
                if succ not in on_list:
                    worklist.append(succ)
                    on_list.add(succ)
    return calls, rets, issues


# ------------------------------------------------------------- partitions


def partition_issues(program: Program, partition) -> List[str]:
    """Single-entry violations of a task partition.

    A task is dynamically entered only at its root, so every
    intra-function CFG edge must either be *internal* to at least one
    task (execution stays inside that task's instance) or land on a
    block some task is rooted at (an inter-task transition).  Tasks
    may overlap — an edge into a block that is a non-root member of
    task T is fine as long as another task carries it internally or
    is rooted at the target.  An edge satisfying neither clause means
    execution could reach the middle of a task region from outside:
    exactly the multi-entry shape the predictors and commit pipeline
    cannot represent.  ``partition`` is a
    :class:`~repro.compiler.task.TaskPartition`; returns issue
    strings (empty = clean).
    """
    roots = set()
    internal = set()
    covered = {program.main_name}
    for task in partition.tasks():
        roots.add(task.root)
        internal.update(task.internal_edges)
        for target in task.targets:
            if target.block is not None and target.kind.value == "call":
                covered.add(target.block[0])

    issues: List[str] = []
    for func in program.functions():
        if func.name not in covered:
            # Only ever entered through absorbed calls (or dead code):
            # its blocks execute inside the absorbing tasks' instances,
            # so it legitimately has no tasks of its own.
            continue
        for blk in func.blocks():
            src: BlockId = (func.name, blk.label)
            for succ in blk.successor_labels():
                dst: BlockId = (func.name, succ)
                if dst in roots or (src, dst) in internal:
                    continue
                issues.append(
                    f"function {func.name!r}: edge "
                    f"{blk.label!r} -> {succ!r} is internal to no task "
                    f"and its target is not a task root (side entry "
                    f"into a task region)"
                )
    return issues
