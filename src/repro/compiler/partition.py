"""Task selection driver (the paper's ``task_selection()``).

Pipeline (Figure 3, Sections 3.1–3.4):

1. clone the program (transforms never touch the caller's IR);
2. resolve the :class:`~repro.compiler.strategy.SelectionStrategy`
   named by the config (``""`` = the paper reference strategy for
   ``config.level``);
3. strategy transforms (unrolling, hoisting, communication
   scheduling — for the paper strategies exactly the level-gated
   progression of Figure 3);
4. iff the strategy wants a profile (data dependence ranking,
   CALL_THRESH, cost models), take it from the :class:`TraceMemo`:
   the transformed program is interpreted and profiled only the first
   time a selection yields it;
5. take the program's analysis (per function: CFG, def-use chains,
   reachability, dependence ranking) from the same memo entry, built
   the first time a selection yields the program;
6. strategy decides absorbed (small) callees;
7. strategy builds the partition — for the paper strategies a
   coverage traversal growing a task at every exposed target, steered
   by :class:`~repro.compiler.data_dependence.DependencePolicy` at
   the DATA_DEPENDENCE / TASK_SIZE levels.

The returned :class:`~repro.compiler.task.TaskPartition` owns the
transformed program (``partition.program``); run and simulate *that*
program, not the input.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.compiler.control_flow import GrowthContext
from repro.compiler.heuristics import SelectionConfig
from repro.compiler.strategy import get_strategy
from repro.compiler.task import TaskPartition
from repro.compiler.transforms import clone_program
from repro.ir.analysis import FunctionAnalysis, analyze_program
from repro.ir.asmtext import program_to_text
from repro.ir.program import Program
from repro.ir.interp import Trace, run_program
from repro.profiling import Profile, profile_trace


@dataclass
class _Entry:
    """What the memo keeps for one program text, each built on first
    request."""

    trace: Optional[Trace] = None
    profile: Optional[Profile] = None
    analysis: Optional[Dict[str, FunctionAnalysis]] = None


class TraceMemo:
    """Functional runs and analyses of transformed programs, shared
    across selections.

    A program's trace depends only on its code and its memory image;
    task selection only decides where that trace is cut into tasks
    (DESIGN.md §5).  Every selection whose transforms yield the same
    program therefore shares one trace, one profile and the timing
    model's lowering of the trace.  It also shares the program's
    :mod:`~repro.ir.analysis` (per function: the CFG, def-use chains,
    acyclic reachability and the profiled dependence ranking), which
    is built without interpreting the program.

    Entries are keyed by a digest of
    :func:`~repro.ir.asmtext.program_to_text`, which round-trips the
    whole program: code, function and block order (and so pcs),
    fallthroughs, ``main_name`` and the memory image.  The instruction
    limit is not part of the key: the interpreter raises at its limit,
    so a trace that exists is complete.  A program must never be
    mutated once it is memoized, so each program object is rendered
    and digested once (a selection asks for ``partition.program``'s
    analysis, and maybe its profile, and the compile then asks for
    its trace).
    """

    def __init__(self) -> None:
        self._entries: Dict[bytes, _Entry] = {}
        self._digests: "weakref.WeakKeyDictionary[Program, bytes]" = (
            weakref.WeakKeyDictionary()
        )

    def _entry(self, program: Program) -> _Entry:
        key = self._digests.get(program)
        if key is None:
            key = self._digests[program] = hashlib.sha256(
                program_to_text(program).encode()
            ).digest()
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry()
        return entry

    def trace(
        self, program: Program, max_instructions: int = 2_000_000
    ) -> Trace:
        """The trace of ``program``, interpreted on first request."""
        entry = self._entry(program)
        if entry.trace is None:
            entry.trace = run_program(
                program, max_instructions=max_instructions
            )
        return entry.trace

    def profile(
        self, program: Program, max_instructions: int = 2_000_000
    ) -> Profile:
        """The profile of ``program``'s trace, built on first request."""
        entry = self._entry(program)
        if entry.profile is None:
            entry.profile = profile_trace(
                self.trace(program, max_instructions)
            )
        return entry.profile

    def analysis(self, program: Program) -> Dict[str, FunctionAnalysis]:
        """The analysis of each of ``program``'s functions, by name,
        built on first request."""
        entry = self._entry(program)
        if entry.analysis is None:
            entry.analysis = analyze_program(program)
        return entry.analysis

    def clear(self) -> None:
        """Forget every entry."""
        self._entries.clear()
        self._digests.clear()


def select_tasks(
    program: Program,
    config: Optional[SelectionConfig] = None,
    max_profile_instructions: int = 2_000_000,
    traces: Optional[TraceMemo] = None,
) -> TaskPartition:
    """Partition ``program`` into Multiscalar tasks.

    ``traces`` shares functional runs and analyses with other
    selections (and with the caller, who can take the measured trace
    of ``partition.program`` from it); without one the call profiles
    through a fresh memo of its own, and analyses the program without
    digesting it when it does not profile.
    """
    config = config or SelectionConfig()
    strategy = get_strategy(config)
    prog = clone_program(program)
    strategy.transform(prog, config)
    prog.validate()

    profile = None
    if strategy.wants_profile(config):
        if traces is None:
            traces = TraceMemo()
        profile = traces.profile(prog, max_profile_instructions)
    analysis = (
        traces.analysis(prog) if traces is not None
        else analyze_program(prog)
    )

    absorbed: Set[str] = strategy.absorbed_functions(prog, profile, config)

    contexts: Dict[str, GrowthContext] = {
        fn.name: GrowthContext(
            prog, fn.name, analysis[fn.name], config, absorbed
        )
        for fn in prog.functions()
    }

    partition = TaskPartition(prog)
    strategy.build(partition, contexts, profile, config)
    partition.validate()
    return partition
