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
5. strategy decides absorbed (small) callees;
6. strategy builds the partition — for the paper strategies a
   coverage traversal growing a task at every exposed target, steered
   by :class:`~repro.compiler.data_dependence.DependencePolicy` at
   the DATA_DEPENDENCE / TASK_SIZE levels.

The returned :class:`~repro.compiler.task.TaskPartition` owns the
transformed program (``partition.program``); run and simulate *that*
program, not the input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.compiler.control_flow import GrowthContext
from repro.compiler.heuristics import SelectionConfig
from repro.compiler.strategy import get_strategy
from repro.compiler.task import TaskPartition
from repro.compiler.transforms import clone_program
from repro.ir.asmtext import program_to_text
from repro.ir.cfg import build_cfg
from repro.ir.program import Program
from repro.ir.interp import Trace, run_program
from repro.profiling import Profile, profile_trace


@dataclass
class _Run:
    trace: Trace
    profile: Optional[Profile] = None


class TraceMemo:
    """Functional runs of transformed programs, shared across selections.

    A program's trace depends only on its code and its memory image;
    task selection only decides where that trace is cut into tasks
    (DESIGN.md §5).  Every selection whose transforms yield the same
    program therefore shares one trace, one profile and, through the
    trace, the timing model's trace-only packed arrays.

    Runs are keyed by a digest of :func:`~repro.ir.asmtext.program_to_text`,
    which round-trips the whole program: code, function and block
    order (and so pcs), fallthroughs, ``main_name`` and the memory
    image.  The instruction limit is not part of the key: the
    interpreter raises at its limit, so a trace that exists is
    complete.  A program must never be mutated once its trace is
    memoized.
    """

    def __init__(self) -> None:
        self._runs: Dict[bytes, _Run] = {}

    def _run(self, program: Program, max_instructions: int) -> _Run:
        key = hashlib.sha256(program_to_text(program).encode()).digest()
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = _Run(
                run_program(program, max_instructions=max_instructions)
            )
        return run

    def trace(
        self, program: Program, max_instructions: int = 2_000_000
    ) -> Trace:
        """The trace of ``program``, interpreted on first request."""
        return self._run(program, max_instructions).trace

    def profile(
        self, program: Program, max_instructions: int = 2_000_000
    ) -> Profile:
        """The profile of ``program``'s trace, built on first request."""
        run = self._run(program, max_instructions)
        if run.profile is None:
            run.profile = profile_trace(run.trace)
        return run.profile

    def clear(self) -> None:
        """Forget every run."""
        self._runs.clear()


def select_tasks(
    program: Program,
    config: Optional[SelectionConfig] = None,
    max_profile_instructions: int = 2_000_000,
    traces: Optional[TraceMemo] = None,
) -> TaskPartition:
    """Partition ``program`` into Multiscalar tasks.

    ``traces`` shares functional runs with other selections (and with
    the caller, who can take the measured trace of
    ``partition.program`` from it); without one the call profiles
    through a fresh memo of its own.
    """
    config = config or SelectionConfig()
    strategy = get_strategy(config)
    prog = clone_program(program)
    strategy.transform(prog, config)
    prog.validate()

    profile = None
    if strategy.wants_profile(config):
        memo = traces if traces is not None else TraceMemo()
        profile = memo.profile(prog, max_profile_instructions)

    absorbed: Set[str] = strategy.absorbed_functions(prog, profile, config)

    contexts: Dict[str, GrowthContext] = {
        fn.name: GrowthContext(prog, fn.name, build_cfg(fn), config, absorbed)
        for fn in prog.functions()
    }

    partition = TaskPartition(prog)
    strategy.build(partition, contexts, profile, config)
    partition.validate()
    return partition
