"""Trace-based profiler feeding the task-selection heuristics.

:func:`profile_trace` reads the trace's block entries, never its
instructions: block and edge counts, def-use frequencies and call
counts and inclusive sizes all follow from the sequence of entries
and a summary of each static block.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.ir.block import BlockId
from repro.ir.dataflow import DefUseEdge
from repro.ir.instructions import Opcode
from repro.ir.interp import Trace, run_program
from repro.ir.program import Program

DefUseKey = Tuple[str, str, int, str, int, str]
"""Def-use dependence key:
``(function, def_block, def_index, use_block, use_index, register)``."""


@dataclass
class Profile:
    """Aggregated dynamic statistics of one program execution."""

    #: dynamic executions per basic block
    block_counts: Dict[BlockId, int] = field(default_factory=dict)
    #: dynamic traversals per intra-function CFG edge
    edge_counts: Dict[Tuple[BlockId, BlockId], int] = field(default_factory=dict)
    #: dynamic occurrences per register def-use dependence
    defuse_counts: Dict[DefUseKey, int] = field(default_factory=dict)
    #: invocation count per function
    call_counts: Dict[str, int] = field(default_factory=dict)
    #: total dynamic instructions executed inside each function,
    #: inclusive of its callees
    call_cycles: Dict[str, int] = field(default_factory=dict)
    #: total dynamic instructions in the profiled run
    total_instructions: int = 0

    def block_count(self, block: BlockId) -> int:
        """Executions of ``block`` (0 if never executed)."""
        return self.block_counts.get(block, 0)

    def edge_count(self, src: BlockId, dst: BlockId) -> int:
        """Traversals of the intra-function edge ``src -> dst``."""
        return self.edge_counts.get((src, dst), 0)

    def defuse_count(self, function: str, edge: DefUseEdge) -> int:
        """Dynamic frequency of a def-use dependence edge."""
        key = (
            function,
            edge.def_block,
            edge.def_index,
            edge.use_block,
            edge.use_index,
            edge.register,
        )
        return self.defuse_counts.get(key, 0)

    def mean_dynamic_call_size(self, function: str) -> Optional[float]:
        """Average dynamic instructions per invocation of ``function``.

        Inclusive of nested callees.  ``None`` if never invoked.
        """
        count = self.call_counts.get(function, 0)
        if count == 0:
            return None
        return self.call_cycles.get(function, 0) / count


def profile_trace(trace: Trace) -> Profile:
    """Build a :class:`Profile` from an execution trace.

    Walks block entries, not instructions: every entry runs its whole
    block, so each static block is summarized once (see
    :func:`_summarize`) and each entry costs one pass over the block's
    upward-exposed reads and final writes.
    """
    program = trace.program
    entries = trace.block_entries
    summaries: Dict[BlockId, _Summary] = {}
    block_counts: Dict[BlockId, int] = defaultdict(int)
    edge_counts: Dict[Tuple[BlockId, BlockId], int] = defaultdict(int)
    defuse_counts: Dict[DefUseKey, int] = defaultdict(int)
    call_counts: Dict[str, int] = defaultdict(int)
    call_cycles: Dict[str, int] = defaultdict(int)

    def frame_ends(fname: str, opened: int, end: int) -> None:
        if end > opened:
            call_cycles[fname] += end - opened

    main_name = program.main_name
    call_counts[main_name] = 1
    # Open call frames as (function, trace index of its first inst);
    # a frame's inclusive size is its span of the trace.
    frames: List[Tuple[str, int]] = [(main_name, 0)]
    # Call blocks awaiting their return, so a return edge is
    # attributed to the block that made the call.
    call_blocks: List[BlockId] = []
    # last_writer[reg] = (function, block_label, inst_index)
    last_writer: Dict[str, Tuple[str, str, int]] = {}
    prev_block: Optional[BlockId] = None
    prev_term: Optional[Opcode] = None
    CALL, RET = Opcode.CALL, Opcode.RET
    for start, block in entries:
        summary = summaries.get(block)
        if summary is None:
            summary = summaries[block] = _summarize(program, block)
        block_counts[block] += 1
        # Classify the entry by the terminator of the entry before it
        # (none when that block is empty and fell through).
        if prev_term is CALL:
            call_blocks.append(prev_block)
            call_counts[block[0]] += 1
            frames.append((block[0], start))
        elif prev_term is RET:
            if call_blocks:
                edge_counts[(call_blocks.pop(), block)] += 1
            if len(frames) > 1:
                frame_ends(*frames.pop(), start)
        elif prev_block is not None and prev_block[0] == block[0]:
            edge_counts[(prev_block, block)] += 1
        func_name = block[0]
        for reg, use in summary.exposed:
            writer = last_writer.get(reg)
            if writer is not None and writer[0] == func_name:
                defuse_counts[writer + use] += 1
        last_writer.update(summary.final_writes)
        prev_block, prev_term = block, summary.terminator
    # Frames still open at HALT run to the end of the trace.
    for fname, opened in frames:
        frame_ends(fname, opened, len(trace))
    for block, summary in summaries.items():
        times = block_counts[block]
        for key, reads in summary.internal.items():
            defuse_counts[key] += reads * times

    profile = Profile()
    profile.block_counts = dict(block_counts)
    profile.edge_counts = dict(edge_counts)
    profile.defuse_counts = dict(defuse_counts)
    profile.call_counts = dict(call_counts)
    profile.call_cycles = dict(call_cycles)
    profile.total_instructions = len(trace)
    return profile


class _Summary(NamedTuple):
    """What one execution of a static block contributes to a profile."""

    #: (register, (block_label, inst_index, register)) per read of a
    #: register no earlier instruction of the block writes, in order;
    #: an instruction reading a register twice has it twice
    exposed: Tuple[Tuple[str, Tuple[str, int, str]], ...]
    #: def-use key -> reads per execution, for pairs inside the block
    internal: Dict[DefUseKey, int]
    #: register -> (function, block_label, inst_index) of the block's
    #: last write of it
    final_writes: Dict[str, Tuple[str, str, int]]
    #: opcode of the block's control transfer, None if it has none
    terminator: Optional[Opcode]


def _summarize(program: Program, block: BlockId) -> _Summary:
    func_name, label = block
    blk = program.block(block)
    exposed: List[Tuple[str, Tuple[str, int, str]]] = []
    internal: Dict[DefUseKey, int] = defaultdict(int)
    written: Dict[str, int] = {}
    for iidx, ins in enumerate(blk.instructions):
        for reg in ins.reads:
            def_index = written.get(reg)
            if def_index is None:
                exposed.append((reg, (label, iidx, reg)))
            else:
                internal[
                    (func_name, label, def_index, label, iidx, reg)
                ] += 1
        if ins.writes is not None:
            written[ins.writes] = iidx
    final_writes = {
        reg: (func_name, label, iidx) for reg, iidx in written.items()
    }
    term = blk.terminator
    return _Summary(
        tuple(exposed),
        dict(internal),
        final_writes,
        None if term is None else term.opcode,
    )


def profile_program(program: Program, max_instructions: int = 2_000_000) -> Profile:
    """Run ``program`` functionally and profile the resulting trace."""
    return profile_trace(run_program(program, max_instructions=max_instructions))
