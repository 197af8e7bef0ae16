"""Dataflow analyses: reaching definitions, def-use chains, liveness.

The data dependence heuristic (Section 3.4) identifies register def-use
dependences "entirely by the compiler using traditional def-use
dataflow equations" and steers task growth along their *codependent
sets* (all blocks on control flow paths from producer to consumer).

Analyses operate per function at block granularity over register
names; memory dependences are deliberately not analysed (the paper
relies on the ARB + synchronisation hardware for those).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.ir.cfg import CFG
from repro.ir.function import Function

DefSite = Tuple[str, int, str]
"""A definition site: ``(block_label, instruction_index, register)``."""


@dataclass(frozen=True)
class DefUseEdge:
    """A register def-use dependence between (possibly equal) blocks."""

    register: str
    def_block: str
    def_index: int
    use_block: str
    use_index: int

    @property
    def crosses_blocks(self) -> bool:
        """True if producer and consumer are in different blocks."""
        return self.def_block != self.use_block


def block_defs_uses(
    function: Function,
) -> Tuple[Dict[str, Dict[str, int]], Dict[str, Set[str]]]:
    """Per block: last definition index per register, and upward-exposed uses.

    Returns ``(defs, uses)`` where ``defs[label][reg]`` is the index of
    the last instruction in ``label`` writing ``reg`` and
    ``uses[label]`` is the set of registers read in ``label`` before
    any local write.
    """
    defs: Dict[str, Dict[str, int]] = {}
    uses: Dict[str, Set[str]] = {}
    for blk in function.blocks():
        local_defs: Dict[str, int] = {}
        exposed: Set[str] = set()
        for idx, ins in enumerate(blk.instructions):
            for reg in ins.reads:
                if reg not in local_defs:
                    exposed.add(reg)
            written = ins.writes
            if written is not None:
                local_defs[written] = idx
        defs[blk.label] = local_defs
        uses[blk.label] = exposed
    return defs, uses


def reaching_definitions(
    function: Function, cfg: CFG
) -> Dict[str, Set[DefSite]]:
    """IN sets of the classic reaching-definitions problem, per block.

    ``result[label]`` is the set of definition sites that reach the
    entry of ``label``.  Only the *last* write of a register in a block
    generates a definition (earlier writes are locally killed).
    """
    defs, _uses = block_defs_uses(function)
    gen: Dict[str, Set[DefSite]] = {}
    kill_regs: Dict[str, Set[str]] = {}
    for label, local in defs.items():
        gen[label] = {(label, idx, reg) for reg, idx in local.items()}
        kill_regs[label] = set(local)

    in_sets: Dict[str, Set[DefSite]] = {lbl: set() for lbl in cfg.rpo}
    out_sets: Dict[str, Set[DefSite]] = {lbl: set(gen.get(lbl, set())) for lbl in cfg.rpo}
    changed = True
    while changed:
        changed = False
        for label in cfg.rpo:
            new_in: Set[DefSite] = set()
            for pred in cfg.preds[label]:
                if pred in out_sets:
                    new_in |= out_sets[pred]
            survivors = {
                site for site in new_in if site[2] not in kill_regs.get(label, set())
            }
            new_out = survivors | gen.get(label, set())
            if new_in != in_sets[label] or new_out != out_sets[label]:
                in_sets[label] = new_in
                out_sets[label] = new_out
                changed = True
    return in_sets


def def_use_chains(function: Function, cfg: CFG) -> List[DefUseEdge]:
    """All register def-use edges of ``function``.

    Intra-block chains connect each use to the closest preceding local
    definition; upward-exposed uses connect to every reaching
    definition from predecessors.  The result is deterministic
    (sorted).
    """
    reach_in = reaching_definitions(function, cfg)
    edges: Set[DefUseEdge] = set()
    for blk in function.blocks():
        if blk.label not in reach_in:
            continue  # unreachable
        # register -> most recent local def index
        local: Dict[str, int] = {}
        reaching_by_reg: Dict[str, List[DefSite]] = {}
        for site in reach_in[blk.label]:
            reaching_by_reg.setdefault(site[2], []).append(site)
        for idx, ins in enumerate(blk.instructions):
            for reg in ins.reads:
                if reg in local:
                    edges.add(
                        DefUseEdge(
                            register=reg,
                            def_block=blk.label,
                            def_index=local[reg],
                            use_block=blk.label,
                            use_index=idx,
                        )
                    )
                else:
                    for def_blk, def_idx, _reg in reaching_by_reg.get(reg, []):
                        edges.add(
                            DefUseEdge(
                                register=reg,
                                def_block=def_blk,
                                def_index=def_idx,
                                use_block=blk.label,
                                use_index=idx,
                            )
                        )
            written = ins.writes
            if written is not None:
                local[written] = idx
    return sorted(
        edges,
        key=lambda e: (e.def_block, e.def_index, e.use_block, e.use_index, e.register),
    )


def live_registers(function: Function, cfg: CFG) -> Dict[str, Set[str]]:
    """Live-in register sets per block (backward liveness analysis).

    Used by the register-communication model: a task need not forward
    registers that are dead at its exits (the paper's "dead register
    analysis").
    """
    defs, uses = block_defs_uses(function)
    live_in: Dict[str, Set[str]] = {lbl: set() for lbl in cfg.rpo}
    live_out: Dict[str, Set[str]] = {lbl: set() for lbl in cfg.rpo}
    changed = True
    while changed:
        changed = False
        for label in reversed(cfg.rpo):
            new_out: Set[str] = set()
            for succ in cfg.succs[label]:
                if succ in live_in:
                    new_out |= live_in[succ]
            new_in = uses[label] | (new_out - set(defs[label]))
            if new_in != live_in[label] or new_out != live_out[label]:
                live_in[label] = new_in
                live_out[label] = new_out
                changed = True
    return live_in


def codependent_set(cfg: CFG, edge: DefUseEdge) -> Set[str]:
    """Blocks on any forward path from producer block to consumer block.

    This is the paper's *codependent set*: to enclose a def-use edge in
    a task, every block on every control-flow path from its producer
    to its consumer must be included (Section 3.4).  For an intra-block
    edge this is just the block itself.  Selection takes the same set
    from a shared :class:`~repro.ir.analysis.FunctionAnalysis`.
    """
    if not edge.crosses_blocks:
        return {edge.def_block}
    return cfg.reachable_between(edge.def_block, edge.use_block)
