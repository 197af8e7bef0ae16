"""Genome encoding of the task-selection search space.

A genome is one point in the cross product of discrete gene spaces —
every gene value is drawn from a finite tuple, so crossover and
mutation are index operations, the space is enumerable, and a genome
hashes to a stable identity.  Decoding a genome yields the
:class:`~repro.compiler.heuristics.SelectionConfig` a
:class:`~repro.harness.spec.RunSpec` carries through the harness, so
evaluation reuses the entire caching/sharding machinery unchanged.

The paper's TASK_SIZE configuration is itself a genome
(:data:`PAPER_GENOME`, encoded under the ``tunable`` strategy) and is
always seeded into the initial population — the search can therefore
never report a best genome worse than the paper baseline.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.experiments.runner import cell_config
from repro.harness.spec import RunSpec
from repro.machines import get_machine
from repro.predict import TASK_PREDICTOR_KINDS
from repro.sim import SimConfig

#: gene name -> ordered value space (order matters: index-stable draws)
GENE_SPACE: Dict[str, Tuple] = {
    # which selector runs; both honour the full config (strategy docs)
    "strategy": ("tunable", "cost_model"),
    # heuristic machinery enabled (basic_block is the degenerate
    # baseline and never competitive — excluded from the space)
    "level": ("control_flow", "data_dependence", "task_size"),
    # N — successors the prediction hardware tracks
    "max_targets": (1, 2, 3, 4, 6, 8),
    # unroll threshold (static instructions per loop body)
    "loop_thresh": (10, 20, 30, 50, 80),
    # call absorption threshold (mean dynamic callee instructions)
    "call_thresh": (10, 20, 30, 50, 80),
    # unroll factor cap
    "max_unroll": (2, 4, 8, 16),
    # CFG exploration order during growth
    "traversal": ("bfs", "dfs"),
    # induction increment hoisting on/off
    "hoist_induction": (True, False),
    # intra-block communication scheduling on/off
    "schedule_communication": (True, False),
    # machine preset the genome is scored on (registry names; the
    # default is the paper's machine at the campaign's PU count)
    "machine": ("paper-4x2", "paper-8x1", "big-little-8"),
    # inter-task predictor kind wired into the machine
    "predictor": TASK_PREDICTOR_KINDS,
}


@dataclass(frozen=True)
class Genome:
    """One candidate task-selection configuration (all genes)."""

    strategy: str = "tunable"
    level: str = "task_size"
    max_targets: int = 4
    loop_thresh: int = 30
    call_thresh: int = 30
    max_unroll: int = 8
    traversal: str = "bfs"
    hoist_induction: bool = True
    schedule_communication: bool = True
    machine: str = "paper-4x2"
    predictor: str = "path"

    def __post_init__(self) -> None:
        for name, space in GENE_SPACE.items():
            if getattr(self, name) not in space:
                raise ValueError(
                    f"gene {name}={getattr(self, name)!r} outside its "
                    f"space {space}"
                )

    # --------------------------------------------------------- identity

    def as_dict(self) -> Dict:
        return asdict(self)

    def genome_hash(self) -> str:
        """Stable short content hash (ledger / memo / report key)."""
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_dict(cls, payload: Dict) -> "Genome":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})

    # --------------------------------------------------------- decoding

    def to_selection(self) -> SelectionConfig:
        """The selection config this genome decodes to.

        A ``cost_model`` genome scored on a non-paper machine carries
        the machine name as ``machine_hint`` so the growth policy
        reweights for that machine's ring reach and issue width
        (default-machine genomes keep ``""`` and alias the historical
        compile cache).
        """
        machine_hint = ""
        if self.strategy == "cost_model" and self.machine != "paper-4x2":
            machine_hint = self.machine
        return SelectionConfig(
            level=HeuristicLevel(self.level),
            max_targets=self.max_targets,
            call_thresh=self.call_thresh,
            loop_thresh=self.loop_thresh,
            max_unroll=self.max_unroll,
            hoist_induction=self.hoist_induction,
            schedule_communication=self.schedule_communication,
            strategy=self.strategy,
            traversal=self.traversal,
            machine_hint=machine_hint,
        )

    def to_spec(self, benchmark: str, n_pus: int = 4,
                out_of_order: bool = True,
                scale: float = 1.0) -> RunSpec:
        """The harness job evaluating this genome on ``benchmark``, on
        the machine :func:`machine_sim` decodes from its genes."""
        selection = self.to_selection()
        return RunSpec(
            benchmark=benchmark,
            level=selection.level,
            scale=scale,
            selection=selection,
            sim=machine_sim(self.machine, self.predictor, n_pus,
                            out_of_order),
        )


def machine_sim(machine: str, predictor: str = "path", n_pus: int = 4,
                out_of_order: bool = True) -> SimConfig:
    """The machine a (machine, predictor) gene pair decodes to, in the
    campaign's issue order.

    ``paper-4x2`` stands for the paper's machine at the campaign's
    ``n_pus``; every other preset brings its own PU count.
    """
    config = replace(get_machine(machine), predictor=predictor)
    sized = n_pus if machine == "paper-4x2" else None
    return cell_config(config, sized, out_of_order)


#: the paper's TASK_SIZE configuration, encoded as a genome
PAPER_GENOME = Genome()


# ------------------------------------------------------------ operators

def random_genome(rng: random.Random) -> Genome:
    """A uniform draw from the full gene space (one rng draw per gene,
    in ``GENE_SPACE`` order — the draw sequence is part of the
    determinism contract)."""
    values = {name: rng.choice(space) for name, space in GENE_SPACE.items()}
    return Genome(**values)


def mutate(genome: Genome, rng: random.Random,
           rate: float = 0.25) -> Genome:
    """Resample each gene independently with probability ``rate``.

    A mutated gene is redrawn from the *other* values of its space, so
    a mutation draw always changes the gene (no silent no-ops — keeps
    the effective rate honest).
    """
    values = genome.as_dict()
    for name, space in GENE_SPACE.items():
        if rng.random() < rate:
            others = tuple(v for v in space if v != values[name])
            values[name] = rng.choice(others)
    return Genome(**values)


def crossover(a: Genome, b: Genome, rng: random.Random) -> Genome:
    """Uniform crossover: each gene from parent ``a`` or ``b`` with
    equal probability (one draw per gene, ``GENE_SPACE`` order)."""
    da, db = a.as_dict(), b.as_dict()
    values = {
        name: (da[name] if rng.random() < 0.5 else db[name])
        for name in GENE_SPACE
    }
    return Genome(**values)
