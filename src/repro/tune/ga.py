"""Seeded search drivers: genetic algorithm + random-search baseline.

Both drivers evaluate genomes as :class:`~repro.harness.spec.RunSpec`
batches through :func:`~repro.harness.scheduler.run_specs`, so a
generation shards across the worker pool and the content-addressed
artifact cache makes every repeated genome (within or across
campaigns) free.  Fitness is the summed simulated cycles over all
targets — lower is better — with the genome hash as a deterministic
tie-break.

Determinism contract: the only randomness is a ``random.Random(seed)``
whose draw sequence depends solely on (seed, algo, budget, pop_size)
and on fitness values, which are themselves deterministic.  Replaying
a campaign therefore regenerates the identical genome sequence, which
is what makes ledger-based resume (skip evaluations already on disk)
sound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler import HeuristicLevel
from repro.harness.scheduler import run_specs
from repro.harness.spec import RunSpec
from repro.tune.genome import (
    GENE_SPACE,
    Genome,
    PAPER_GENOME,
    crossover,
    machine_sim,
    mutate,
    random_genome,
)
from repro.tune.ledger import TuneLedger

#: tournament size for GA parent selection
TOURNAMENT_K = 3
#: per-gene mutation probability
MUTATION_RATE = 0.25


@dataclass
class TuneResult:
    """Outcome of one tuning campaign."""

    algo: str
    seed: int
    budget: int
    pop_size: int
    generations: int
    targets: List[str]
    #: paper reference (heuristic_3 / TASK_SIZE) the campaign races
    baseline_fitness: int = 0
    baseline_cycles: Dict[str, int] = field(default_factory=dict)
    best_genome: Optional[Genome] = None
    best_hash: str = ""
    best_fitness: int = 0
    best_cycles: Dict[str, int] = field(default_factory=dict)
    #: distinct genomes evaluated (ledger memo hits included)
    evaluations: int = 0
    #: per-generation ``(index, best_hash, best_fitness)``
    history: List[Tuple[int, str, int]] = field(default_factory=list)
    #: per-target RunRecords of the best genome / the baseline, for
    #: report writing (not part of the serialized summary)
    best_records: Dict[str, object] = field(default_factory=dict)
    baseline_records: Dict[str, object] = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        """Did the search beat the paper's heuristic_3 cycles?"""
        return self.best_fitness < self.baseline_fitness

    def improved_targets(self) -> List[str]:
        """Targets where the best genome beats the baseline outright."""
        return [
            t for t in self.targets
            if self.best_cycles.get(t, 0) < self.baseline_cycles.get(t, 0)
        ]


class _Evaluator:
    """Batched, memoized genome evaluation over a fixed target list."""

    def __init__(self, targets: Sequence[str], *, n_pus: int,
                 out_of_order: bool, scale: float, jobs: Optional[int],
                 cache, ledger: Optional[TuneLedger]) -> None:
        self.targets = list(targets)
        self.n_pus = n_pus
        self.out_of_order = out_of_order
        self.scale = scale
        self.jobs = jobs
        self.cache = cache
        self.ledger = ledger
        #: genome_hash -> (fitness, {target: cycles})
        self.memo: Dict[str, Tuple[int, Dict[str, int]]] = {}
        if ledger is not None:
            for ghash, entry in ledger.memo.items():
                self.memo[ghash] = (
                    int(entry["fitness"]), dict(entry["cycles"])
                )

    def specs_for(self, genome: Genome) -> List[RunSpec]:
        return [
            genome.to_spec(target, n_pus=self.n_pus,
                           out_of_order=self.out_of_order, scale=self.scale)
            for target in self.targets
        ]

    def evaluate(self, population: Sequence[Genome],
                 generation: int) -> None:
        """Ensure every genome in ``population`` is in the memo.

        Unevaluated genomes are batched into one ``run_specs`` call
        (genome-major spec order); results and ledger lines are then
        committed in population order — never pool completion order —
        so the ledger byte stream is schedule-independent.
        """
        pending: List[Genome] = []
        seen = set()
        for genome in population:
            ghash = genome.genome_hash()
            if ghash in self.memo or ghash in seen:
                continue
            seen.add(ghash)
            pending.append(genome)
        if pending:
            specs = [
                spec for genome in pending for spec in self.specs_for(genome)
            ]
            records = run_specs(specs, jobs=self.jobs, cache=self.cache)
            per_target = len(self.targets)
            for i, genome in enumerate(pending):
                chunk = records[i * per_target:(i + 1) * per_target]
                cycles = {
                    target: rec.cycles
                    for target, rec in zip(self.targets, chunk)
                }
                self.memo[genome.genome_hash()] = (
                    sum(cycles.values()), cycles
                )
        if self.ledger is not None:
            for genome in population:
                ghash = genome.genome_hash()
                fitness, cycles = self.memo[ghash]
                self.ledger.eval(
                    genome_hash=ghash, genome=genome.as_dict(),
                    generation=generation, fitness=fitness, cycles=cycles,
                )

    def fitness(self, genome: Genome) -> Tuple[int, str]:
        """Total-order fitness key: (cycles, genome hash)."""
        ghash = genome.genome_hash()
        return (self.memo[ghash][0], ghash)


def _baseline_specs(evaluator: _Evaluator, sim) -> List[RunSpec]:
    """The paper heuristic_3 reference cells on machine ``sim``."""
    return [
        RunSpec(benchmark=target, level=HeuristicLevel.TASK_SIZE,
                scale=evaluator.scale, sim=sim)
        for target in evaluator.targets
    ]


def _pinner(machine: Optional[str],
            predictor: Optional[str]) -> Callable[[Genome], Genome]:
    """Gene pinning for the machine axis (``None`` = search the gene).

    Applied *after* every operator (seed, random draw, crossover +
    mutation), never inside one, so the rng draw sequence — one draw
    per gene in ``GENE_SPACE`` order — is untouched and campaigns
    with different pins replay identically gene-for-gene elsewhere.
    """
    updates = {}
    for name, value in (("machine", machine), ("predictor", predictor)):
        if value is None:
            continue
        if value not in GENE_SPACE[name]:
            raise ValueError(
                f"tune {name} must be one of "
                f"{', '.join(map(str, GENE_SPACE[name]))}; got {value!r}"
            )
        updates[name] = value
    if not updates:
        return lambda genome: genome
    return lambda genome: replace(genome, **updates)


def _evaluate_baseline(evaluator: _Evaluator,
                       sim) -> Tuple[int, Dict[str, int]]:
    """The paper's heuristic_3 (TASK_SIZE reference strategy) cycles."""
    specs = _baseline_specs(evaluator, sim)
    records = run_specs(specs, jobs=evaluator.jobs, cache=evaluator.cache)
    cycles = {
        target: rec.cycles
        for target, rec in zip(evaluator.targets, records)
    }
    return sum(cycles.values()), cycles


def _tournament(scored: List[Tuple[Tuple[int, str], Genome]],
                rng: random.Random) -> Genome:
    """Pick the fittest of ``TOURNAMENT_K`` uniform draws."""
    picks = [scored[rng.randrange(len(scored))] for _ in range(TOURNAMENT_K)]
    return min(picks, key=lambda item: item[0])[1]


def tune(
    targets: Sequence[str],
    budget: int = 32,
    seed: int = 1,
    algo: str = "ga",
    jobs: Optional[int] = None,
    pop_size: int = 8,
    ledger: Optional[TuneLedger] = None,
    cache=None,
    n_pus: int = 4,
    out_of_order: bool = True,
    scale: float = 1.0,
    machine: Optional[str] = "paper-4x2",
    predictor: Optional[str] = "path",
) -> TuneResult:
    """Search the selection-genome space for minimal summed cycles.

    ``budget`` counts nominal genome evaluations: the GA runs
    ``ceil(budget / pop_size)`` generations of ``pop_size`` genomes
    (duplicates and memo hits make the *simulated* count lower);
    random search draws ``budget`` genomes.  ``ledger`` enables
    resume — pass a :class:`TuneLedger` over an existing file and
    completed evaluations are replayed from disk.

    ``machine`` / ``predictor`` pin those genes (defaults: the paper
    machine, so historical campaigns replay unchanged); pass ``None``
    to let the search explore the corresponding axis.  The baseline
    races on the pinned machine (or the paper machine while the gene
    floats) — tuning *for* a machine compares against the paper
    heuristic *on* that machine.  ``n_pus`` sizes only ``paper-4x2``.
    """
    if not targets:
        raise ValueError("tune needs at least one target benchmark")
    if algo not in ("ga", "random"):
        raise ValueError(f"unknown tune algorithm {algo!r}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if pop_size < 2:
        raise ValueError("pop_size must be >= 2")
    if n_pus != 4 and machine != "paper-4x2":
        raise ValueError(f"n_pus={n_pus} sizes only the paper-4x2 "
                         f"machine, not machine={machine!r}")
    pin = _pinner(machine, predictor)
    baseline_sim = machine_sim(machine or "paper-4x2", predictor or "path",
                               n_pus, out_of_order)

    if ledger is not None:
        # The header names the machine the baseline runs: a pinned
        # preset other than paper-4x2 brings its own PU count.
        ledger.header(
            seed=seed, algo=algo, budget=budget, pop_size=pop_size,
            targets=list(targets), n_pus=baseline_sim.n_pus,
            out_of_order=baseline_sim.out_of_order, scale=scale,
            machine=machine, predictor=predictor,
        )

    evaluator = _Evaluator(
        targets, n_pus=n_pus, out_of_order=out_of_order, scale=scale,
        jobs=jobs, cache=cache, ledger=ledger,
    )
    baseline_fitness, baseline_cycles = _evaluate_baseline(
        evaluator, baseline_sim
    )
    if ledger is not None:
        ledger.baseline(
            genome=PAPER_GENOME.as_dict(), fitness=baseline_fitness,
            cycles=baseline_cycles,
        )

    rng = random.Random(seed)
    generations = max(1, math.ceil(budget / pop_size))
    result = TuneResult(
        algo=algo, seed=seed, budget=budget, pop_size=pop_size,
        generations=generations, targets=list(targets),
        baseline_fitness=baseline_fitness, baseline_cycles=baseline_cycles,
    )

    #: every genome considered, in first-seen order (dedup by hash)
    seen: Dict[str, Genome] = {}

    def note(population: Sequence[Genome]) -> None:
        for genome in population:
            seen.setdefault(genome.genome_hash(), genome)

    if algo == "random":
        draws = [pin(PAPER_GENOME)] + [
            pin(random_genome(rng)) for _ in range(budget - 1)
        ]
        for gen in range(generations):
            chunk = draws[gen * pop_size:(gen + 1) * pop_size]
            if not chunk:
                break
            evaluator.evaluate(chunk, gen)
            note(chunk)
            gen_best = min(chunk, key=evaluator.fitness)
            key = evaluator.fitness(gen_best)
            result.history.append((gen, key[1], key[0]))
            if ledger is not None:
                ledger.generation(
                    index=gen, best_hash=key[1], best_fitness=key[0]
                )
    else:
        population: List[Genome] = [pin(PAPER_GENOME)] + [
            pin(random_genome(rng)) for _ in range(pop_size - 1)
        ]
        for gen in range(generations):
            evaluator.evaluate(population, gen)
            note(population)
            scored = sorted(
                ((evaluator.fitness(g), g) for g in population),
                key=lambda item: item[0],
            )
            best_key, best_genome = scored[0]
            result.history.append((gen, best_key[1], best_key[0]))
            if ledger is not None:
                ledger.generation(
                    index=gen, best_hash=best_key[1],
                    best_fitness=best_key[0],
                )
            if gen == generations - 1:
                break
            # elitism: the generation's best survives unchanged
            offspring: List[Genome] = [best_genome]
            while len(offspring) < pop_size:
                parent_a = _tournament(scored, rng)
                parent_b = _tournament(scored, rng)
                child = crossover(parent_a, parent_b, rng)
                child = mutate(child, rng, rate=MUTATION_RATE)
                offspring.append(pin(child))
            population = offspring

    best_hash, best_genome = min(
        seen.items(), key=lambda item: (evaluator.memo[item[0]][0], item[0])
    )
    result.best_genome = best_genome
    result.best_hash = best_hash
    result.best_fitness = evaluator.memo[best_hash][0]
    result.best_cycles = dict(evaluator.memo[best_hash][1])
    result.evaluations = len(seen)
    if ledger is not None:
        ledger.best(
            genome_hash=best_hash, genome=best_genome.as_dict(),
            fitness=result.best_fitness, baseline_fitness=baseline_fitness,
        )

    # Full RunRecords for report writing (pure cache hits by now).
    best_specs = evaluator.specs_for(best_genome)
    base_specs = _baseline_specs(evaluator, baseline_sim)
    best_recs = run_specs(best_specs, jobs=1, cache=cache)
    base_recs = run_specs(base_specs, jobs=1, cache=cache)
    result.best_records = dict(zip(targets, best_recs))
    result.baseline_records = dict(zip(targets, base_recs))
    return result
