"""The manycore scaling study: machine preset x heuristic x predictor.

Figure 5 sweeps the paper's 4/8 identical PUs; this grid opens the
machine axis the ROADMAP's scenario frontier names — heterogeneous
big.LITTLE rings, 16-PU mixed machines and 32/64/128-PU manycores
(with ring hop latency and ARB shape scaled by the registry), crossed
with the heuristic levels and the inter-task predictor kind.  The
headline question: does the *ranking* of the selection heuristics
change once the machine stops looking like the paper's — i.e. does
task selection have to be searched per machine?

Per-cell records carry per-PU utilization/occupancy telemetry
(``metrics["pu"]``), so :func:`format_scaling` can show which PUs
starve on heterogeneous presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence, Tuple

from repro.compiler import HeuristicLevel
from repro.experiments.figure5 import LEVELS
from repro.experiments.runner import RunRecord
from repro.harness.spec import RunSpec
from repro.machines import get_machine

#: default machine axis: the paper anchor, both heterogeneity shapes,
#: and the first manycore ring (32 PUs — where acceptance demands a
#: ranking change to be demonstrable)
DEFAULT_MACHINES: Tuple[str, ...] = (
    "paper-4x2",
    "big-little-8",
    "hetero-16",
    "manycore-32",
)

#: default predictor axis (sweep "gshare"/"hybrid" explicitly)
DEFAULT_PREDICTORS: Tuple[str, ...] = ("path",)

#: default workloads: two integer + two fp SPEC95 stand-ins — small
#: enough to keep the 32-PU cells tractable, mixed enough that both
#: suites' behaviour shows
DEFAULT_BENCHMARKS: Tuple[str, ...] = (
    "compress",
    "m88ksim",
    "tomcatv",
    "swim",
)

Key = Tuple[str, str, str, HeuristicLevel]
"""(benchmark, machine preset, predictor, level)."""


@dataclass
class ScalingResult:
    """All runs of the scaling grid, indexed for reporting."""

    records: Dict[Key, RunRecord] = field(default_factory=dict)

    def cycles(self, benchmark: str, machine: str, predictor: str,
               level: HeuristicLevel) -> int:
        return self.records[(benchmark, machine, predictor, level)].cycles

    def ranking(self, benchmark: str, machine: str,
                predictor: str) -> Tuple[str, ...]:
        """Heuristic levels best-first by cycles (ties: level order)."""
        present = [
            level for level in LEVELS
            if (benchmark, machine, predictor, level) in self.records
        ]
        ordered = sorted(
            present,
            key=lambda level: (
                self.cycles(benchmark, machine, predictor, level),
                LEVELS.index(level),
            ),
        )
        return tuple(level.value for level in ordered)

    def ranking_changes(
        self, baseline: str = "paper-4x2"
    ) -> List[Tuple[str, str, str]]:
        """Cells whose heuristic ranking differs from ``baseline``.

        Returns (benchmark, machine, predictor) triples — the concrete
        evidence that selection must be searched per machine.  Cells
        with no ``baseline`` records to compare against are skipped.
        """
        out: List[Tuple[str, str, str]] = []
        pairs = sorted({
            (bench, machine, predictor)
            for bench, machine, predictor, _ in self.records
        })
        for bench, machine, predictor in pairs:
            if machine == baseline:
                continue
            base_key = (bench, baseline, predictor)
            if not any(
                (bench, baseline, predictor, level) in self.records
                for level in LEVELS
            ):
                continue
            if self.ranking(bench, machine, predictor) != self.ranking(
                *base_key
            ):
                out.append((bench, machine, predictor))
        return out

    def utilization(self, key: Key) -> List[float]:
        """Per-PU useful/occupied ratios of one cell (from telemetry)."""
        metrics = self.records[key].metrics or {}
        pu = metrics.get("pu")
        if not pu:
            return []
        return [
            useful / occupied if occupied else 0.0
            for useful, occupied in zip(pu["useful"], pu["occupied"])
        ]


def scaling_specs(
    benchmarks: Sequence[str] = (),
    machines: Sequence[str] = DEFAULT_MACHINES,
    predictors: Sequence[str] = DEFAULT_PREDICTORS,
    levels: Sequence[HeuristicLevel] = LEVELS,
    scale: float = 1.0,
    engine: str = "fast",
) -> Tuple[List[Key], List[RunSpec]]:
    """The grid's (keys, specs) in canonical submission order.

    Machine names resolve through the registry here, and each
    predictor variant is linted as it is built, so a bad name or kind
    fails before any cell is queued; the variants hash distinctly
    because the predictor kind is a config field.
    """
    names = list(benchmarks) or list(DEFAULT_BENCHMARKS)
    keys: List[Key] = []
    specs: List[RunSpec] = []
    for name in names:
        for machine_name in machines:
            preset = get_machine(machine_name)
            for predictor in predictors:
                sim = replace(preset, engine=engine, predictor=predictor)
                for level in levels:
                    keys.append((name, machine_name, predictor, level))
                    specs.append(RunSpec(
                        benchmark=name, level=level, scale=scale, sim=sim,
                    ))
    return keys, specs


def _utilization_summary(utils: List[float]) -> str:
    if not utils:
        return "-"
    return (
        f"{min(utils):.2f}/{sum(utils) / len(utils):.2f}/{max(utils):.2f}"
    )


def format_scaling(result: ScalingResult,
                   baseline: str = "paper-4x2") -> str:
    """Text report: per (machine, predictor) IPC tables, per-PU
    utilization spread, and the heuristic rankings vs ``baseline``."""
    lines: List[str] = []
    pairs = sorted({
        (machine, predictor)
        for _, machine, predictor, _ in result.records
    })
    benchmarks = sorted({key[0] for key in result.records})
    for machine, predictor in pairs:
        try:
            n_pus = get_machine(machine).n_pus
        except ValueError:
            n_pus = 0
        lines.append(
            f"== Scaling — {machine} ({n_pus} PUs), "
            f"{predictor} predictor =="
        )
        header = f"{'benchmark':<12}" + "".join(
            f"{lvl.value:>16}" for lvl in LEVELS
        ) + f"{'pu util lo/av/hi':>20}  ranking"
        lines.append(header)
        for bench in benchmarks:
            row_levels = [
                level for level in LEVELS
                if (bench, machine, predictor, level) in result.records
            ]
            if not row_levels:
                continue
            row = [f"{bench:<12}"]
            for level in LEVELS:
                rec = result.records.get((bench, machine, predictor, level))
                if rec is None:
                    row.append(f"{'-':>16}")
                else:
                    row.append(f"{rec.ipc:>16.2f}")
            best = row_levels[0]
            best_cycles = result.cycles(bench, machine, predictor, best)
            for level in row_levels[1:]:
                cycles = result.cycles(bench, machine, predictor, level)
                if cycles < best_cycles:
                    best, best_cycles = level, cycles
            utils = result.utilization((bench, machine, predictor, best))
            row.append(f"{_utilization_summary(utils):>20}")
            ranking = result.ranking(bench, machine, predictor)
            row.append("  " + " > ".join(ranking))
            lines.append("".join(row))
        lines.append("")
    changes = result.ranking_changes(baseline)
    if not any(key[1] == baseline for key in result.records):
        lines.append(
            f"baseline {baseline} is not in this grid: heuristic "
            f"rankings were not compared"
        )
    elif changes:
        lines.append(f"heuristic ranking changes vs {baseline}:")
        for bench, machine, predictor in changes:
            lines.append(
                f"  {bench}: {machine} ({predictor}) ranks "
                f"{' > '.join(result.ranking(bench, machine, predictor))}"
                f" vs {' > '.join(result.ranking(bench, baseline, predictor))}"
            )
    else:
        lines.append(
            f"no heuristic ranking changes vs {baseline} in this grid"
        )
    return "\n".join(lines)
