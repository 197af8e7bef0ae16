"""Distributed vs. centralized comparison (the paper's motivation).

Section 1 argues that a wide centralized window "may be harder to
engineer at high clock speeds due to quadratic wire delays", and that
a distributed Multiscalar organisation with good task selection can
match it.  This harness quantifies the trade on our substrate:

* **distributed** — the paper's machine: N narrow (2-wide) PUs running
  the selected tasks;
* **centralized** — one PU with the aggregate resources (N x issue
  width, N x ROB, N x issue list, N x every FU) executing the same
  program as a single sequential task stream (basic block tasks on one
  PU — no task speculation, no inter-task overheads).

The report includes the *break-even clock factor*: how much faster the
distributed design must clock (paper's premise: it clocks faster, not
slower) for equal performance.  A factor below 1.0 means the
distributed machine already wins at equal clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import HeuristicLevel
from repro.experiments.runner import RunRecord
from repro.harness.cache import ArtifactCache
from repro.harness.ledger import RunLedger
from repro.harness.scheduler import run_specs
from repro.harness.spec import RunSpec
from repro.sim import SimConfig


def centralized_config(n_pus_equiv: int, base: SimConfig = None) -> SimConfig:
    """One PU with the aggregate resources of ``n_pus_equiv`` PUs."""
    base = base or SimConfig()
    return replace(
        base,
        n_pus=1,
        issue_width=base.issue_width * n_pus_equiv,
        fetch_width=base.fetch_width * n_pus_equiv,
        rob_size=base.rob_size * n_pus_equiv,
        issue_list_size=base.issue_list_size * n_pus_equiv,
        int_units=base.int_units * n_pus_equiv,
        fp_units=base.fp_units * n_pus_equiv,
        branch_units=base.branch_units * n_pus_equiv,
        mem_units=base.mem_units * n_pus_equiv,
        l1d=replace(base.l1d, size_bytes=16 * 1024 * n_pus_equiv),
        l1i=replace(base.l1i, size_bytes=16 * 1024 * n_pus_equiv),
    )


@dataclass
class CentralizedResult:
    """Per benchmark: the distributed and centralized run records."""

    n_pus: int = 8
    records: Dict[Tuple[str, str], RunRecord] = field(default_factory=dict)

    def break_even_clock_factor(self, benchmark: str) -> float:
        """Clock ratio at which distributed matches centralized.

        ``centralized_ipc / distributed_ipc``: values below 1.0 mean
        the distributed machine wins even at equal clock.
        """
        dist = self.records[(benchmark, "distributed")]
        cent = self.records[(benchmark, "centralized")]
        if dist.ipc == 0:
            return float("inf")
        return cent.ipc / dist.ipc


def centralized_specs(
    benchmarks: Sequence[str],
    n_pus: int = 8,
    scale: float = 1.0,
) -> Tuple[List[Tuple[str, str]], List[RunSpec]]:
    """The grid's (keys, specs), in the canonical submission order."""
    keys: List[Tuple[str, str]] = []
    specs: List[RunSpec] = []
    for name in benchmarks:
        keys.append((name, "distributed"))
        specs.append(RunSpec(
            benchmark=name, level=HeuristicLevel.DATA_DEPENDENCE,
            n_pus=n_pus, scale=scale,
        ))
        keys.append((name, "centralized"))
        specs.append(RunSpec(
            benchmark=name,
            level=HeuristicLevel.BASIC_BLOCK,  # sequential, no selection
            n_pus=1,
            scale=scale,
            sim=centralized_config(n_pus),
        ))
    return keys, specs


def run_centralized_comparison(
    benchmarks: Sequence[str],
    n_pus: int = 8,
    scale: float = 1.0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
) -> CentralizedResult:
    """Run the distributed vs. centralized grid."""
    keys, specs = centralized_specs(benchmarks, n_pus, scale)
    records = run_specs(specs, jobs=jobs, cache=cache, ledger=ledger,
                        resume=resume)
    result = CentralizedResult(n_pus=n_pus)
    result.records = dict(zip(keys, records))
    return result


def format_centralized(result: CentralizedResult) -> str:
    """Render the comparison report."""
    lines: List[str] = [
        f"== distributed ({result.n_pus} x 2-wide, task speculation) vs "
        f"centralized (1 x {2 * result.n_pus}-wide, no speculation) =="
    ]
    lines.append(
        f"{'benchmark':<12}{'dist IPC':>10}{'cent IPC':>10}"
        f"{'break-even clock':>18}"
    )
    names = sorted({key[0] for key in result.records})
    for name in names:
        dist = result.records[(name, "distributed")]
        cent = result.records[(name, "centralized")]
        factor = result.break_even_clock_factor(name)
        lines.append(
            f"{name:<12}{dist.ipc:>10.2f}{cent.ipc:>10.2f}{factor:>17.2f}x"
        )
    lines.append(
        "break-even clock < 1.0x: the distributed machine wins at equal "
        "clock; above 1.0x it needs its clock-speed advantage."
    )
    return "\n".join(lines)
