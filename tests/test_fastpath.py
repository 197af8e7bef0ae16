"""Fast-engine equivalence: event-driven core vs the reference loop.

The fast engine's only licence to exist is bit-identity: every
(benchmark, level, machine) cell must produce exactly the same
``SimResult`` — cycles, committed instructions, squash counts, the
full per-reason cycle breakdown — as the cycle-by-cycle reference
loop.  These tests sweep every benchmark at every heuristic level,
vary the machine shape and the forwarding policy, and run the
reliability subsystem's fault sweeps against the fast engine, so a
skip-logic bug cannot hide behind aggregate statistics.
"""

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments.runner import run_benchmark
from repro.harness.spec import RunSpec
from repro.reliability import verify_grid, verify_workload
from repro.sim import SimConfig
from repro.sim.config import ForwardPolicy
from repro.sim.machine import SimulationStuck
from repro.workloads import all_benchmarks

SMALL = 0.1

ALL_BENCHMARKS = [bm.name for bm in all_benchmarks()]
ALL_LEVELS = list(HeuristicLevel)

#: every RunRecord field that is a pure function of the simulation
#: (breakdown is compared separately for a readable diff)
_RESULT_FIELDS = (
    "cycles",
    "instructions",
    "ipc",
    "dynamic_tasks",
    "task_prediction_accuracy",
    "branch_prediction_accuracy",
    "control_squashes",
    "memory_squashes",
    "mean_window_span_measured",
)


def assert_equivalent(name, level, **kwargs):
    """Run one cell on both engines and demand identical results."""
    fast = run_benchmark(name, level, **kwargs)
    sim = kwargs.pop("sim", None) or SimConfig()
    reference = run_benchmark(
        name, level, sim=SimConfig(
            **{**sim.__dict__, "engine": "reference"}
        ), **kwargs,
    )
    for field in _RESULT_FIELDS:
        assert getattr(fast, field) == getattr(reference, field), (
            f"{name}/{level.value}: fast.{field}="
            f"{getattr(fast, field)} != reference.{field}="
            f"{getattr(reference, field)}"
        )
    assert fast.breakdown == reference.breakdown, (
        f"{name}/{level.value}: cycle breakdowns differ"
    )


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
@pytest.mark.parametrize(
    "level", ALL_LEVELS, ids=[lvl.value for lvl in ALL_LEVELS]
)
def test_fast_matches_reference_every_cell(name, level):
    """Bit-identity on every (benchmark, level) cell, 4 PUs OoO."""
    assert_equivalent(name, level, n_pus=4, out_of_order=True, scale=SMALL)


@pytest.mark.parametrize("n_pus,out_of_order",
                         [(8, True), (4, False), (8, False), (2, True)])
def test_fast_matches_reference_machine_shapes(n_pus, out_of_order):
    """Bit-identity across PU counts and issue disciplines."""
    assert_equivalent(
        "compress", HeuristicLevel.TASK_SIZE,
        n_pus=n_pus, out_of_order=out_of_order, scale=SMALL,
    )


@pytest.mark.parametrize("policy", list(ForwardPolicy),
                         ids=[p.value for p in ForwardPolicy])
def test_fast_matches_reference_forward_policies(policy):
    """Bit-identity under every register forwarding policy."""
    assert_equivalent(
        "tomcatv", HeuristicLevel.DATA_DEPENDENCE,
        n_pus=8, out_of_order=True, scale=SMALL,
        sim=SimConfig(forward_policy=policy),
    )


@pytest.mark.parametrize("name,level", [
    ("compress", HeuristicLevel.DATA_DEPENDENCE),
    ("m88ksim", HeuristicLevel.CONTROL_FLOW),
    ("tomcatv", HeuristicLevel.TASK_SIZE),
])
def test_fast_bulk_charging_sums_per_category(name, level):
    """Bulk-charged skipped cycles land in the right Figure-2 buckets.

    The fast engine charges a whole skipped span to each PU's current
    stall category in one addition; this checks the per-category
    totals — not just the aggregate — against the reference engine's
    cycle-by-cycle accounting, and that both engines attribute every
    PU-cycle (categories + squash penalties + idle sum to the same
    grand total).
    """
    fast = run_benchmark(name, level, n_pus=4, scale=SMALL)
    reference = run_benchmark(
        name, level, n_pus=4, scale=SMALL,
        sim=SimConfig(engine="reference"),
    )
    fast_dict = fast.breakdown.as_dict()
    ref_dict = reference.breakdown.as_dict()
    for category in ref_dict:
        assert fast_dict[category] == ref_dict[category], (
            f"{name}/{level.value}: category {category}: "
            f"fast={fast_dict[category]} reference={ref_dict[category]}"
        )
    assert (
        fast.breakdown.total_pu_cycles
        == reference.breakdown.total_pu_cycles
    )


def test_fault_sweep_on_fast_engine():
    """Seeded fault injection exercises recovery on the fast path.

    A fault plan disables cycle skipping (events are injected from
    outside the machine's event horizon), but the run still goes
    through the fast engine's probe loop — the oracle and invariant
    monitors must stay green.
    """
    report = verify_workload(
        "compress", HeuristicLevel.CONTROL_FLOW, n_pus=4,
        scale=SMALL, faults=10, seed=7,
    )
    assert report.ok, report.summary()
    assert report.faults_injected > 0


def test_verify_grid_defaults_to_fast_engine():
    """repro verify runs the oracle against the fast engine."""
    reports = verify_grid(
        benchmarks=["m88ksim"],
        levels=[HeuristicLevel.BASIC_BLOCK, HeuristicLevel.TASK_SIZE],
        scale=SMALL, faults=3, seed=11,
    )
    assert len(reports) == 2
    assert all(r.ok for r in reports), [r.summary() for r in reports]


def test_verify_grid_reference_engine_matches():
    """The reference engine passes the same oracle checks."""
    reports = verify_grid(
        benchmarks=["m88ksim"], levels=[HeuristicLevel.TASK_SIZE],
        scale=SMALL, engine="reference",
    )
    assert all(r.ok for r in reports), [r.summary() for r in reports]


def test_stuck_exception_names_the_workload():
    """SimulationStuck must say which run died, where, and on what."""
    with pytest.raises(SimulationStuck) as exc_info:
        run_benchmark(
            "compress", HeuristicLevel.BASIC_BLOCK, n_pus=4,
            scale=SMALL, sim=SimConfig(max_cycles=50),
        )
    message = str(exc_info.value)
    assert "compress/basic_block/4ooo" in message
    assert "cycle" in message
    assert "engine=" in message
    assert "retired" in message


def test_stuck_exception_reference_engine():
    with pytest.raises(SimulationStuck) as exc_info:
        run_benchmark(
            "compress", HeuristicLevel.BASIC_BLOCK, n_pus=4,
            scale=SMALL,
            sim=SimConfig(max_cycles=50, engine="reference"),
        )
    assert "engine=reference" in str(exc_info.value)


def test_engine_salts_the_cache_key():
    """Fast and reference runs must never alias one cache entry."""
    base = RunSpec(benchmark="compress", level=HeuristicLevel.BASIC_BLOCK)
    fast = RunSpec(
        benchmark="compress", level=HeuristicLevel.BASIC_BLOCK,
        sim=SimConfig(engine="fast"),
    )
    reference = RunSpec(
        benchmark="compress", level=HeuristicLevel.BASIC_BLOCK,
        sim=SimConfig(engine="reference"),
    )
    # default sim is the fast engine, spelled out or not
    assert base.spec_hash() == fast.spec_hash()
    assert base.spec_hash() != reference.spec_hash()


def test_engine_rejects_unknown_value():
    with pytest.raises(ValueError):
        SimConfig(engine="warp")
    with pytest.raises(ValueError, match="fast, reference"):
        SimConfig(engine="batched")


def test_bench_annotates_speedup():
    """BENCH records carry the fast-vs-reference wall-time ratio."""
    from repro.bench import _annotate_speedups, format_record

    def entry(engine, wall_s):
        return {"grid": "smoke", "engine": engine, "wall_s": wall_s,
                "cells": 1, "sim_cycles": 10,
                "cycles_per_s": 10 / wall_s}

    record = {"grids": {
        "smoke@fast": entry("fast", 4.0),
        "smoke@reference": entry("reference", 6.0),
    }}
    _annotate_speedups(record)
    assert record["speedup"] == {"smoke": 1.5}
    assert "fast vs reference" in format_record(record)
