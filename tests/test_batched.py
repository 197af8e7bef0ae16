"""Batched-grid equivalence: cells run as one batch vs the reference loop.

A grid runs one way: :func:`repro.harness.scheduler.run_specs` groups
its cells by compile signature, compiles each group once and simulates
every machine configuration of the group back to back on the shared
task stream.  Batching is an execution detail, never a result detail:
every cell of a batch must produce exactly the record the
cycle-by-cycle reference engine produces for that cell run alone,
down to the per-reason cycle breakdown and the telemetry histograms.
These tests run one batch covering every benchmark at every heuristic
level, with sibling machine shapes and forwarding policies sharing the
groups, and hold each checked cell to a lone reference run.
"""

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments.runner import clear_cache, run_benchmark
from repro.harness.cache import ArtifactCache
from repro.harness.scheduler import run_specs
from repro.harness.spec import RunSpec
from repro.sim import SimConfig
from repro.sim.config import ForwardPolicy
from repro.workloads import all_benchmarks

SMALL = 0.1

ALL_BENCHMARKS = [bm.name for bm in all_benchmarks()]
ALL_LEVELS = list(HeuristicLevel)

#: simulated just before each (benchmark, level) cell's 4-PU OoO run
#: in the same group, so state one simulation left on the shared
#: compiled stream would show in the next
_SIBLING = (8, False)

_SHAPES = [(8, True), (4, False), (8, False), (2, True)]

#: every RunRecord field that is a pure function of the simulation
#: (breakdown and metrics are compared separately for readable diffs)
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


def _spec(name, level, n_pus=4, out_of_order=True, sim=None):
    return RunSpec(benchmark=name, level=level, n_pus=n_pus,
                   out_of_order=out_of_order, scale=SMALL, sim=sim)


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    """Every cell this module checks, run as one ``run_specs`` batch."""
    specs = [
        _spec(name, level, *shape)
        for name in ALL_BENCHMARKS
        for level in ALL_LEVELS
        for shape in (_SIBLING, (4, True))
    ]
    specs += [_spec("compress", HeuristicLevel.TASK_SIZE, *shape)
              for shape in _SHAPES]
    specs += [_spec("tomcatv", HeuristicLevel.DATA_DEPENDENCE, 8, True,
                    SimConfig(forward_policy=policy))
              for policy in ForwardPolicy]
    clear_cache()
    cache = ArtifactCache(root=tmp_path_factory.mktemp("cache"))
    records = run_specs(specs, jobs=1, cache=cache)
    return {spec.spec_hash(): record for spec, record in zip(specs, records)}


def assert_equivalent(batch, spec):
    """Demand the batch's record for ``spec`` equal a lone reference run."""
    batched = batch[spec.spec_hash()]
    sim = spec.sim or SimConfig()
    reference = run_benchmark(
        spec.benchmark, spec.level, n_pus=spec.n_pus,
        out_of_order=spec.out_of_order, scale=spec.scale,
        sim=SimConfig(**{**sim.__dict__, "engine": "reference"}),
    )
    label = f"{spec.benchmark}/{spec.level.value}/{spec.n_pus}"
    for field in _RESULT_FIELDS:
        assert getattr(batched, field) == getattr(reference, field), (
            f"{label}: batched.{field}={getattr(batched, field)} != "
            f"reference.{field}={getattr(reference, field)}"
        )
    assert batched.breakdown == reference.breakdown, (
        f"{label}: cycle breakdowns differ"
    )
    assert batched.metrics == reference.metrics, (
        f"{label}: telemetry summaries differ"
    )
    assert batched == reference, f"{label}: records differ"


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
@pytest.mark.parametrize(
    "level", ALL_LEVELS, ids=[lvl.value for lvl in ALL_LEVELS]
)
def test_batched_matches_reference_every_cell(batch, name, level):
    """Bit-identity on every (benchmark, level) cell, 4 PUs OoO."""
    assert_equivalent(batch, _spec(name, level))


@pytest.mark.parametrize("n_pus,out_of_order", _SHAPES)
def test_batched_matches_reference_machine_shapes(batch, n_pus,
                                                  out_of_order):
    """Bit-identity across PU counts and issue disciplines in one group."""
    assert_equivalent(
        batch,
        _spec("compress", HeuristicLevel.TASK_SIZE, n_pus, out_of_order),
    )


@pytest.mark.parametrize("policy", list(ForwardPolicy),
                         ids=[p.value for p in ForwardPolicy])
def test_batched_matches_reference_forward_policies(batch, policy):
    """Bit-identity under every register forwarding policy in one group."""
    assert_equivalent(
        batch,
        _spec("tomcatv", HeuristicLevel.DATA_DEPENDENCE, 8, True,
              SimConfig(forward_policy=policy)),
    )
