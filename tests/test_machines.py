"""The machine-description subsystem: specs, registry, bit-identity.

The subsystem's load-bearing contract is that a machine whose PU
profiles inherit everything is **bit-identical** to the legacy
homogeneous configuration on every engine — the presets merely name
points in config space, they don't fork the simulator.  These tests
pin that, plus:

* spec identity: ``machine_hash`` stability, ``as_dict``/``from_dict``
  round-trips, registry resolution idempotence;
* validation lint: every rule in :func:`validate_machine` fires with
  an actionable message, at registry load shape and on hand-built
  specs;
* the predictor axis: ``path`` decodes to the paper's PathPredictor
  object (the byte-identity anchor), gshare/hybrid learn;
* heterogeneous presets actually differentiate (cycles move) and the
  per-PU utilization telemetry is engine-identical.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments.runner import run_benchmark
from repro.machines import (
    MACHINE_PRESETS,
    MachineSpec,
    MachineSpecError,
    PUProfile,
    get_machine,
    homogeneous,
    machine_names,
    resolve_machine,
    validate_machine,
    with_predictor,
)
from repro.predict import PathPredictor
from repro.predict.taskpred import (
    GshareTaskPredictor,
    HybridTaskPredictor,
    make_task_predictor,
)
from repro.sim import SimConfig
from repro.sim.config import ForwardPolicy

ENGINES = ("fast", "reference")

#: benchmarks for the homogeneous bit-identity sweep (two int, two fp)
IDENTITY_BENCHMARKS = ("compress", "m88ksim", "tomcatv", "swim")

LEVELS = tuple(HeuristicLevel)


def record_identity(record):
    """Everything a RunRecord observably is (cycles + breakdown +
    task shape + telemetry)."""
    return (
        record.cycles,
        record.instructions,
        record.dynamic_tasks,
        record.control_squashes,
        record.memory_squashes,
        repr(record.breakdown),
        record.metrics,
    )


# ---------------------------------------------------------------------------
# homogeneous bit-identity: machine presets vs the legacy config


@pytest.mark.parametrize("bench", IDENTITY_BENCHMARKS)
def test_paper_machine_bit_identical_to_legacy(bench):
    """paper-4x2 through every engine == the pre-machine SimConfig."""
    for level in LEVELS:
        legacy = {}
        for engine in ENGINES:
            rec = run_benchmark(
                bench, level, n_pus=4, scale=0.2,
                sim=SimConfig(engine=engine),
            )
            legacy[engine] = record_identity(rec)
        # engines agree with each other (the repo invariant)...
        assert legacy["fast"] == legacy["reference"]
        for engine in ENGINES:
            rec = run_benchmark(
                bench, level, n_pus=4, scale=0.2,
                sim=SimConfig(engine=engine, machine="paper-4x2"),
            )
            # ...and the named machine changes nothing at all
            assert record_identity(rec) == legacy[engine], (
                f"{bench}/{level.value}@{engine}: paper-4x2 "
                f"diverged from the legacy configuration"
            )


def test_paper_8x2_matches_legacy_8pu():
    """An 8-PU homogeneous preset == scaled legacy config, all engines."""
    for engine in ENGINES:
        legacy = run_benchmark(
            "compress", HeuristicLevel.TASK_SIZE, n_pus=8, scale=0.2,
            sim=SimConfig(engine=engine).scaled_for_pus(8),
        )
        named = run_benchmark(
            "compress", HeuristicLevel.TASK_SIZE, n_pus=8, scale=0.2,
            sim=SimConfig(engine=engine, machine="paper-8x2"),
        )
        assert record_identity(named) == record_identity(legacy)


def test_heterogeneous_presets_differentiate():
    """Non-paper presets must actually move cycles (not silently
    alias the default timing)."""
    base = run_benchmark(
        "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
        sim=SimConfig(machine="paper-4x2"),
    ).cycles
    seen = {
        name: run_benchmark(
            "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
            sim=SimConfig(machine=name),
        ).cycles
        for name in ("paper-8x1", "big-little-8", "hetero-16")
    }
    for name, cycles in seen.items():
        assert cycles != base, f"{name} did not change the timing"
    # distinct shapes land on distinct cycle counts
    assert len(set(seen.values())) == len(seen)


@pytest.mark.parametrize("machine,bench,level,out_of_order,policy", [
    ("big-little-8", "compress", HeuristicLevel.DATA_DEPENDENCE, True, None),
    ("hetero-16", "compress", HeuristicLevel.DATA_DEPENDENCE, True, None),
    ("manycore-32", "compress", HeuristicLevel.DATA_DEPENDENCE, True, None),
    ("manycore-64", "compress", HeuristicLevel.DATA_DEPENDENCE, True, None),
    ("manycore-32", "m88ksim", HeuristicLevel.BASIC_BLOCK, True, None),
    ("manycore-64", "tomcatv", HeuristicLevel.CONTROL_FLOW, True, None),
    ("manycore-32", "m88ksim", HeuristicLevel.TASK_SIZE, False, None),
    ("manycore-32", "tomcatv", HeuristicLevel.DATA_DEPENDENCE, True,
     ForwardPolicy.LAZY),
    ("manycore-32", "tomcatv", HeuristicLevel.DATA_DEPENDENCE, True,
     ForwardPolicy.SCHEDULE),
], ids=[
    "big-little-8", "hetero-16", "manycore-32", "manycore-64",
    "m88ksim-bb", "tomcatv-cf", "in-order", "lazy", "schedule",
])
def test_heterogeneous_machine_engine_identical(machine, bench, level,
                                                out_of_order, policy):
    """Profiles/predictors propagate identically into all engines, and
    on the large rings, where the fast engine sleeps the most PUs, its
    per-PU schedule (deferred stall and imbalance charges) matches the
    reference loop's every-PU, every-cycle accounting, per-PU metrics
    included."""
    sim_kwargs = {} if policy is None else {"forward_policy": policy}
    identities = {
        engine: record_identity(run_benchmark(
            bench, level, scale=0.2, out_of_order=out_of_order,
            sim=SimConfig(engine=engine, machine=machine, **sim_kwargs),
        ))
        for engine in ENGINES
    }
    assert identities["fast"] == identities["reference"], machine


def test_per_pu_telemetry_shape():
    """metrics['pu'] carries one useful/occupied pair per PU."""
    rec = run_benchmark(
        "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
        sim=SimConfig(machine="big-little-8"),
    )
    pu = rec.metrics["pu"]
    assert len(pu["useful"]) == len(pu["occupied"]) == 8
    assert sum(pu["useful"]) > 0
    for useful, occupied in zip(pu["useful"], pu["occupied"]):
        assert 0 <= useful <= occupied


# ---------------------------------------------------------------------------
# spec identity


def test_machine_hash_stability():
    """Hashes are content hashes: stable across processes/releases."""
    assert get_machine("paper-4x2").machine_hash() == "319d8d434f2883d7"
    assert get_machine("big-little-8").machine_hash() == "57a7018deac1dbdf"
    assert get_machine("manycore-32").machine_hash() == "7b70b9311f5e810f"


def test_machine_hash_tracks_content():
    spec = get_machine("paper-4x2")
    assert (with_predictor(spec, "gshare").machine_hash()
            != spec.machine_hash())
    assert (dataclasses.replace(spec, ring_bandwidth=2).machine_hash()
            != spec.machine_hash())


@pytest.mark.parametrize("name", sorted(MACHINE_PRESETS))
def test_round_trip(name):
    spec = get_machine(name)
    clone = MachineSpec.from_dict(spec.as_dict())
    assert clone == spec
    assert clone.machine_hash() == spec.machine_hash()


def test_registry_resolution():
    assert machine_names() == list(MACHINE_PRESETS)
    spec = get_machine("hetero-16")
    assert resolve_machine("hetero-16") is spec
    assert resolve_machine(spec) is spec
    with pytest.raises(ValueError, match="unknown machine preset"):
        get_machine("paper-9000")
    with pytest.raises(TypeError, match="preset name or MachineSpec"):
        resolve_machine(42)


def test_simconfig_resolves_names_and_specs():
    by_name = SimConfig(machine="big-little-8")
    by_spec = SimConfig(machine=get_machine("big-little-8"))
    assert by_name.machine == by_spec.machine
    assert by_name.n_pus == 8
    # machine is authoritative over the scalar topology fields it sets
    assert by_name.machine.machine_hash() == "57a7018deac1dbdf"


# ---------------------------------------------------------------------------
# validation lint


def _machine(**overrides):
    base = dict(name="t", pus=(PUProfile(),) * 4)
    base.update(overrides)
    return MachineSpec(**base)


@pytest.mark.parametrize("spec,needle", [
    (_machine(pus=(PUProfile(),) * 3), "not a power of two"),
    (_machine(pus=()), "at least one PU"),
    (_machine(ring_bandwidth=0), "ring_bandwidth must be >= 1"),
    (_machine(ring_hop_latency=-1), "ring_hop_latency must be >= 0"),
    (_machine(arb_latency=0), "arb_latency must be >= 1"),
    (_machine(predictor="oracle"), "unknown predictor"),
    (_machine(schema_version=99), "schema_version"),
    (_machine(name=""), "non-empty name"),
    (_machine(pus=(PUProfile(issue_width=0),) * 4),
     "issue_width must be >= 1"),
    (_machine(pus=(PUProfile(int_units=0),) * 4),
     "at least one unit of each class"),
    (_machine(pus=(PUProfile(lat_extra=(1, 2)),) * 4),
     "lat_extra needs 4 entries"),
    (_machine(pus=(PUProfile(lat_extra=(0, 0, 0, -1)),) * 4),
     "non-negative int"),
])
def test_validation_lint(spec, needle):
    with pytest.raises(MachineSpecError, match=needle):
        validate_machine(spec)


def test_simconfig_lints_machines_at_construction():
    bad = _machine(pus=(PUProfile(),) * 3)
    with pytest.raises(MachineSpecError, match="not a power of two"):
        SimConfig(machine=bad)


def test_all_presets_pass_lint():
    for spec in MACHINE_PRESETS.values():
        validate_machine(spec)  # raises on failure


def test_homogeneous_helper_scales_topology():
    spec = homogeneous("t-64", 64)
    assert spec.n_pus == 64
    assert spec.ring_hop_latency == 3
    assert spec.arb_entries_per_pu == 16


# ---------------------------------------------------------------------------
# predictor axis


def test_path_predictor_is_the_paper_object():
    """The default kind is the *same class* the paper results use —
    not a wrapper — so its byte streams cannot drift."""
    pred = make_task_predictor("path")
    assert type(pred) is PathPredictor


def test_unknown_predictor_kind_rejected():
    with pytest.raises(ValueError, match="unknown task predictor"):
        make_task_predictor("oracle")


def test_gshare_learns_a_pattern():
    pred = make_task_predictor("gshare")
    assert isinstance(pred, GshareTaskPredictor)
    # the outcome-fed history saturates after history_bits/target_bits
    # updates; past that the index is stable and the entry trains
    for _ in range(12):
        pred.update(0x40, 2)
    assert pred.predict(0x40) == 2
    assert 0.0 < pred.accuracy <= 1.0


def test_gshare_history_is_outcome_fed():
    a, b = GshareTaskPredictor(), GshareTaskPredictor()
    a.update(0x40, 1)
    b.update(0x40, 3)
    # different outcomes => different histories => different indices
    assert a.history != b.history


def test_hybrid_prefers_the_better_component():
    pred = make_task_predictor("hybrid")
    assert isinstance(pred, HybridTaskPredictor)
    for _ in range(16):
        pred.update(0x80, 1)
    assert pred.predict(0x80) == 1
    # both components trained in lockstep
    assert pred.path.predictions == pred.gshare.predictions == 16


def test_with_predictor_rejects_unknown():
    with pytest.raises(MachineSpecError, match="unknown predictor"):
        with_predictor(get_machine("paper-4x2"), "oracle")


def test_predictor_axis_changes_results_deterministically():
    base = run_benchmark(
        "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
        sim=SimConfig(machine="paper-4x2"),
    )
    runs = [
        run_benchmark(
            "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
            sim=SimConfig(
                machine=with_predictor(get_machine("paper-4x2"), "gshare")
            ),
        )
        for _ in range(2)
    ]
    assert record_identity(runs[0]) == record_identity(runs[1])
    # trained differently => different mispredictions than path
    assert runs[0].cycles != 0 and base.cycles != 0
