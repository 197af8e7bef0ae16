"""Machine presets: one description, one lint, bit-identity.

A preset is a :class:`~repro.sim.config.SimConfig` value, so the
paper's presets *are* the paper's configs (``get_machine("paper-4x2")
== SimConfig()``) and a homogeneous preset cannot fork the
simulator's semantics.  These tests pin that, plus:

* preset identity: each preset's content digest, rebuilding a preset
  from its own field values, ``replace()`` keeping what it was asked
  for, and resizing refused for machines with per-PU profiles;
* the machine lint: every rule in ``SimConfig.__post_init__`` fires
  with an actionable message on a hand-built config;
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
from repro.harness import RunSpec
from repro.harness.spec import digest
from repro.machines import (
    MACHINE_PRESETS,
    get_machine,
    homogeneous,
    machine_names,
    preset_name,
)
from repro.predict import PathPredictor
from repro.predict.taskpred import (
    TASK_PREDICTOR_KINDS,
    GshareTaskPredictor,
    HybridTaskPredictor,
    make_task_predictor,
)
from repro.sim import PUProfile, SimConfig
from repro.sim.config import ForwardPolicy

ENGINES = ("fast", "reference")

#: benchmarks for the paper-preset engine sweep (two int, two fp)
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
# the paper presets are the paper configs


@pytest.mark.parametrize("bench", IDENTITY_BENCHMARKS)
def test_paper_machine_bit_identical_to_legacy(bench):
    """paper-4x2 is the default config, and both engines agree on it."""
    preset = get_machine("paper-4x2")
    assert preset == SimConfig()
    for level in LEVELS:
        identities = {
            engine: record_identity(run_benchmark(
                bench, level, scale=0.2,
                sim=dataclasses.replace(preset, engine=engine),
            ))
            for engine in ENGINES
        }
        assert identities["fast"] == identities["reference"], (
            f"{bench}/{level.value}: the engines diverged on paper-4x2"
        )


def test_paper_8x2_matches_legacy_8pu():
    """The 8-PU paper preset is the paper config sized for 8 PUs, so
    their cells share one identity."""
    assert get_machine("paper-8x2") == SimConfig().scaled_for_pus(8)
    for preset, config in (("paper-4x2", SimConfig()),
                           ("paper-8x2", SimConfig().scaled_for_pus(8))):
        named = RunSpec("compress", HeuristicLevel.TASK_SIZE,
                        sim=get_machine(preset))
        plain = RunSpec("compress", HeuristicLevel.TASK_SIZE, sim=config)
        assert named.spec_hash() == plain.spec_hash()


def test_heterogeneous_presets_differentiate():
    """Non-paper presets must actually move cycles (not silently
    alias the default timing)."""
    base = run_benchmark(
        "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
        sim=get_machine("paper-4x2"),
    ).cycles
    seen = {
        name: run_benchmark(
            "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
            sim=get_machine(name),
        ).cycles
        for name in ("paper-8x1", "big-little-8", "hetero-16")
    }
    for name, cycles in seen.items():
        assert cycles != base, f"{name} did not change the timing"
    # distinct shapes land on distinct cycle counts
    assert len(set(seen.values())) == len(seen)


def test_profiles_and_fields_describe_one_machine():
    """Narrow per-PU profiles on paper-8x2 run exactly as paper-8x1,
    whose own widths are narrow, and not as paper-8x2."""
    narrow = PUProfile(name="narrow", issue_width=1, fetch_width=1)
    configs = {
        "profiled": dataclasses.replace(get_machine("paper-8x2"),
                                        pus=(narrow,) * 8),
        "paper-8x1": get_machine("paper-8x1"),
        "paper-8x2": get_machine("paper-8x2"),
    }
    runs = {
        name: record_identity(run_benchmark(
            "compress", HeuristicLevel.TASK_SIZE, scale=0.2, sim=config,
        ))
        for name, config in configs.items()
    }
    assert runs["profiled"] == runs["paper-8x1"] != runs["paper-8x2"]


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
    ("paper-8x1", "compress", HeuristicLevel.DATA_DEPENDENCE, True, None),
], ids=[
    "big-little-8", "hetero-16", "manycore-32", "manycore-64",
    "m88ksim-bb", "tomcatv-cf", "in-order", "lazy", "schedule",
    "paper-8x1",
])
def test_heterogeneous_machine_engine_identical(machine, bench, level,
                                                out_of_order, policy):
    """Profiles/predictors propagate identically into all engines:
    the native loop's per-PU profiles, hybrid predictor and large-ring
    hop arithmetic match the reference loop's accounting, per-PU
    metrics included."""
    sim_kwargs = {} if policy is None else {"forward_policy": policy}
    identities = {
        engine: record_identity(run_benchmark(
            bench, level, scale=0.2, out_of_order=out_of_order,
            sim=dataclasses.replace(get_machine(machine), engine=engine,
                                    **sim_kwargs),
        ))
        for engine in ENGINES
    }
    assert identities["fast"] == identities["reference"], machine


def test_per_pu_telemetry_shape():
    """metrics['pu'] carries one useful/occupied pair per PU."""
    rec = run_benchmark(
        "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
        sim=get_machine("big-little-8"),
    )
    pu = rec.metrics["pu"]
    assert len(pu["useful"]) == len(pu["occupied"]) == 8
    assert sum(pu["useful"]) > 0
    for useful, occupied in zip(pu["useful"], pu["occupied"]):
        assert 0 <= useful <= occupied


# ---------------------------------------------------------------------------
# preset identity

#: each preset's content digest (``harness.spec.digest``, no salt):
#: an edited preset moves its digest and fails here
PRESET_DIGESTS = {
    "paper-4x2": "e96754e3946c4ffb",
    "paper-8x2": "235eb1675f3d7be4",
    "paper-8x1": "16e6c4fe6a3383d7",
    "big-little-8": "bf59c4c81f7ba49c",
    "hetero-16": "8995af095d1be876",
    "manycore-32": "d84c2d0b288ed067",
    "manycore-64": "86d01771c5f2fd59",
    "manycore-128": "661a2aca0376894f",
}


def test_machine_hash_stability():
    """Digests are content hashes: stable across processes/releases."""
    assert {
        name: digest(config)[:16] for name, config in MACHINE_PRESETS.items()
    } == PRESET_DIGESTS


def test_machine_hash_tracks_content():
    config = get_machine("paper-4x2")
    for changed in (dataclasses.replace(config, predictor="gshare"),
                    dataclasses.replace(config, ring_bandwidth=3)):
        assert digest(changed) != digest(config)


@pytest.mark.parametrize("name", sorted(MACHINE_PRESETS))
def test_round_trip(name):
    """A preset rebuilds from its own field values, and the name it
    was looked up by comes back from the value."""
    preset = get_machine(name)
    values = {f.name: getattr(preset, f.name)
              for f in dataclasses.fields(preset)}
    assert SimConfig(**values) == preset
    assert preset_name(preset) == name


def test_replace_and_resize_a_preset():
    """replace() returns the value asked for; nothing resizes a
    machine with per-PU profiles."""
    manycore = get_machine("manycore-32")
    assert dataclasses.replace(
        manycore, arb_entries_per_pu=4).arb_entries_per_pu == 4
    assert dataclasses.replace(manycore, ring_hop_latency=5).ring_hop_latency == 5
    assert manycore.scaled_for_pus(4).n_pus == 4
    with pytest.raises(ValueError, match="cannot be sized to 4 PUs"):
        get_machine("big-little-8").scaled_for_pus(4)


def test_registry_resolution():
    assert machine_names() == list(MACHINE_PRESETS)
    assert get_machine("hetero-16") is MACHINE_PRESETS["hetero-16"]
    assert preset_name(SimConfig(n_pus=2)) == ""
    with pytest.raises(ValueError, match="unknown machine preset"):
        get_machine("paper-9000")


# ---------------------------------------------------------------------------
# the machine lint


@pytest.mark.parametrize("spec,needle", [
    (dict(n_pus=3), "not a power of two"),
    (dict(n_pus=0), "at least one PU"),
    (dict(ring_bandwidth=0), "ring_bandwidth must be >= 1"),
    (dict(ring_hop_latency=-1), "ring_hop_latency must be >= 0"),
    (dict(arb_latency=0), "arb_latency must be >= 1"),
    (dict(predictor="oracle"), "unknown predictor"),
    (dict(arb_entries_per_pu=-1), "arb_entries_per_pu must be >= 0"),
    (dict(fp_units=0), "at least one unit of each class"),
    (dict(pus=(PUProfile(issue_width=0),) * 4),
     "issue_width must be >= 1"),
    (dict(int_units=0), "at least one unit of each class"),
    (dict(pus=(PUProfile(lat_extra=(1, 2)),) * 4),
     "lat_extra needs 4 entries"),
    (dict(pus=(PUProfile(lat_extra=(0, 0, 0, -1)),) * 4),
     "non-negative int"),
    (dict(pus=(PUProfile(),) * 2), "2 PU profiles for n_pus=4"),
    (dict(pus=(PUProfile(mem_units=0),) * 4),
     "at least one unit of each class"),
])
def test_validation_lint(spec, needle):
    with pytest.raises(ValueError, match=needle):
        SimConfig(**spec)


def test_simconfig_lints_machines_at_construction():
    """replace() re-runs the lint, so a preset cannot be edited into
    a machine no config may be."""
    with pytest.raises(ValueError, match="not a power of two"):
        dataclasses.replace(get_machine("paper-8x2"), n_pus=6)
    with pytest.raises(ValueError, match="4 PU profiles for n_pus=8"):
        dataclasses.replace(get_machine("paper-8x2"),
                            pus=(PUProfile(),) * 4)


def test_all_presets_pass_lint():
    """Every preset takes every predictor kind, and sizing a preset to
    its own PU count changes nothing."""
    for config in MACHINE_PRESETS.values():
        for kind in TASK_PREDICTOR_KINDS:
            dataclasses.replace(config, predictor=kind)  # raises on failure
        assert config.scaled_for_pus(config.n_pus) == config


def test_homogeneous_helper_scales_topology():
    config = homogeneous(64)
    assert config.n_pus == 64
    assert config.ring_hop_latency == 3
    assert config.arb_entries_per_pu == 16
    assert config.l1d.size_bytes == 64 * 16 * 1024
    assert homogeneous(4) == SimConfig()


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


def test_predictor_axis_changes_results_deterministically():
    base = run_benchmark(
        "compress", HeuristicLevel.TASK_SIZE, scale=0.2,
        sim=get_machine("paper-4x2"),
    )
    gshare = dataclasses.replace(get_machine("paper-4x2"), predictor="gshare")
    runs = [
        run_benchmark("compress", HeuristicLevel.TASK_SIZE, scale=0.2,
                      sim=gshare)
        for _ in range(2)
    ]
    assert record_identity(runs[0]) == record_identity(runs[1])
    # trained differently => different mispredictions than path
    assert (runs[0].task_prediction_accuracy
            != base.task_prediction_accuracy)
    assert runs[0].cycles != base.cycles
