"""Tests of the execution harness: hashing, cache, ledger, scheduler."""

import pickle
import random
from dataclasses import replace

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.experiments import ablations, clear_cache
from repro.experiments.breakdown import breakdown_specs
from repro.experiments.centralized import centralized_specs
from repro.experiments.figure5 import figure5_specs
from repro.experiments.runner import _compile_cache, cell_config
from repro.experiments.scaling import scaling_specs
from repro.experiments.table1 import table1_specs
from repro.harness import (
    ArtifactCache,
    HarnessError,
    RunLedger,
    RunSpec,
    read_ledger,
    record_to_dict,
    run_specs,
)
from repro.harness.spec import digest
from repro.sim import SimConfig
from repro.synth.campaign import fuzz_specs
from repro.tune.genome import PAPER_GENOME, random_genome

SMALL = 0.1


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    clear_cache()
    yield
    clear_cache()


def small_specs(n_pus=(2, 4), levels=(HeuristicLevel.CONTROL_FLOW,)):
    return [
        RunSpec("compress", level, scale=SMALL, sim=cell_config(n_pus=n))
        for level in levels
        for n in n_pus
    ]


class TestSpecHashing:
    def test_hash_is_deterministic(self):
        a = RunSpec("compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL)
        b = RunSpec("compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL)
        assert a.spec_hash("salt") == b.spec_hash("salt")
        assert a.compile_hash("salt") == b.compile_hash("salt")

    def test_salt_changes_hash(self):
        spec = RunSpec("compress", HeuristicLevel.CONTROL_FLOW)
        assert spec.spec_hash("a") != spec.spec_hash("b")

    def test_machine_fields_do_not_change_compile_hash(self):
        a = RunSpec("compress", HeuristicLevel.CONTROL_FLOW,
                    sim=cell_config(n_pus=4))
        b = RunSpec("compress", HeuristicLevel.CONTROL_FLOW,
                    sim=cell_config(n_pus=8))
        assert a.compile_hash() == b.compile_hash()
        assert a.spec_hash() != b.spec_hash()

    def test_every_selection_field_feeds_compile_hash(self):
        base = RunSpec(
            "compress",
            HeuristicLevel.TASK_SIZE,
            selection=SelectionConfig(level=HeuristicLevel.TASK_SIZE),
        )
        for change in (
            {"max_targets": 2},
            {"call_thresh": 10},
            {"loop_thresh": 10},
            {"max_unroll": 1},
            {"hoist_induction": False},
            {"schedule_communication": False},
            {"max_dependences": 7},
        ):
            variant = replace(base, selection=replace(base.selection, **change))
            assert variant.compile_hash() != base.compile_hash(), change

    def test_sim_config_feeds_spec_hash_only(self):
        a = RunSpec("compress", HeuristicLevel.CONTROL_FLOW)
        b = replace(a, sim=SimConfig(sync_table_size=0))
        assert a.compile_hash() == b.compile_hash()
        assert a.spec_hash() != b.spec_hash()

    def test_default_sim_hashes_like_explicit_default(self):
        a = RunSpec("compress", HeuristicLevel.CONTROL_FLOW)
        b = replace(a, sim=SimConfig())
        assert a.spec_hash() == b.spec_hash()

    def test_memoized_hashes_equal_the_digests(self):
        """A spec keeps its encoding after the first hash; every later
        hash, of a pickled copy or of a replaced spec too, is still the
        digest of the fields the spec holds then."""

        def assert_digests(spec):
            for salt in ("", "salt"):
                assert spec.spec_hash(salt) == digest(
                    ("run", spec.compile_signature(), spec.sim), salt
                )
                assert spec.compile_hash(salt) == digest(
                    spec.compile_signature(), salt
                )

        names = ("compress", "tomcatv")
        specs = []
        for build in (figure5_specs, scaling_specs, table1_specs,
                      breakdown_specs, centralized_specs,
                      ablations.max_targets_specs,
                      ablations.thresholds_specs,
                      ablations.sync_table_specs,
                      ablations.arb_size_specs,
                      ablations.forward_policy_specs,
                      ablations.profile_input_specs):
            specs += build(names, scale=SMALL)[1]
        specs += fuzz_specs(2, strategies=("cost_model",),
                            machines=("big-little-8",))[0]
        rng = random.Random(1)
        genomes = [PAPER_GENOME] + [random_genome(rng) for _ in range(8)]
        specs += [g.to_spec("compress", scale=SMALL) for g in genomes]
        for spec in specs:
            assert_digests(spec)
            assert_digests(spec)
            assert_digests(pickle.loads(pickle.dumps(spec)))
            moved = replace(spec, scale=spec.scale * 2)
            assert_digests(moved)
            assert moved.spec_hash() != spec.spec_hash()
            assert moved.compile_hash() != spec.compile_hash()


class TestArtifactCache:
    def test_round_trip_is_a_hit_with_equal_records(self, tmp_path):
        specs = small_specs()
        cache = ArtifactCache(tmp_path, salt="s")
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        first = run_specs(specs, jobs=1, cache=cache, ledger=ledger)
        clear_cache()  # drop in-memory compilations: only the disk cache left
        second = run_specs(specs, jobs=1, cache=cache, ledger=ledger)
        assert first == second
        assert not _compile_cache.compiled  # the warm pass recompiled nothing
        entries = read_ledger(tmp_path / "ledger.jsonl")
        assert [e["cache"] for e in entries] == ["miss", "miss", "hit", "hit"]
        assert all(e["outcome"] == "ok" for e in entries)

    def test_machine_sweep_shares_one_compiled_artifact(self, tmp_path):
        cache = ArtifactCache(tmp_path, salt="s")
        run_specs(small_specs(n_pus=(2, 4)), jobs=1, cache=cache)
        stats = cache.stats()
        assert stats["records"] == 2
        assert stats["compiled"] == 1

    def test_salt_change_invalidates(self, tmp_path):
        specs = small_specs(n_pus=(2,))
        run_specs(specs, jobs=1, cache=ArtifactCache(tmp_path, salt="v1"))
        clear_cache()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        run_specs(specs, jobs=1,
                  cache=ArtifactCache(tmp_path, salt="v2"), ledger=ledger)
        entries = read_ledger(tmp_path / "ledger.jsonl")
        assert [e["cache"] for e in entries] == ["miss"]

    def test_torn_pickle_is_a_miss(self, tmp_path):
        specs = small_specs(n_pus=(2,))
        cache = ArtifactCache(tmp_path, salt="s")
        run_specs(specs, jobs=1, cache=cache)
        for path in cache.records_dir.glob("*.pkl"):
            path.write_bytes(b"\x80garbage")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get_record(specs[0]) is None

    def test_clear_removes_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path, salt="s")
        ledger = RunLedger(cache.ledger_path)
        run_specs(small_specs(n_pus=(2,)), jobs=1, cache=cache, ledger=ledger)
        assert cache.clear() > 0
        stats = cache.stats()
        assert stats["records"] == 0 and stats["compiled"] == 0
        assert not cache.ledger_path.exists()


# -- injectable fake workers (module-level so they are picklable) ------

_FAILING_CALLS = {"n": 0}


def _always_failing_worker(spec):
    _FAILING_CALLS["n"] += 1
    raise RuntimeError("permanent failure")


class TestSchedulerFaults:
    def test_retries_exhausted_raises(self, tmp_path):
        """A failing group runs once: the simulator is deterministic,
        so a retry would only repeat the failure."""
        _FAILING_CALLS["n"] = 0
        spec = RunSpec("compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL)
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(HarnessError, match="permanent failure") as exc:
            run_specs([spec], jobs=1, worker=_always_failing_worker,
                      ledger=ledger)
        assert _FAILING_CALLS["n"] == 1
        assert [failed for failed, _ in exc.value.failures] == [spec]
        assert spec.describe() in str(exc.value)
        [entry] = read_ledger(tmp_path / "ledger.jsonl")
        assert entry["outcome"] == "error"
        assert entry["retries"] == 0
        assert "permanent failure" in entry["error"]

    def test_failure_does_not_poison_other_groups(self, tmp_path):
        specs = [
            RunSpec("compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL),
            RunSpec("compress", HeuristicLevel.BASIC_BLOCK, scale=SMALL),
        ]
        with pytest.raises(HarnessError) as excinfo:
            run_specs(specs, jobs=1, worker=_always_failing_worker)
        assert len(excinfo.value.failures) == 2

    def test_pool_failures_are_recorded_once_per_cell(self, tmp_path):
        specs = small_specs(
            levels=(HeuristicLevel.CONTROL_FLOW, HeuristicLevel.BASIC_BLOCK)
        )
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        with pytest.raises(HarnessError) as excinfo:
            run_specs(specs, jobs=2, worker=_always_failing_worker,
                      ledger=ledger)
        assert [spec for spec, _ in excinfo.value.failures] == specs
        entries = read_ledger(tmp_path / "ledger.jsonl")
        assert [e["outcome"] for e in entries] == ["error"] * len(specs)
        assert not [e for e in entries if e.get("event") == "pool_broken"]


class TestSchedulerEquivalence:
    def test_jobs2_processes_match_jobs1(self):
        specs = small_specs(
            n_pus=(2, 4),
            levels=(HeuristicLevel.BASIC_BLOCK, HeuristicLevel.CONTROL_FLOW),
        )
        serial = run_specs(specs, jobs=1)
        clear_cache()
        parallel = run_specs(specs, jobs=2)
        assert serial == parallel

    def test_records_align_with_specs(self):
        specs = small_specs(n_pus=(4, 2))
        records = run_specs(specs, jobs=1)
        assert [r.n_pus for r in records] == [4, 2]
        assert all(r.benchmark == "compress" for r in records)

    def test_no_spec_hashes_without_a_cache_or_ledger(self, monkeypatch):
        """Only ledger lines carry spec hashes, so a run with neither a
        cache nor a ledger computes none."""
        specs = small_specs(n_pus=(4, 2))
        expected = [record_to_dict(r) for r in run_specs(specs, jobs=1)]
        clear_cache()

        def refuse(spec, salt=""):
            raise AssertionError("spec_hash called")

        monkeypatch.setattr(RunSpec, "spec_hash", refuse)
        records = run_specs(specs, jobs=1)
        assert [record_to_dict(r) for r in records] == expected


class TestSerialization:
    def test_record_to_dict_round_trips_key_fields(self):
        records = run_specs(small_specs(n_pus=(2,)), jobs=1)
        as_dict = record_to_dict(records[0])
        assert as_dict["benchmark"] == "compress"
        assert as_dict["level"] == "control_flow"
        assert as_dict["n_pus"] == 2
        assert as_dict["ipc"] == pytest.approx(records[0].ipc)
        assert set(as_dict["breakdown"]) >= {"useful", "idle"}


# -- every builder's record names the machine that ran ------------------

TINY = 0.05
DD = HeuristicLevel.DATA_DEPENDENCE


def _builder_specs():
    """One ``(specs, worker)`` param per spec builder, at a tiny scale."""
    from repro import bench
    from repro.experiments import ablations
    from repro.experiments.breakdown import breakdown_specs
    from repro.experiments.centralized import centralized_specs
    from repro.experiments.figure5 import figure5_specs
    from repro.experiments.scaling import scaling_specs
    from repro.experiments.table1 import table1_specs
    from repro.harness import execute_spec
    from repro.synth.campaign import execute_fuzz_spec, fuzz_specs
    from repro.tune.genome import GENE_SPACE, Genome

    bench_ = ["compress"]
    micro = bench.GRIDS["micro"]
    rows = [
        ("figure5", figure5_specs(bench_, scale=TINY)[1]),
        ("table1", table1_specs(bench_, scale=TINY)[1]),
        ("breakdown", breakdown_specs(bench_, scale=TINY)[1]),
        ("centralized", centralized_specs(bench_, scale=TINY)[1]),
        ("scaling", scaling_specs(bench_, ("paper-4x2", "big-little-8"),
                                  levels=(DD,), scale=TINY)[1]),
        ("micro", figure5_specs(micro.benchmarks, micro.configs,
                                scale=micro.scale)[1]),
        ("genome", [Genome(machine=m).to_spec("compress", scale=TINY)
                    for m in GENE_SPACE["machine"]]),
    ]
    rows += [
        (name, getattr(ablations, f"{name}_specs")(bench_, scale=TINY)[1])
        for name in ("max_targets", "thresholds", "sync_table", "arb_size",
                     "forward_policy", "profile_input")
    ]
    fuzz = fuzz_specs(1, levels=(), machines=("big-little-8",))[0]
    return [pytest.param(specs, execute_spec, id=name)
            for name, specs in rows] + [
        pytest.param(fuzz, execute_fuzz_spec, id="fuzz")
    ]


@pytest.mark.parametrize("specs, worker", _builder_specs())
def test_every_builder_record_names_its_machine(specs, worker):
    """The machine a spec builds is ``spec.sim`` unchanged, and the
    record reports that machine's PU count and issue order."""
    from repro.experiments.runner import cell_machine

    for spec, record in zip(specs, run_specs(specs, jobs=1,
                                             worker=worker)):
        _, machine = cell_machine(spec)
        assert machine.config == spec.sim, spec.describe()
        assert (record.n_pus, record.out_of_order) == (
            spec.sim.n_pus, spec.sim.out_of_order
        ), spec.describe()
        assert record.n_pus == len(record.metrics["pu"]["useful"])
