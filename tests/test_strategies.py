"""The SelectionStrategy refactor: bit-identity + new strategies.

The paper's four heuristic levels became *reference strategies*
dispatched through :mod:`repro.compiler.strategy`; these tests pin
the refactor's contract:

* a default config (``strategy=""``) and the explicitly named
  reference strategy of the same level are the *same code path* —
  identical partitions on every registry benchmark and corpus
  program, identical RunRecords byte-for-byte on a simulated subset;
* ``SelectionConfig.cache_key()`` never collides across distinct
  configs (the ``astuple`` extensibility hazard, fixed);
* the new ``tunable`` and ``cost_model`` strategies produce valid
  partitions and honour their genes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.compiler import (
    HeuristicLevel,
    SelectionConfig,
    get_strategy,
    register_strategy,
    select_tasks,
    strategy_names,
)
from repro.compiler.strategy import (
    CostModelStrategy,
    PaperStrategy,
    REFERENCE_STRATEGIES,
    SelectionStrategy,
    describe_strategies,
)
from repro.harness.spec import RunSpec, canonical
from repro.ir import parse_program
from repro.workloads import all_benchmarks, get_benchmark

from tests.conftest import build_call_program, build_diamond_loop

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.asm"))

#: benchmarks whose full RunRecords are compared byte-for-byte
RECORD_SUBSET = ("compress", "go", "tomcatv", "swim")


def partition_shape(partition):
    """A partition's observable identity (root/blocks/edges/targets)."""
    return sorted(
        (
            task.root,
            tuple(sorted(task.blocks)),
            tuple(sorted(task.internal_edges)),
            tuple(task.targets),
            tuple(sorted(task.absorbed_calls)),
        )
        for task in partition.tasks()
    )


# ---------------------------------------------------------------- registry


def test_reference_strategy_names_registered():
    names = strategy_names()
    assert list(REFERENCE_STRATEGIES) == [
        level.value for level in HeuristicLevel
    ]
    for name in REFERENCE_STRATEGIES:
        assert name in names
    assert "cost_model" in names
    assert "tunable" in names


def test_empty_strategy_resolves_to_level():
    for level in HeuristicLevel:
        config = SelectionConfig(level=level)
        assert isinstance(get_strategy(config), PaperStrategy)


def test_named_strategy_resolves():
    config = SelectionConfig(strategy="cost_model")
    assert isinstance(get_strategy(config), CostModelStrategy)


def test_unknown_strategy_raises():
    config = SelectionConfig(strategy="does_not_exist")
    with pytest.raises(ValueError, match="unknown selection strategy"):
        get_strategy(config)


def test_duplicate_registration_raises():
    with pytest.raises(ValueError, match="duplicate"):
        register_strategy(CostModelStrategy)


def test_describe_strategies_shape():
    described = describe_strategies()
    names = [entry["name"] for entry in described]
    assert names == strategy_names()
    for entry in described:
        assert entry["kind"] in ("reference", "extra")
        assert isinstance(entry["tunables"], dict)
    by_name = {entry["name"]: entry for entry in described}
    assert by_name["task_size"]["kind"] == "reference"
    assert by_name["cost_model"]["kind"] == "extra"
    assert by_name["tunable"]["tunables"]["max_targets"] == 4


def test_base_strategy_build_is_abstract():
    with pytest.raises(NotImplementedError):
        SelectionStrategy().build(None, {}, None, SelectionConfig())


# ----------------------------------------------------------- config guards


def test_config_rejects_bad_traversal():
    with pytest.raises(ValueError, match="traversal"):
        SelectionConfig(traversal="random")


def test_config_rejects_bad_max_targets():
    with pytest.raises(ValueError, match="max_targets"):
        SelectionConfig(max_targets=0)


# -------------------------------------------------------------- cache keys


def _config_variants():
    """A spread of distinct configs covering every field."""
    variants = [SelectionConfig()]
    for level in HeuristicLevel:
        variants.append(SelectionConfig(level=level))
    variants += [
        SelectionConfig(max_targets=2),
        SelectionConfig(call_thresh=10),
        SelectionConfig(loop_thresh=10),
        SelectionConfig(max_unroll=2),
        SelectionConfig(hoist_induction=False),
        SelectionConfig(schedule_communication=False),
        SelectionConfig(max_dependences=16),
        SelectionConfig(strategy="tunable"),
        SelectionConfig(strategy="cost_model"),
        SelectionConfig(strategy="tunable", traversal="dfs"),
        SelectionConfig(traversal="dfs"),
        SelectionConfig(level=HeuristicLevel.TASK_SIZE,
                        strategy="task_size"),
    ]
    return variants


def test_cache_keys_never_collide():
    """Distinct configs -> distinct cache keys, for every field."""
    variants = _config_variants()
    keys = {}
    for config in variants:
        key = config.cache_key()
        assert key not in keys or keys[key] == config, (
            f"cache_key collision: {config} vs {keys[key]}"
        )
        keys[key] = config
    assert len(keys) == len(set(variants))


def test_cache_key_covers_every_field():
    """Flipping any single field changes the key (extensibility net:
    a newly added field is covered automatically because the key
    enumerates ``fields(SelectionConfig)``)."""
    import dataclasses

    base = SelectionConfig()
    key_fields = {item[0] for item in base.cache_key()[1:]}
    for f in dataclasses.fields(SelectionConfig):
        assert f.name in key_fields, f"cache_key misses field {f.name}"


def test_cache_key_distinguishes_explicit_reference_name():
    """`strategy=""` and the spelled-out reference name are the same
    code path but distinct cache identities (never alias)."""
    implicit = SelectionConfig(level=HeuristicLevel.TASK_SIZE)
    explicit = SelectionConfig(level=HeuristicLevel.TASK_SIZE,
                               strategy="task_size")
    assert implicit.cache_key() != explicit.cache_key()
    # both resolve to the same strategy object
    assert get_strategy(implicit) is get_strategy(explicit)


def test_spec_hash_covers_strategy_and_traversal():
    plain = RunSpec(benchmark="compress",
                    level=HeuristicLevel.DATA_DEPENDENCE)
    strat = RunSpec(
        benchmark="compress", level=HeuristicLevel.DATA_DEPENDENCE,
        selection=SelectionConfig(level=HeuristicLevel.DATA_DEPENDENCE,
                                  strategy="cost_model"),
    )
    dfs = RunSpec(
        benchmark="compress", level=HeuristicLevel.DATA_DEPENDENCE,
        selection=SelectionConfig(level=HeuristicLevel.DATA_DEPENDENCE,
                                  strategy="tunable", traversal="dfs"),
    )
    hashes = {s.spec_hash() for s in (plain, strat, dfs)}
    assert len(hashes) == 3
    compiles = {s.compile_hash() for s in (plain, strat, dfs)}
    assert len(compiles) == 3


def test_describe_suffixes_strategy():
    plain = RunSpec(benchmark="compress",
                    level=HeuristicLevel.DATA_DEPENDENCE)
    assert plain.describe() == "compress/data_dependence@4pu-ooo"
    strat = RunSpec(
        benchmark="compress", level=HeuristicLevel.DATA_DEPENDENCE,
        selection=SelectionConfig(level=HeuristicLevel.DATA_DEPENDENCE,
                                  strategy="cost_model"),
    )
    assert strat.describe() == "compress/data_dependence@4pu-ooo+cost_model"


# ------------------------------------------------------------ bit-identity


@pytest.mark.parametrize("bench", [bm.name for bm in all_benchmarks()])
def test_registry_partitions_identical_through_named_strategy(bench):
    """All 18 registry benchmarks x 4 levels: the dispatched reference
    strategy partitions exactly like the implicit default path."""
    program = get_benchmark(bench).build(1.0)
    for level in HeuristicLevel:
        implicit = select_tasks(program, SelectionConfig(level=level))
        explicit = select_tasks(
            program, SelectionConfig(level=level, strategy=level.value)
        )
        assert partition_shape(implicit) == partition_shape(explicit), (
            f"{bench}@{level.value}: partitions diverge through the "
            f"named reference strategy"
        )


@pytest.mark.parametrize("bench", RECORD_SUBSET)
def test_records_byte_identical_through_named_strategy(bench):
    """Full RunRecords (cycles, breakdown, every field) are
    byte-identical between the implicit and named reference paths."""
    from repro.experiments.runner import clear_cache, run_benchmark
    from repro.harness.serialize import record_to_dict

    clear_cache()
    for level in HeuristicLevel:
        implicit = run_benchmark(bench, level)
        explicit = run_benchmark(
            bench, level,
            selection=SelectionConfig(level=level, strategy=level.value),
        )
        da, db = record_to_dict(implicit), record_to_dict(explicit)
        da.pop("metrics"), db.pop("metrics")
        assert canonical(da) == canonical(db), (
            f"{bench}@{level.value}: records diverge"
        )


@pytest.mark.parametrize(
    "path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_corpus_partitions_identical_through_named_strategy(path):
    """The 12-program minimized corpus through the new interface."""
    program = parse_program(path.read_text(encoding="utf-8"))
    for level in HeuristicLevel:
        implicit = select_tasks(program, SelectionConfig(level=level))
        explicit = select_tasks(
            program, SelectionConfig(level=level, strategy=level.value)
        )
        assert partition_shape(implicit) == partition_shape(explicit)


def test_bfs_traversal_is_reference_identical():
    """traversal="bfs" through the tunable strategy matches the paper
    strategy exactly (same growth order)."""
    program = build_diamond_loop()
    for level in (HeuristicLevel.CONTROL_FLOW,
                  HeuristicLevel.DATA_DEPENDENCE,
                  HeuristicLevel.TASK_SIZE):
        paper = select_tasks(program, SelectionConfig(level=level))
        tunable = select_tasks(
            program,
            SelectionConfig(level=level, strategy="tunable",
                            traversal="bfs"),
        )
        assert partition_shape(paper) == partition_shape(tunable)


# ---------------------------------------------------------- new strategies


def test_dfs_traversal_produces_valid_partition():
    program = build_diamond_loop()
    partition = select_tasks(
        program,
        SelectionConfig(level=HeuristicLevel.CONTROL_FLOW,
                        strategy="tunable", traversal="dfs"),
    )
    partition.validate()
    assert partition_shape(partition)


def test_dfs_traversal_changes_growth_on_some_program():
    """The traversal gene is live: dfs differs from bfs somewhere."""
    program = get_benchmark("cc").build(1.0)
    bfs = select_tasks(
        program,
        SelectionConfig(level=HeuristicLevel.DATA_DEPENDENCE,
                        strategy="tunable", traversal="bfs"),
    )
    dfs = select_tasks(
        program,
        SelectionConfig(level=HeuristicLevel.DATA_DEPENDENCE,
                        strategy="tunable", traversal="dfs"),
    )
    assert partition_shape(bfs) != partition_shape(dfs), (
        "dfs traversal never changed the cc partition"
    )


def test_cost_model_runs_and_validates():
    for build in (build_diamond_loop,
                  lambda: build_call_program("small")):
        program = build()
        partition = select_tasks(
            program, SelectionConfig(strategy="cost_model")
        )
        partition.validate()
        tasks = list(partition.tasks())
        assert tasks
        for task in tasks:
            assert len(task.targets) <= 4


def test_cost_model_absorbs_nothing():
    program = build_call_program("small")
    partition = select_tasks(
        program, SelectionConfig(strategy="cost_model")
    )
    for task in partition.tasks():
        assert not task.absorbed_calls


def test_cost_model_simulates_end_to_end():
    from repro.experiments.runner import clear_cache, run_benchmark

    clear_cache()
    record = run_benchmark(
        "compress", HeuristicLevel.DATA_DEPENDENCE,
        selection=SelectionConfig(level=HeuristicLevel.DATA_DEPENDENCE,
                                  strategy="cost_model"),
    )
    assert record.cycles > 0
    assert record.instructions > 0


def test_tunable_genes_are_live():
    """max_targets / thresholds flow through the tunable strategy."""
    program = build_diamond_loop()
    wide = select_tasks(
        program,
        SelectionConfig(level=HeuristicLevel.CONTROL_FLOW,
                        strategy="tunable", max_targets=4),
    )
    narrow = select_tasks(
        program,
        SelectionConfig(level=HeuristicLevel.CONTROL_FLOW,
                        strategy="tunable", max_targets=1),
    )
    mean_wide = sum(len(t.blocks) for t in wide.tasks()) / max(
        1, len(list(wide.tasks()))
    )
    mean_narrow = sum(len(t.blocks) for t in narrow.tasks()) / max(
        1, len(list(narrow.tasks()))
    )
    assert mean_narrow <= mean_wide
