"""The autotuner: genome operators, GA/random drivers, ledger, CLI.

Determinism is the load-bearing property: a campaign's only entropy
source is ``random.Random(seed)``, fitness has a total order (cycles,
genome hash), and ledger lines are committed in population order —
so the same ``(targets, seed, algo, budget, pop_size)`` must yield a
byte-identical ledger regardless of worker count, and resuming a
truncated ledger must converge to the same bytes.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.compiler import HeuristicLevel
from repro.synth.campaign import program_seed
from repro.telemetry.report import load_cells
from repro.tune import (
    GENE_SPACE,
    Genome,
    PAPER_GENOME,
    TUNE_SCHEMA_VERSION,
    TuneLedger,
    crossover,
    mutate,
    random_genome,
    tune,
    tune_summary,
    write_tune_reports,
)

import random


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the persistent artifact cache at a per-test directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def synth_target(seed: int = 1) -> str:
    """A cheap generated workload (sub-second to simulate)."""
    return f"synth:default:{program_seed(seed, 0)}"


# ----------------------------------------------------------------- genomes


def test_paper_genome_matches_reference_defaults():
    sel = PAPER_GENOME.to_selection()
    assert sel.strategy == "tunable"
    assert sel.level is HeuristicLevel.TASK_SIZE
    assert sel.max_targets == 4
    assert sel.loop_thresh == 30
    assert sel.call_thresh == 30
    assert sel.traversal == "bfs"


def test_every_gene_default_is_in_space():
    for gene, value in PAPER_GENOME.as_dict().items():
        assert value in GENE_SPACE[gene]


def test_genome_rejects_out_of_space_values():
    with pytest.raises(ValueError, match="max_targets"):
        Genome(max_targets=5)
    with pytest.raises(ValueError, match="strategy"):
        Genome(strategy="paper")


def test_genome_hash_stable_and_roundtrips():
    g = Genome(max_targets=2, traversal="dfs")
    assert g.genome_hash() == Genome(max_targets=2,
                                     traversal="dfs").genome_hash()
    assert g.genome_hash() != PAPER_GENOME.genome_hash()
    assert Genome.from_dict(g.as_dict()) == g


def test_genome_operators_are_seed_deterministic():
    a = random_genome(random.Random(7))
    b = random_genome(random.Random(7))
    assert a == b
    assert mutate(a, random.Random(3)) == mutate(a, random.Random(3))
    other = random_genome(random.Random(8))
    assert (crossover(a, other, random.Random(5))
            == crossover(a, other, random.Random(5)))


def test_mutation_redraws_distinct_values():
    rng = random.Random(11)
    for _ in range(50):
        child = mutate(PAPER_GENOME, rng, rate=1.0)
        for gene, value in child.as_dict().items():
            assert value != PAPER_GENOME.as_dict()[gene], gene


def test_to_spec_carries_genome_selection():
    spec = PAPER_GENOME.to_spec("compress")
    assert spec.benchmark == "compress"
    assert spec.level is HeuristicLevel.TASK_SIZE
    assert spec.selection.strategy == "tunable"
    dfs = Genome(traversal="dfs").to_spec("compress")
    assert dfs.spec_hash() != spec.spec_hash()


# ----------------------------------------------------------------- drivers


def run_tune(tmp_path, name="ledger.jsonl", **kwargs):
    path = tmp_path / name
    defaults = dict(
        targets=[synth_target()], budget=4, seed=1, pop_size=2, jobs=1,
        ledger=TuneLedger(path),
    )
    defaults.update(kwargs)
    return tune(**defaults), path


def test_ga_is_byte_deterministic(tmp_path):
    result_a, path_a = run_tune(tmp_path, "a.jsonl")
    result_b, path_b = run_tune(tmp_path, "b.jsonl")
    assert path_a.read_bytes() == path_b.read_bytes()
    assert tune_summary(result_a) == tune_summary(result_b)


def test_ga_ledger_independent_of_jobs(tmp_path):
    _, path_a = run_tune(tmp_path, "serial.jsonl", jobs=1)
    _, path_b = run_tune(tmp_path, "pooled.jsonl", jobs=2)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_resume_from_truncated_ledger_is_byte_identical(tmp_path):
    _, path = run_tune(tmp_path, "full.jsonl")
    full = path.read_bytes()
    lines = full.splitlines(keepends=True)
    assert len(lines) > 4
    # simulate a campaign killed mid-flight: keep a whole-line prefix
    partial = tmp_path / "partial.jsonl"
    partial.write_bytes(b"".join(lines[:4]))
    resumed, _ = run_tune(tmp_path, "partial.jsonl")
    assert partial.read_bytes() == full
    baseline, _ = run_tune(tmp_path, "fresh.jsonl")
    assert tune_summary(resumed) == tune_summary(baseline)


def test_rerun_over_complete_ledger_appends_nothing(tmp_path):
    _, path = run_tune(tmp_path, "done.jsonl")
    before = path.read_bytes()
    run_tune(tmp_path, "done.jsonl")
    assert path.read_bytes() == before


def test_header_mismatch_raises(tmp_path):
    _, path = run_tune(tmp_path, "seeded.jsonl", seed=1)
    with pytest.raises(ValueError, match="different campaign"):
        run_tune(tmp_path, "seeded.jsonl", seed=2)


def test_generation_count_is_ceil_budget_over_pop(tmp_path):
    result, _ = run_tune(tmp_path, budget=5, pop_size=2)
    assert result.generations == math.ceil(5 / 2) == 3
    assert len(result.history) == 3


def test_paper_genome_seeds_generation_zero(tmp_path):
    _, path = run_tune(tmp_path)
    kinds = {}
    first_eval = None
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        kinds.setdefault(entry["kind"], 0)
        kinds[entry["kind"]] += 1
        if entry["kind"] == "eval" and first_eval is None:
            first_eval = entry
    assert kinds["header"] == 1
    assert kinds["baseline"] == 1
    assert kinds["best"] == 1
    assert first_eval["generation"] == 0
    assert first_eval["genome_hash"] == PAPER_GENOME.genome_hash()


def test_ledger_header_schema_versioned(tmp_path):
    _, path = run_tune(tmp_path)
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert header["kind"] == "header"
    assert header["schema_version"] == TUNE_SCHEMA_VERSION
    assert "gene_space" in header


def test_ledger_header_names_the_machine_that_runs(tmp_path):
    """A pinned preset brings its own PU count; the header records the
    machine the campaign's records ran, not the n_pus argument."""
    result, path = run_tune(tmp_path, budget=2, machine="paper-8x1")
    header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
    assert (header["n_pus"], header["out_of_order"]) == (8, True)
    records = [*result.baseline_records.values(),
               *result.best_records.values()]
    assert {(r.n_pus, r.out_of_order) for r in records} == {(8, True)}


def test_random_algo_draws_budget_genomes(tmp_path):
    result, path = run_tune(tmp_path, "rand.jsonl", algo="random",
                            budget=6, pop_size=2)
    assert result.algo == "random"
    assert result.evaluations <= 6
    evals = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["kind"] == "eval"
    ]
    assert len(evals) == 6
    assert evals[0]["genome_hash"] == PAPER_GENOME.genome_hash()


def test_best_never_loses_to_paper_genome(tmp_path):
    """PAPER_GENOME is always evaluated, so the reported best can
    never be worse than the paper config's own genome fitness."""
    result, path = run_tune(tmp_path)
    paper_fitness = None
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        if (entry["kind"] == "eval"
                and entry["genome_hash"] == PAPER_GENOME.genome_hash()):
            paper_fitness = entry["fitness"]
            break
    assert paper_fitness is not None
    assert result.best_fitness <= paper_fitness
    assert result.best_genome is not None
    assert result.best_hash == result.best_genome.genome_hash()


def test_tune_argument_validation(tmp_path):
    with pytest.raises(ValueError, match="target"):
        tune([], budget=2)
    with pytest.raises(ValueError, match="algorithm"):
        tune([synth_target()], algo="anneal")
    with pytest.raises(ValueError, match="budget"):
        tune([synth_target()], budget=0)
    with pytest.raises(ValueError, match="pop_size"):
        tune([synth_target()], pop_size=1)
    # n_pus sizes only the paper machine: a preset or a floating
    # machine gene brings its own PU count.
    for machine in ("big-little-8", None):
        with pytest.raises(ValueError, match="n_pus=16"):
            tune([synth_target()], n_pus=16, machine=machine)


# ----------------------------------------------------------------- reports


def test_reports_load_as_aligned_cell_grids(tmp_path):
    result, _ = run_tune(tmp_path)
    baseline, tuned = write_tune_reports(result, tmp_path / "out")
    src_base = load_cells(str(baseline))
    src_tuned = load_cells(str(tuned))
    assert set(src_base.cells) == set(src_tuned.cells)
    for label in src_base.cells:
        assert "/tuned@" in label
    payload = json.loads(tuned.read_text(encoding="utf-8"))
    assert payload["tune"]["genome"] == result.best_genome.as_dict()
    assert payload["tune"]["best_hash"] == result.best_hash
    assert set(payload["tune"]["true_levels"]) == set(result.targets)


def test_tune_summary_shape(tmp_path):
    result, _ = run_tune(tmp_path)
    summary = tune_summary(result)
    assert summary["command"] == "tune"
    assert summary["targets"] == result.targets
    assert summary["best_genome"] == result.best_genome.as_dict()
    assert summary["improved"] == (
        summary["best_fitness"] < summary["baseline_fitness"]
    )
    json.dumps(summary)  # JSON-serializable end to end


# --------------------------------------------------------------------- CLI


class TestTuneCLI:
    def test_list_strategies(self, capsys):
        assert main(["list", "--strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("basic_block", "task_size", "cost_model", "tunable"):
            assert name in out

    def test_list_strategies_json(self, capsys):
        assert main(["list", "--strategies", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload["strategies"]]
        assert "cost_model" in names and "task_size" in names

    def test_tune_synth_json(self, capsys, tmp_path):
        argv = [
            "tune", "--synth", "default", "--budget", "4", "--pop", "2",
            "--seed", "1", "--jobs", "1",
            "--ledger", str(tmp_path / "cli.jsonl"), "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "tune"
        assert payload["algo"] == "ga"
        assert payload["best_genome"]["strategy"] in GENE_SPACE["strategy"]

    def test_tune_refuses_overwrite_without_resume(self, capsys, tmp_path):
        ledger = str(tmp_path / "cli.jsonl")
        argv = [
            "tune", "--synth", "default", "--budget", "4", "--pop", "2",
            "--jobs", "1", "--ledger", ledger,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(argv)
        assert main(argv + ["--resume"]) == 0

    def test_tune_writes_reports(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        argv = [
            "tune", "--synth", "default", "--budget", "4", "--pop", "2",
            "--jobs", "1", "--ledger", str(tmp_path / "cli.jsonl"),
            "--out", str(out_dir), "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (out_dir / "baseline.json").exists()
        assert (out_dir / "tuned.json").exists()
        assert payload["reports"]["tuned"].endswith("tuned.json")
