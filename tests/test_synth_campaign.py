"""Differential fuzzing campaigns: determinism, oracle, planted faults."""

from __future__ import annotations

import json

import pytest

from repro.compiler import HeuristicLevel
from repro.harness.spec import RunSpec
from repro.ir import Opcode
from repro.ir.interp import run_program
from repro.sim import MultiscalarMachine, SimConfig
from repro.synth import check_program, fuzz_specs, generate_program, run_campaign
from repro.synth.campaign import CampaignLedger, program_seed

LEVELS2 = (HeuristicLevel.BASIC_BLOCK, HeuristicLevel.CONTROL_FLOW)


def test_small_campaign_passes():
    result = run_campaign(budget=2, seed=1, jobs=1)
    assert result.ok, result.summary()
    assert len(result.programs) == 2
    assert result.cells == 2 * len(HeuristicLevel) * 2
    counters = result.metrics["counters"]
    assert counters["fuzz.programs"] == 2
    assert counters["fuzz.divergences"] == 0
    assert counters["fuzz.invariant_checks"] > 0


def test_campaign_ledger_deterministic(tmp_path):
    """Two identical campaigns write identical ledgers modulo ``ts``."""
    ledgers = []
    for run in ("a", "b"):
        path = tmp_path / f"{run}.jsonl"
        ledger = CampaignLedger(path)
        result = run_campaign(budget=2, seed=3, jobs=1,
                              levels=LEVELS2, ledger=ledger)
        assert result.ok, result.summary()
        entries = [
            json.loads(line)
            for line in path.read_text().splitlines() if line.strip()
        ]
        for entry in entries:
            entry.pop("ts", None)
            assert entry.get("wall_seconds", 0.0) == 0.0
        ledgers.append(entries)
    assert ledgers[0] == ledgers[1]


def test_campaign_degenerate_task_attribution():
    """Regression seed: the second seed-1 program carries a task that
    goes ``done`` without ever popping a completion heap entry.  A
    skipped idle stretch after that flip must be charged to
    LOAD_IMBALANCE, as the reference engine charges it, not to the
    stale FETCH slot — same total cycles is not enough, the fast
    engine's breakdown must match too."""
    result = run_campaign(
        budget=2, seed=1, jobs=1,
        levels=(HeuristicLevel.BASIC_BLOCK,),
    )
    assert result.ok, result.summary()
    assert result.cells == 2 * 2


def test_fuzz_specs_engine_column_order():
    """Both engines appear per level, fast then reference."""
    specs, _ = fuzz_specs(1, seed=1, levels=LEVELS2)
    assert len(specs) == len(LEVELS2) * 2
    assert [s.sim.engine for s in specs[:2]] == ["fast", "reference"]
    # both share one compilation, neither shares a record identity
    assert len({s.compile_hash() for s in specs[:2]}) == 1
    assert len({s.spec_hash() for s in specs[:2]}) == 2


def test_fuzz_specs_share_compile_groups():
    """The fast/reference pair of one cell shares one compilation but
    has distinct record-cache identities."""
    specs, names = fuzz_specs(1, seed=1, levels=LEVELS2)
    assert names == ["synth:default:1000003"]
    assert len(specs) == len(LEVELS2) * 2
    fast, ref = specs[0], specs[1]
    assert fast.compile_hash() == ref.compile_hash()
    assert fast.spec_hash() != ref.spec_hash()
    assert fast.source_hash and fast.source_hash == ref.source_hash


def test_source_hash_salts_compile_signature():
    plain = RunSpec(benchmark="compress", level=HeuristicLevel.BASIC_BLOCK)
    salted = RunSpec(benchmark="compress", level=HeuristicLevel.BASIC_BLOCK,
                     source_hash="ab" * 32)
    assert plain.compile_hash() != salted.compile_hash()
    assert plain.spec_hash() != salted.spec_hash()
    # absent hash preserves the pre-existing signature shape
    assert "source" not in repr(plain.compile_signature())


def test_program_seed_streams_disjoint():
    a = {program_seed(1, i) for i in range(200)}
    b = {program_seed(2, i) for i in range(200)}
    assert not a & b


def test_check_program_clean_on_generated():
    assert check_program(generate_program(5), levels=LEVELS2) == []


def test_check_program_reports_malformed():
    from repro.ir import BasicBlock, Function, Instruction, Program

    program = Program()
    func = Function("main")
    func.add_block(BasicBlock("entry", [
        Instruction(Opcode.ADD, dst="r1", srcs=("r9", "r9")),
        Instruction(Opcode.HALT),
    ]))
    program.add_function(func)
    issues = check_program(program, levels=LEVELS2)
    assert issues and all("well-formedness" in i for i in issues)


# ------------------------------------------------------------ planted fault


def _xor_trigger_seed() -> int:
    """A campaign-stream seed whose program dynamically executes XOR."""
    for index in range(20):
        seed = program_seed(1, index)
        trace = run_program(generate_program(seed))
        if any(dyn.op is Opcode.XOR for dyn in trace.insts):
            return index
    raise AssertionError("no XOR-executing program in the first 20 seeds")


@pytest.fixture
def planted_fast_engine_fault(monkeypatch):
    """Perturb the fast engine's cycle count on XOR-executing runs.

    The plant is at :meth:`MultiscalarMachine.run` so every consumer —
    the campaign worker, ``check_program``, the reducer predicate —
    sees the same wrong fast engine, exactly like a real engine bug.
    """
    real_run = MultiscalarMachine.run

    def buggy_run(self):
        result = real_run(self)
        if self.config.engine == "fast" and any(
            dyn.op is Opcode.XOR for dyn in self.stream.trace.insts
        ):
            result.cycles += 1
        return result

    monkeypatch.setattr(MultiscalarMachine, "run", buggy_run)
    return buggy_run


def test_planted_fault_is_caught_and_reduced(planted_fast_engine_fault):
    """Acceptance: a planted engine divergence is detected by the
    campaign and delta-debugged to a <= 3 block reproducer."""
    index = _xor_trigger_seed()
    result = run_campaign(budget=index + 1, seed=1, jobs=1,
                          levels=LEVELS2, minimize=True)
    assert not result.ok
    name = f"synth:default:{program_seed(1, index)}"
    assert any(name in d and "diverge on cycles" in d
               for d in result.divergences), result.divergences[:5]
    assert name in result.reduced
    reduced_text = result.reduced[name]
    n_blocks = sum(
        1 for line in reduced_text.splitlines()
        if line.endswith(":") and not line.startswith((" ", "\t"))
    )
    assert n_blocks <= 3, reduced_text
    assert " xor " in reduced_text or "xor\t" in reduced_text.replace(
        "xor ", "xor\t"
    )


def test_planted_fault_clears_with_patch_removed():
    index = _xor_trigger_seed()
    result = run_campaign(budget=index + 1, seed=1, jobs=1, levels=LEVELS2)
    assert result.ok, result.summary()
