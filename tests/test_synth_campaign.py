"""Differential fuzzing campaigns: determinism, oracle, planted faults."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.compiler import HeuristicLevel
from repro.harness.spec import RunSpec
from repro.ir import Opcode
from repro.ir.interp import run_program
from repro.machines import get_machine
from repro.sim import SimConfig, native
from repro.synth import check_program, fuzz_specs, generate_program, run_campaign
from repro.synth.campaign import (
    FUZZ_STRATEGY_LEVEL,
    CampaignLedger,
    execute_fuzz_spec,
    program_seed,
)

LEVELS2 = (HeuristicLevel.BASIC_BLOCK, HeuristicLevel.CONTROL_FLOW)


def test_small_campaign_passes():
    result = run_campaign(budget=2, seed=1, jobs=1)
    assert result.ok, result.summary()
    assert len(result.programs) == 2
    assert result.cells == 2 * len(HeuristicLevel)
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
    goes ``done`` without ever popping a completion heap entry.  The
    stretch after that flip must be charged to LOAD_IMBALANCE, as the
    reference loop charges it, not to the stale FETCH slot.  Each cell
    compares the native loop's whole result with the monitored
    reference run, so the kernel's breakdown must match, not just its
    total cycles."""
    result = run_campaign(
        budget=2, seed=1, jobs=1,
        levels=(HeuristicLevel.BASIC_BLOCK,),
    )
    assert result.ok, result.summary()
    assert result.cells == 2


def test_fuzz_specs_engine_column_order():
    """There is no engine column: one spec per (program, level), in
    program then level order, on the default machine.  The worker runs
    the monitored reference loop and the kernel on that one cell."""
    specs, names = fuzz_specs(2, seed=1, levels=LEVELS2)
    assert names == ["synth:default:1000003", "synth:default:1000004"]
    assert [(s.benchmark, s.level) for s in specs] == [
        (name, level) for name in names for level in LEVELS2
    ]
    assert all(s.sim == SimConfig() for s in specs)
    assert len({s.spec_hash() for s in specs}) == len(specs)


def test_fuzz_specs_share_compile_groups():
    """A machine-sweep cell shares its level cell's compilation but has
    a distinct record-cache identity; every cell of a program carries
    that program's source hash."""
    specs, names = fuzz_specs(2, seed=1, levels=(FUZZ_STRATEGY_LEVEL,),
                              machines=("big-little-8",))
    assert names == ["synth:default:1000003", "synth:default:1000004"]
    assert len(specs) == 2 * 2
    plain, machine = specs[0], specs[1]
    assert machine.sim == get_machine("big-little-8")
    assert plain.compile_hash() == machine.compile_hash()
    assert plain.spec_hash() != machine.spec_hash()
    hashes = [s.source_hash for s in specs]
    assert all(hashes)
    assert hashes[0] == hashes[1] != hashes[2] == hashes[3]


def test_forged_source_hash_is_a_divergence():
    """A cell whose spec names another program than the worker
    rebuilds reports the mismatch, also once the rebuilt hash is
    memoized by an earlier cell of the program."""
    specs, _ = fuzz_specs(1, seed=1, levels=(HeuristicLevel.BASIC_BLOCK,))
    assert execute_fuzz_spec(specs[0]).metrics["fuzz"]["divergences"] == []
    forged = replace(specs[0], source_hash="ab" * 32)
    divergences = execute_fuzz_spec(forged).metrics["fuzz"]["divergences"]
    assert len(divergences) == 1
    assert divergences[0].startswith(
        "source hash mismatch: spec says abababababab, worker generated "
        + specs[0].source_hash[:12]
    )


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
    """Perturb the kernel's cycle count on XOR-executing runs.

    The plant is at :func:`repro.sim.native.run`, where a kernel bug
    would live, so every consumer — the campaign worker,
    ``check_program``, the reducer predicate — sees the same wrong
    native loop, while the monitored reference runs stay correct.
    """
    real_run = native.run

    def buggy_run(machine):
        cycles = real_run(machine)
        if cycles is not None and any(
            dyn.op is Opcode.XOR for dyn in machine.stream.trace.insts
        ):
            cycles += 1
        return cycles

    monkeypatch.setattr(native, "run", buggy_run)
    return buggy_run


def test_planted_fault_is_caught_and_reduced(planted_fast_engine_fault):
    """Acceptance: a planted kernel divergence is detected by the
    campaign and delta-debugged to a <= 3 block reproducer."""
    index = _xor_trigger_seed()
    result = run_campaign(budget=index + 1, seed=1, jobs=1,
                          levels=LEVELS2, minimize=True)
    assert not result.ok
    name = f"synth:default:{program_seed(1, index)}"
    assert any(name in d and "native loop cycles" in d
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


def test_kernel_off_by_one_is_a_divergence(monkeypatch):
    """The campaign and ``check_program`` run the native loop: a kernel
    that returns one cycle too many diverges from the monitored run."""
    real_run = native.run

    def off_by_one(machine):
        cycles = real_run(machine)
        return None if cycles is None else cycles + 1

    monkeypatch.setattr(native, "run", off_by_one)
    result = run_campaign(budget=1, seed=1, jobs=1,
                          levels=(HeuristicLevel.BASIC_BLOCK,))
    assert any("native loop cycles" in d for d in result.divergences), (
        result.summary()
    )
    issues = check_program(generate_program(5),
                           levels=(HeuristicLevel.BASIC_BLOCK,))
    assert any("native loop cycles" in d for d in issues), issues


def test_planted_fault_clears_with_patch_removed():
    index = _xor_trigger_seed()
    result = run_campaign(budget=index + 1, seed=1, jobs=1, levels=LEVELS2)
    assert result.ok, result.summary()
