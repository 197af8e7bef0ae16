"""The native functional interpreter against the reference ``Interpreter``.

``run_program`` records a program's trace in the kernel (``ms_interp``)
whenever the kernel loads.  Its columns must equal the reference
interpreter's on every program the kernel accepts, and on a program
that needs a value the kernel cannot hold (an int64 overflow, int() of
a NaN, an int-versus-float compare beyond 2^53, ...) or raises, the
kernel hands the program to the reference, so ``run_program`` returns
the reference's trace or raises the reference's exception.  The
sweeps compare with ``Interpreter(program).run()``, never with a
second native run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments import runner
from repro.harness.serialize import record_to_dict
from repro.ir import parse_program
from repro.ir.interp import ExecutionLimitExceeded, Interpreter, run_program
from repro.reliability import verify_workload
from repro.sim import SimConfig, native
from repro.synth import check_program, generate_program, run_campaign
from repro.synth.params import PRESETS

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.asm"))


def columns(trace):
    return (trace.n, trace.block_entries, trace.entry_pcs, trace.mem_addrs,
            trace.taken)


def assert_native_matches_reference(program, max_instructions):
    """The kernel records ``program`` (no fallback), and its columns,
    and their types, equal the reference interpreter's."""
    assert native.kernel() is not None
    got = native.interpret(program, max_instructions)
    assert got is not None, "the kernel fell back"
    want = Interpreter(program, max_instructions=max_instructions).run()
    assert columns(got) == columns(want)
    assert [type(c) for c in columns(got)] == [type(c) for c in columns(want)]
    assert got.program is program


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_synthetic_programs_match_the_reference(preset):
    params = PRESETS[preset]
    for seed in (1, 2, 3):
        program = generate_program(seed, params)
        assert_native_matches_reference(program, params.max_dynamic)


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_programs_match_the_reference(path):
    program = parse_program(path.read_text(encoding="utf-8"))
    assert_native_matches_reference(program, 200_000)


def _program(body: str, memory: str = "") -> str:
    """``main`` runs ``body``, then branches on and stores r3, so the
    trace depends on the value ``body`` leaves there."""
    return f"""
.func main
entry:
{body}
    bnez    r3, @nonzero, @zero
nonzero:
    store   r3, [r0 + 64]
    halt
zero:
    halt
{memory}
"""


#: (name, program text, whether the kernel hands it to the reference)
FALLBACKS = [
    ("add-overflow", _program("""
    li      r1, #4611686018427387904
    add     r2, r1, r1
    slt     r3, r2, r0"""), True),
    ("mul-overflow", _program("""
    li      r1, #4294967296
    mul     r2, r1, r1
    seq     r3, r2, r0"""), True),
    ("shl-overflow", _program("""
    li      r1, #3
    shl     r2, r1, #62
    slt     r3, r2, r0"""), True),
    ("negative-shift", _program("""
    li      r1, #5
    li      r5, #-1
    shl     r3, r1, r5"""), True),
    ("shr-by-64-or-more", _program("""
    li      r1, #-5
    shr     r2, r1, #64
    li      r6, #5
    shr     r7, r6, #200
    add     r3, r2, r7"""), False),
    ("int-of-nan", _program("""
    load    r3, [r0 + 5]""", ".memory 5 nan"), True),
    ("int-of-infinity", _program("""
    fli     f1, #inf
    cvtfi   r3, f1"""), True),
    ("int-of-huge-float", _program("""
    fli     f1, #1e30
    cvtfi   r2, f1
    slt     r3, r2, r0"""), True),
    ("div-by-fraction", _program("""
    li      r1, #7
    div     r3, r1, #0.5"""), True),
    ("int64-min-div-minus-one", _program("""
    li      r1, #-9223372036854775808
    div     r2, r1, #-1
    slt     r3, r2, r0"""), True),
    ("compare-beyond-2^53", _program("""
    li      r1, #9007199254740992
    add     r1, r1, #1
    fli     f1, #9007199254740992.0
    slt     r3, f1, r1"""), True),
    ("ret-on-empty-stack", """
.func main
entry:
    ret
""", True),
    # A call block with nowhere to continue: validation admits it, and
    # the reference raises on reaching it.
    ("call-without-continuation", """
.func main
entry:
    call    @f
.func f
body:
    halt
""", True),
]


@pytest.mark.parametrize("name,text,falls_back", FALLBACKS,
                         ids=[case[0] for case in FALLBACKS])
def test_fallback_gives_the_reference_trace_or_exception(name, text,
                                                         falls_back):
    program = parse_program(text)
    assert native.kernel() is not None
    assert (native.interpret(program, 10_000) is None) == falls_back
    try:
        want = Interpreter(program, max_instructions=10_000).run()
    except Exception as exc:  # the reference's own error
        with pytest.raises(type(exc)) as got:
            run_program(program, max_instructions=10_000)
        assert str(got.value) == str(exc)
    else:
        assert columns(run_program(program, max_instructions=10_000)) == (
            columns(want)
        )


def test_instruction_limit_is_raised_by_the_kernel(monkeypatch):
    program = parse_program("""
.func main
entry:
    li      r1, #100
loop:
    sub     r1, r1, #1
    bnez    r1, @loop, @done
done:
    halt
""")
    with pytest.raises(ExecutionLimitExceeded) as want:
        Interpreter(program, max_instructions=50).run()
    monkeypatch.setattr(Interpreter, "run", _refuse)
    with pytest.raises(ExecutionLimitExceeded) as got:
        run_program(program, max_instructions=50)
    assert str(got.value) == str(want.value) == (
        "exceeded 50 dynamic instructions"
    )


def _refuse(*args, **kwargs):
    raise AssertionError("ran the Python interpreter")


def test_cold_fast_cell_never_runs_the_python_interpreter(monkeypatch):
    """Without this, a kernel that falls back on every program would
    pass every equality test."""
    assert native.kernel() is not None
    level = HeuristicLevel.DATA_DEPENDENCE
    runner.clear_cache()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(Interpreter, "run", _refuse)
            fast = record_to_dict(runner.run_benchmark(
                "compress", level, scale=0.1
            ))
        runner.clear_cache()
        with monkeypatch.context() as patch:
            patch.setattr(native, "interpret", lambda *args: None)
            reference = record_to_dict(runner.run_benchmark(
                "compress", level, scale=0.1,
                sim=SimConfig(engine="reference"),
            ))
        assert fast == reference
    finally:
        runner.clear_cache()


def _plant(monkeypatch, column: str) -> None:
    """A native interpreter that corrupts one recorded value of
    ``column``: flips a branch outcome or offsets an address."""
    real = native.interpret

    def faulty(program, max_instructions):
        trace = real(program, max_instructions)
        if trace is not None:
            values = getattr(trace, column)
            if values:
                k = len(values) // 2
                values[k] = values[k] ^ 1 if column == "taken" else (
                    values[k] + 1
                )
        return trace

    monkeypatch.setattr(native, "interpret", faulty)


@pytest.mark.parametrize("column", ["taken", "mem_addrs"])
def test_planted_interpreter_fault_is_a_divergence(monkeypatch, column):
    """``repro verify``, ``run_campaign`` and ``check_program`` compare
    the compiled trace's columns with the reference interpreter's."""
    expected = f"trace {column}["
    runner.clear_cache()
    try:
        _plant(monkeypatch, column)
        report = verify_workload("compress", HeuristicLevel.CONTROL_FLOW,
                                 scale=0.1)
        assert any(d.startswith(expected) for d in report.divergences), (
            report.divergences
        )
        runner.clear_cache()
        result = run_campaign(budget=1, seed=1, jobs=1,
                              levels=(HeuristicLevel.BASIC_BLOCK,))
        assert any(expected in d for d in result.divergences), (
            result.summary()
        )
        issues = check_program(generate_program(5),
                               levels=(HeuristicLevel.BASIC_BLOCK,))
        assert any(expected in d for d in issues), issues
    finally:
        runner.clear_cache()
