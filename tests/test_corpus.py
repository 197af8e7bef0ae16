"""The permanent fuzzing corpus: minimized generated programs.

Each ``tests/corpus/*.asm`` file is a delta-debugged reproducer (see
its header comment for what feature it pins and which
``synth:<preset>:<seed>`` program it was minimized from).  The corpus
is a regression net at the opposite end of the spectrum from the big
registry workloads: each program is a handful of blocks exercising
one shape the generator targets — loops, calls, diamonds, aliasing
memory, FP, long def-use chains — and every one is pushed through the
full differential check on every test run: at all heuristic levels,
the monitored reference loop against the commit-log oracle, and the
native loop against the monitored run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.ir import parse_program, program_to_text, well_formed
from repro.ir.interp import run_program
from repro.synth import check_program

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.asm"))


def _load(path: Path):
    return parse_program(path.read_text(encoding="utf-8"))


def test_corpus_is_populated():
    assert len(CORPUS) >= 10, (
        f"expected at least 10 minimized corpus programs in "
        f"{CORPUS_DIR}, found {len(CORPUS)}"
    )


@pytest.mark.parametrize(
    "path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_corpus_program_is_valid(path):
    program = _load(path)
    program.validate()
    assert well_formed(program) == []
    trace = run_program(program, max_instructions=200_000)
    assert len(trace) > 0
    # text round-trip is exact (headers aside)
    text = program_to_text(program)
    assert program_to_text(parse_program(text)) == text


@pytest.mark.parametrize(
    "path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_corpus_program_passes_differential_check(path):
    divergences = check_program(_load(path))
    assert divergences == [], divergences
