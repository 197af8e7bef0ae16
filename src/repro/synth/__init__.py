"""Seeded synthetic program generation + differential fuzzing.

The generator (:mod:`repro.synth.generator`) emits valid, halting IR
programs whose shapes straddle the paper's decision thresholds —
loop bodies around ``LOOP_THRESH``, callees around ``CALL_THRESH``,
diamond/hammock chains near the suitability limit — fully determined
by ``(seed, SynthParams)``.  The campaign driver
(:mod:`repro.synth.campaign`) feeds those programs through all four
heuristic levels and runs every cell through the reliability
subsystem's oracle battery (the monitored reference loop, the
commit-log oracle, and the native loop checked against the monitored
run); the reducer
(:mod:`repro.synth.reduce`) delta-debugs any divergent program down
to a minimal reproducer.

Generated benchmarks are addressable anywhere a benchmark name is
accepted via the ``synth:<preset>:<seed>`` scheme (the workload
registry recognises the prefix), so ``repro run synth:default:7``
works just like a registered workload.
"""

from repro.synth.campaign import (
    CampaignResult,
    check_program,
    execute_fuzz_spec,
    fuzz_specs,
    run_campaign,
)
from repro.synth.generator import (
    generate_program,
    parse_synth_name,
    program_source_hash,
    synth_name,
)
from repro.synth.params import PRESETS, SynthParams
from repro.synth.reduce import ReduceStats, reduce_program

__all__ = [
    "CampaignResult",
    "PRESETS",
    "ReduceStats",
    "SynthParams",
    "check_program",
    "execute_fuzz_spec",
    "fuzz_specs",
    "generate_program",
    "parse_synth_name",
    "program_source_hash",
    "reduce_program",
    "run_campaign",
    "synth_name",
]
