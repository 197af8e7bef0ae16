"""Tests for named input sets and profile-input sensitivity."""

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments import clear_cache
from repro.experiments.runner import compile_benchmark, run_benchmark
from repro.ir.interp import run_program
from repro.workloads import get_benchmark
from repro.workloads.kernels import INPUT_SETS, host_lcg, input_set


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestInputSets:
    def test_known_sets(self):
        assert {"ref", "train", "alt"} <= set(INPUT_SETS)

    def test_unknown_set_rejected(self):
        with pytest.raises(KeyError, match="known:"):
            with input_set("nonexistent"):
                pass
        with pytest.raises(KeyError):
            get_benchmark("compress").build(0.1, input_set="nope")

    def test_context_offsets_seeds_and_restores(self):
        base = host_lcg(42)()
        with input_set("train"):
            shifted = host_lcg(42)()
        assert shifted != base
        assert host_lcg(42)() == base  # restored

    def test_nested_context_restores(self):
        with input_set("train"):
            with input_set("alt"):
                inner = host_lcg(1)()
            outer = host_lcg(1)()
        assert inner != outer

    @pytest.mark.parametrize("name", ["compress", "go", "tomcatv"])
    def test_static_code_identical_across_sets(self, name):
        ref = get_benchmark(name).build(0.1, input_set="ref")
        train = get_benchmark(name).build(0.1, input_set="train")
        assert str(ref) == str(train)
        assert ref.memory_image != train.memory_image

    def test_different_data_different_execution(self):
        ref = run_program(get_benchmark("compress").build(0.3, "ref"))
        train = run_program(get_benchmark("compress").build(0.3, "train"))
        assert len(ref) != len(train)


class TestProfileInput:
    def test_measured_trace_uses_the_measured_input(self):
        same = compile_benchmark(
            "compress", HeuristicLevel.DATA_DEPENDENCE, 0.3
        )
        cross = compile_benchmark(
            "compress",
            HeuristicLevel.DATA_DEPENDENCE,
            0.3,
            profile_input="train",
        )
        # Both measure the ref input: identical functional work.
        assert len(same.trace) == len(cross.trace)

    def test_partitions_may_differ_but_stay_valid(self):
        cross = compile_benchmark(
            "go", HeuristicLevel.DATA_DEPENDENCE, 0.2, profile_input="train"
        )
        cross.partition.validate()

    def test_run_benchmark_passthrough(self):
        same = run_benchmark(
            "compress", HeuristicLevel.DATA_DEPENDENCE, scale=0.2
        )
        cross = run_benchmark(
            "compress",
            HeuristicLevel.DATA_DEPENDENCE,
            scale=0.2,
            profile_input="train",
        )
        assert same.instructions == cross.instructions
        # Train profiling must not catastrophically hurt performance.
        assert cross.ipc > 0.7 * same.ipc

    def test_sweep_profile_input(self):
        from repro.experiments.ablations import profile_input_specs
        from repro.harness import run_keyed

        records = run_keyed(*profile_input_specs(["compress"], scale=0.2))
        assert ("compress", "same-input") in records
        assert ("compress", "train-profiled") in records
