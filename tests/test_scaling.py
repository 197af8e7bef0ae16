"""The scaling study's rankings and report, on hand-built records."""

from dataclasses import replace
from types import SimpleNamespace

from repro.experiments.figure5 import LEVELS
from repro.experiments.scaling import (
    ScalingResult,
    format_scaling,
    scaling_specs,
)
from repro.machines import get_machine


def _record(cycles, pu=None):
    """The RunRecord fields the scaling study reads."""
    return SimpleNamespace(cycles=cycles, ipc=1000.0 / cycles,
                           metrics={"pu": pu} if pu else None)


def _result(machines):
    """compress on the path predictor: machine -> cycles in LEVELS order."""
    result = ScalingResult()
    for machine, cycles in machines.items():
        for level, n in zip(LEVELS, cycles):
            result.records[("compress", machine, "path", level)] = _record(n)
    return result


class TestRanking:
    def test_best_first(self):
        result = _result({"paper-4x2": (400, 300, 200, 100)})
        assert result.ranking("compress", "paper-4x2", "path") == (
            "task_size", "data_dependence", "control_flow", "basic_block",
        )

    def test_ties_keep_level_order(self):
        result = _result({"paper-4x2": (400, 200, 200, 100),
                          "manycore-32": (300, 300, 300, 300)})
        assert result.ranking("compress", "paper-4x2", "path") == (
            "task_size", "control_flow", "data_dependence", "basic_block",
        )
        assert result.ranking("compress", "manycore-32", "path") == tuple(
            level.value for level in LEVELS
        )

    def test_change_against_the_baseline(self):
        result = _result({"paper-4x2": (400, 300, 200, 100),
                          "big-little-8": (800, 600, 400, 200),
                          "manycore-32": (100, 300, 200, 400)})
        assert result.ranking_changes("paper-4x2") == [
            ("compress", "manycore-32", "path"),
        ]
        text = format_scaling(result, baseline="paper-4x2")
        assert "heuristic ranking changes vs paper-4x2:" in text
        assert (
            "compress: manycore-32 (path) ranks basic_block > "
            "data_dependence > control_flow > task_size vs task_size > "
            "data_dependence > control_flow > basic_block"
        ) in text

    def test_same_ranking_everywhere(self):
        result = _result({"paper-4x2": (400, 300, 200, 100),
                          "big-little-8": (800, 600, 400, 200)})
        assert result.ranking_changes("paper-4x2") == []
        assert format_scaling(result).endswith(
            "no heuristic ranking changes vs paper-4x2 in this grid"
        )

    def test_absent_baseline_makes_no_ranking_claim(self):
        result = _result({"big-little-8": (400, 300, 200, 100)})
        text = format_scaling(result, baseline="paper-4x2")
        assert text.endswith(
            "baseline paper-4x2 is not in this grid: heuristic rankings "
            "were not compared"
        )
        assert "ranking changes" not in text


class TestUtilization:
    def test_useful_over_occupied_per_pu(self):
        result = ScalingResult()
        key = ("compress", "big-little-8", "path", LEVELS[0])
        result.records[key] = _record(
            100, pu={"useful": [5, 0, 4], "occupied": [10, 0, 4]}
        )
        assert result.utilization(key) == [0.5, 0.0, 1.0]

    def test_no_telemetry_is_empty(self):
        result = _result({"paper-4x2": (400, 300, 200, 100)})
        assert result.utilization(
            ("compress", "paper-4x2", "path", LEVELS[0])
        ) == []


def test_specs_cross_every_axis_in_key_order():
    keys, specs = scaling_specs(["compress"], ("paper-4x2", "big-little-8"),
                                ("path", "gshare"), scale=0.05)
    assert len(keys) == len(specs) == 2 * 2 * len(LEVELS)
    for (bench, machine, predictor, level), spec in zip(keys, specs):
        assert spec.benchmark == bench and spec.level is level
        assert spec.sim == replace(get_machine(machine), predictor=predictor)
    assert [key[1] for key in keys[::8]] == ["paper-4x2", "big-little-8"]
