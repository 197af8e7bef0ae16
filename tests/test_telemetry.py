"""Telemetry subsystem: collector, exporter, metrics, ledger, report.

The load-bearing guarantee is engine equivalence: the kernel's
lifecycle log must equal the one ``_tick`` writes, word for word,
cell by cell — the log is a far finer-grained probe than the
aggregate ``SimResult`` the fastpath tests compare, so an event that
lands a cycle late or out of order fails here first.  A tracer is
called twice, ``attach`` and ``on_finish``; a tracer that answers
nothing else pins that protocol.
"""

import json

import pytest

from repro.compiler import HeuristicLevel
from repro.experiments.runner import (
    cell_config,
    compile_benchmark,
    run_benchmark,
)
from repro.harness.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerEntry,
    RunLedger,
    read_ledger,
)
from repro.harness.serialize import record_to_dict
from repro.harness.spec import RunSpec, cell_label
from repro.reliability import FaultPlan
from repro.sim import SimConfig, native
from repro.sim.machine import MultiscalarMachine
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    TraceCollector,
    chrome_trace,
    diff_cells,
    format_report,
    load_cells,
    run_metrics,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.telemetry.report import PAPER_TABLE1

SMALL = 0.1

#: benchmarks for the equivalence sweep: two integer codes with heavy
#: control misspeculation, one memory-violation-prone code, one FP code
SWEEP_BENCHMARKS = ("compress", "go", "m88ksim", "tomcatv")
ALL_LEVELS = list(HeuristicLevel)


def _traced_machine(name, level, engine, tracer=None, faults=None):
    compiled = compile_benchmark(name, level, scale=SMALL)
    machine = MultiscalarMachine(
        compiled.stream, SimConfig(engine=engine), compiled.release,
        faults=faults, label=name,
        tracer=TraceCollector() if tracer is None else tracer,
    )
    result = machine.run()
    return machine, result


def _traced_run(name, level, engine):
    machine, result = _traced_machine(name, level, engine)
    return machine.tracer, result


class TwoCallTracer:
    """A tracer with only the two calls a machine makes; asking it for
    anything else fails the test."""

    def __init__(self) -> None:
        self.calls = []
        self.collector = TraceCollector()

    def attach(self, machine) -> None:
        self.calls.append("attach")
        self.collector.attach(machine)

    def on_finish(self, machine, result) -> None:
        self.calls.append("on_finish")
        self.collector.on_finish(machine, result)

    def __getattr__(self, name):
        raise AssertionError(f"a machine asked its tracer for {name!r}")


# ---------------------------------------------------------------- metrics


class TestMetrics:
    def test_histogram_bucketing(self):
        h = Histogram("h", (1, 2, 4))
        for v in (0, 1, 2, 3, 4, 5, 100):
            h.observe(v)
        # buckets: <=1, <=2, <=4, overflow
        assert h.counts == [2, 1, 2, 2]
        assert h.total == 7
        assert h.max == 100
        assert h.mean == pytest.approx(115 / 7)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", (4, 2, 1))

    def test_registry_counter_and_summary(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2)
        reg.histogram("h", (1, 2)).observe(2)
        summary = reg.summary()
        assert summary["counters"] == {"a": 3}
        assert summary["histograms"]["h"]["count"] == 1
        json.dumps(summary)  # must be JSON-ready

    def test_registry_rejects_rebucketing(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", (1, 2, 3))
        with pytest.raises(KeyError):
            reg.histogram("unregistered")

    def test_run_metrics_matches_result(self):
        compiled = compile_benchmark(
            "compress", HeuristicLevel.DATA_DEPENDENCE, scale=SMALL
        )
        result = MultiscalarMachine(
            compiled.stream, SimConfig(), compiled.release
        ).run()
        summary = run_metrics(result, compiled.stream)
        counters = summary["counters"]
        assert counters["cycles"] == result.cycles
        assert counters["instructions"] == result.committed_instructions
        sizes = summary["histograms"]["task_size"]
        assert sizes["count"] == result.dynamic_tasks
        assert sizes["sum"] == sum(
            t.length for t in compiled.stream.tasks
        )
        depths = summary["histograms"]["squash_depth"]
        assert depths["count"] == len(result.squash_depths)

    def test_task_size_histogram_memoized_on_stream(self):
        compiled = compile_benchmark(
            "li", HeuristicLevel.BASIC_BLOCK, scale=SMALL
        )
        result = MultiscalarMachine(
            compiled.stream, SimConfig(), compiled.release
        ).run()
        first = run_metrics(result, compiled.stream)
        assert compiled.stream._task_size_counts is not None
        second = run_metrics(result, compiled.stream)
        assert first == second


# -------------------------------------------------------------- collector


class TestCollector:
    def test_lifecycle_counts_are_consistent(self):
        collector, result = _traced_run(
            "compress", HeuristicLevel.DATA_DEPENDENCE, "fast"
        )
        counts = collector.counts()
        # every task is assigned at least once and retired exactly once
        assert counts["retire"] == result.dynamic_tasks
        assert counts["commit"] == counts["retire"]
        assert counts["assign"] >= result.dynamic_tasks
        # re-executions: one extra assign per real-task squash victim
        assert counts["assign"] - result.dynamic_tasks == sum(
            result.squash_depths
        )
        assert counts.get("task_mispredict", 0) == (
            result.task_mispredictions
        )
        # wrong-path occupancy is always reclaimed
        assert counts.get("wrong_assign", 0) == counts.get(
            "wrong_squash", 0
        )
        assert collector.final_cycle == result.cycles

    def test_untraced_machine_has_no_tracer_state(self):
        compiled = compile_benchmark(
            "compress", HeuristicLevel.DATA_DEPENDENCE, scale=SMALL
        )
        machine = MultiscalarMachine(
            compiled.stream, SimConfig(), compiled.release
        )
        assert machine.tracer is None
        assert machine.events is None
        assert all(pu.events is None for pu in machine.pus)
        machine.run()  # must not touch any telemetry path
        assert machine.events is None

    def test_squash_event_carries_cause_and_first_issue(self):
        collector, result = _traced_run(
            "m88ksim", HeuristicLevel.CONTROL_FLOW, "fast"
        )
        squashes = [e for e in collector.events if e[0] == "squash"]
        assert len(squashes) == sum(result.squash_depths)
        for _, seq, pu, cycle, penalty, cause, first_issue in squashes:
            assert cause in ("memory", "control")
            assert penalty >= 0
            assert first_issue == -1 or 0 <= first_issue <= cycle


# ------------------------------------------------------ engine equivalence


@pytest.mark.parametrize("name", SWEEP_BENCHMARKS)
@pytest.mark.parametrize(
    "level", ALL_LEVELS, ids=[lvl.value for lvl in ALL_LEVELS]
)
def test_engines_emit_identical_event_streams(name, level):
    """The kernel's log equals ``_tick``'s word for word, and so do the
    decoded streams event by event, cell by cell."""
    fast_machine, fast_result = _traced_machine(name, level, "fast")
    ref_machine, ref_result = _traced_machine(name, level, "reference")
    assert fast_result.cycles == ref_result.cycles
    if native.kernel() is not None:
        assert fast_machine.kernel_counters is not None  # a kernel run
    words = native.EV_WORDS
    fast_log, ref_log = fast_machine.events, ref_machine.events
    for k in range(0, min(len(fast_log), len(ref_log)), words):
        assert fast_log[k:k + words] == ref_log[k:k + words], (
            f"{name}/{level.value}: record {k // words} differs: "
            f"fast={fast_log[k:k + words].tolist()} "
            f"reference={ref_log[k:k + words].tolist()}"
        )
    assert fast_log == ref_log
    fast, reference = fast_machine.tracer, ref_machine.tracer
    for k, (got, want) in enumerate(zip(fast.events, reference.events)):
        assert got == want, (
            f"{name}/{level.value}: event {k} differs: "
            f"fast={got} reference={want}"
        )
    assert len(fast.events) == len(reference.events)


class TestTracerProtocol:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_machine_calls_only_attach_and_on_finish(self, engine):
        tracer = TwoCallTracer()
        machine, result = _traced_machine(
            "compress", HeuristicLevel.DATA_DEPENDENCE, engine, tracer
        )
        assert tracer.calls == ["attach", "on_finish"]
        assert tracer.collector.counts()["retire"] == result.dynamic_tasks
        assert len(machine.events) == native.EV_WORDS * len(
            tracer.collector.events
        )

    def test_fault_injected_violations_are_marked_injected(self):
        """A fault plan forces ``_tick``; each spurious violation it
        injects is logged with its ``injected`` word set, and a real
        one with it clear."""
        tracer, plan = TwoCallTracer(), FaultPlan(seed=7, faults=20)
        machine, _ = _traced_machine(
            "m88ksim", HeuristicLevel.DATA_DEPENDENCE, "fast", tracer, plan
        )
        assert tracer.calls == ["attach", "on_finish"]
        assert machine.kernel_counters is None  # a _tick run
        injected = [("arb_violation", fault.seq, fault.cycle, True)
                    for fault in plan.injected if fault.kind == "memory"]
        assert injected
        violations = [event for event in tracer.collector.events
                      if event[0] == "arb_violation"]
        assert [event for event in violations if event[3]] == injected
        assert len(violations) > len(injected)  # a real one, not injected


# ----------------------------------------------------------------- export


class TestExport:
    def test_chrome_trace_is_schema_valid(self):
        collector, _ = _traced_run(
            "compress", HeuristicLevel.DATA_DEPENDENCE, "fast"
        )
        payload = chrome_trace(collector)
        assert validate_chrome_trace(payload) == []

    def test_trace_slices_cover_every_retire(self):
        collector, result = _traced_run(
            "li", HeuristicLevel.CONTROL_FLOW, "fast"
        )
        payload = chrome_trace(collector)
        tasks = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "task"
        ]
        retired = [
            e for e in tasks if e["args"].get("outcome") == "retire"
        ]
        assert len(retired) == result.dynamic_tasks
        n_pus = collector.n_pus
        for event in tasks:
            assert 0 <= event["tid"] < n_pus
            assert event["ts"] >= 0
            assert event["ts"] + event["dur"] <= result.cycles

    def test_write_and_validate_file(self, tmp_path):
        collector, _ = _traced_run(
            "compress", HeuristicLevel.BASIC_BLOCK, "fast"
        )
        path = tmp_path / "trace.json"
        write_chrome_trace(path, collector)
        validate_chrome_trace_file(path)  # must not raise
        payload = json.loads(path.read_text())
        assert payload["otherData"]["engine"] == "fast"

    def test_validate_flags_broken_traces(self, tmp_path):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{}]}) != []
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 0, "ts": 4}  # no dur
        ]}
        assert any("dur" in p for p in validate_chrome_trace(bad))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            validate_chrome_trace_file(path)


# ----------------------------------------------------------------- ledger


class TestLedgerSchema:
    def _entry(self, n):
        spec = RunSpec(
            benchmark="compress", level=HeuristicLevel.BASIC_BLOCK
        )
        return LedgerEntry.for_spec(
            spec, f"hash{n}", cache="miss", retries=0, outcome="ok",
            wall_seconds=0.1, metrics={"counters": {"cycles": n}},
        )

    def test_seq_is_monotonic_within_a_run(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        for n in range(3):
            ledger.record(self._entry(n))
        ledger.event("pool_broken", detail="x")
        seqs = [e["seq"] for e in read_ledger(ledger.path)]
        assert seqs == [0, 1, 2, 3]  # events share the sequence

    def test_seq_resumes_past_existing_entries(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).record(self._entry(0))
        # a second ledger object (a new process) continues the sequence
        RunLedger(path).record(self._entry(1))
        assert [e["seq"] for e in read_ledger(path)] == [0, 1]

    def test_schema_version_bumped_and_metrics_round_trip(self, tmp_path):
        assert LEDGER_SCHEMA_VERSION == 3
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.record(self._entry(7))
        (line,) = read_ledger(ledger.path)
        assert line["schema_version"] == 3
        assert line["metrics"]["counters"]["cycles"] == 7
        entry = LedgerEntry.from_dict(line)
        assert entry.metrics == {"counters": {"cycles": 7}}

    def test_tolerant_reader_accepts_schema_2_lines(self, tmp_path):
        """Old ledgers (schema 2: no seq, no metrics) must still parse
        for ``repro report`` and for LedgerEntry.from_dict."""
        path = tmp_path / "old.jsonl"
        old_line = {
            "ts": 1699.2, "schema_version": 2, "spec_hash": "ab12",
            "job": "compress/basic_block@4pu-ooo",
            "benchmark": "compress", "level": "basic_block",
            "n_pus": 4, "out_of_order": True, "cache": "miss",
            "retries": 0, "outcome": "ok", "wall_seconds": 0.42,
            "error": None,
        }
        path.write_text(json.dumps(old_line) + "\n")
        (parsed,) = read_ledger(path)
        entry = LedgerEntry.from_dict(parsed)
        assert entry.spec_hash == "ab12"
        assert entry.metrics is None
        # and a new writer appends seq'd lines after the old ones
        RunLedger(path).record(self._entry(0))
        lines = read_ledger(path)
        assert "seq" not in lines[0]
        assert lines[1]["seq"] == 0


# ----------------------------------------------------------------- report


class TestReport:
    def _records_json(self, tmp_path, name, cycles_bump=0):
        record = run_benchmark(
            "compress", HeuristicLevel.BASIC_BLOCK, scale=SMALL
        )
        payload = record_to_dict(record)
        payload["cycles"] += cycles_bump
        path = tmp_path / name
        path.write_text(json.dumps({"records": [payload]}))
        return path

    def test_identical_inputs_do_not_drift(self, tmp_path):
        a = load_cells(str(self._records_json(tmp_path, "a.json")))
        b = load_cells(str(self._records_json(tmp_path, "b.json")))
        rows = diff_cells(a, b)
        assert len(rows) == 1
        assert not rows[0].drifted
        assert "0 drifted" in format_report(a, b, rows)

    def test_cycle_mismatch_drifts(self, tmp_path):
        a = load_cells(str(self._records_json(tmp_path, "a.json")))
        b = load_cells(
            str(self._records_json(tmp_path, "b.json", cycles_bump=5))
        )
        rows = diff_cells(a, b)
        assert rows[0].drifted
        assert "DRIFT" in format_report(a, b, rows)
        # a loose tolerance forgives the same delta
        assert not diff_cells(a, b, tolerance=0.5)[0].drifted

    def test_record_and_ledger_cells_agree(self, tmp_path):
        record = run_benchmark(
            "compress", HeuristicLevel.BASIC_BLOCK, scale=SMALL
        )
        records_path = tmp_path / "run.json"
        records_path.write_text(
            json.dumps({"records": [record_to_dict(record)]})
        )
        spec = RunSpec(
            benchmark="compress", level=HeuristicLevel.BASIC_BLOCK
        )
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.record(LedgerEntry.for_spec(
            spec, "h", cache="miss", retries=0, outcome="ok",
            wall_seconds=0.1, metrics=record.metrics,
        ))
        rows = diff_cells(
            load_cells(str(records_path)),
            load_cells(str(ledger.path)),
        )
        assert len(rows) == 1
        assert not rows[0].drifted

    def test_paper_table1_builtin(self):
        cells = load_cells("paper-table1")
        assert cells.kind == "paper"
        key = cell_label("go", "basic_block", 8, True)
        assert cells.cells[key]["mean_task_size"] == 6.4
        assert set(cells.cells) == set(PAPER_TABLE1)

    def test_unrecognised_input_raises(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("not a ledger\nnot json either\n")
        with pytest.raises(ValueError):
            load_cells(str(path))


# ------------------------------------------------------- record plumbing


class TestRecordMetrics:
    def test_run_benchmark_attaches_metrics(self):
        record = run_benchmark(
            "compress", HeuristicLevel.DATA_DEPENDENCE, scale=SMALL
        )
        assert record.metrics is not None
        assert record.metrics["counters"]["cycles"] == record.cycles
        assert record_to_dict(record)["metrics"] == record.metrics

    def test_cell_label_matches_spec_describe(self):
        spec = RunSpec(
            benchmark="go", level=HeuristicLevel.CONTROL_FLOW,
            sim=cell_config(None, 8, False),
        )
        assert spec.describe() == cell_label(
            "go", HeuristicLevel.CONTROL_FLOW, 8, False
        )
        assert spec.describe() == "go/control_flow@8pu-ino"
