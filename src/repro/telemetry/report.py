"""``repro report``: per-cell diff of two runs' results.

Each input is loaded into the same shape — a mapping from a cell
label (``benchmark/level@Npu-mode``, the harness's job label) to a
flat dict of numeric metrics — from any of:

* a ``--json`` record grid (``{"command": ..., "records": [...]}``),
* a harness ledger (``ledger.jsonl``; the latest successful entry per
  cell wins, metrics come from its embedded registry summary),
* a ``repro bench`` record / baseline (``BENCH_sim.json``; grid-level
  cells labelled ``grid@engine``),
* the built-in name ``paper-table1`` — the source paper's Table 1
  rows excerpted in ``EXPERIMENTS.md`` (8-PU out-of-order cells;
  task-shape metrics only, no cycle counts).

The report table covers every cell present in both inputs.  The
simulator is deterministic, so differing simulated cycle counts on
the same cell mean the simulation's *behaviour* changed — those rows
are flagged ``DRIFT`` and the CLI exits non-zero (``--tolerance``
loosens the gate to a relative fraction).  When both inputs carry a
Figure-2 breakdown, drifted rows also show which cycle categories
moved.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.harness.spec import cell_label
from repro.sim.breakdown import CycleBreakdown

#: metrics shown as extra columns when both sides have them
_SECONDARY = ("ipc", "mean_task_size", "task_misprediction_percent",
              "fuzz_divergences", "pu_util_min", "pu_util_mean",
              "pu_util_max")


def _pu_metrics(summary: Optional[Dict], metrics: Dict) -> None:
    """Fold a registry summary's per-PU telemetry into report columns.

    Heterogeneous-machine cells carry ``metrics["pu"]`` (useful /
    occupied counts per PU); the report reduces them to the
    lo/mean/hi utilization spread so starvation shifts show up as
    secondary columns without widening the table per PU.
    """
    pu = (summary or {}).get("pu")
    if not isinstance(pu, dict) or not pu.get("occupied"):
        return
    utils = [
        useful / occupied if occupied else 0.0
        for useful, occupied in zip(pu.get("useful", ()), pu["occupied"])
    ]
    if not utils:
        return
    metrics["pu_util_min"] = min(utils)
    metrics["pu_util_mean"] = sum(utils) / len(utils)
    metrics["pu_util_max"] = max(utils)

#: the paper's Table 1 rows this repo documents (EXPERIMENTS.md §Table 1),
#: usable as a comparison target: ``repro report run.json paper-table1``
PAPER_TABLE1: Dict[str, Dict[str, float]] = {
    cell_label("go", "basic_block", 8, True): {
        "mean_task_size": 6.4, "task_misprediction_percent": 14.0},
    cell_label("go", "control_flow", 8, True): {
        "mean_task_size": 18.2, "task_misprediction_percent": 15.0},
    cell_label("go", "data_dependence", 8, True): {
        "mean_task_size": 12.7, "task_misprediction_percent": 15.0},
    cell_label("m88ksim", "basic_block", 8, True): {
        "mean_task_size": 4.3, "task_misprediction_percent": 3.1},
    cell_label("m88ksim", "control_flow", 8, True): {
        "mean_task_size": 14.8, "task_misprediction_percent": 4.0},
    cell_label("m88ksim", "data_dependence", 8, True): {
        "mean_task_size": 10.3, "task_misprediction_percent": 4.9},
}


class CellSource(NamedTuple):
    """One loaded input: where it came from and its per-cell metrics."""

    kind: str  # "records" | "ledger" | "bench" | "paper"
    label: str
    cells: Dict[str, Dict]


class ReportRow(NamedTuple):
    """One compared cell."""

    cell: str
    metrics_a: Dict
    metrics_b: Dict
    drifted: bool


def _record_cell(record: Dict) -> Tuple[str, Dict]:
    label = cell_label(
        record.get("benchmark", "?"), record.get("level", "?"),
        int(record.get("n_pus", 0)), bool(record.get("out_of_order", True)),
    )
    metrics = {
        name: record[name]
        for name in (
            "cycles", "instructions", "ipc", "dynamic_tasks",
            "mean_task_size", "task_misprediction_percent",
        )
        if name in record
    }
    if isinstance(record.get("breakdown"), dict):
        metrics["breakdown"] = record["breakdown"]
    summary = record.get("metrics")
    _pu_metrics(summary if isinstance(summary, dict) else None, metrics)
    return label, metrics


def _ledger_cells(path: Path) -> Dict[str, Dict]:
    from repro.harness.ledger import read_ledger

    cells: Dict[str, Dict] = {}
    for entry in read_ledger(path):
        if "event" in entry or entry.get("outcome") != "ok":
            continue
        if not entry.get("benchmark"):
            continue
        label = cell_label(
            entry["benchmark"], entry.get("level", "?"),
            int(entry.get("n_pus", 0)), bool(entry.get("out_of_order", True)),
        )
        metrics: Dict = {}
        summary = entry.get("metrics") or {}
        counters = summary.get("counters") or {}
        for name in ("cycles", "instructions", "dynamic_tasks"):
            if name in counters:
                metrics[name] = counters[name]
        if metrics.get("cycles"):
            metrics["ipc"] = metrics.get("instructions", 0) / metrics["cycles"]
        fuzz = summary.get("fuzz")
        if isinstance(fuzz, dict):
            # Strategy-sweep cells reuse the level of the reference
            # cell they shadow; the suffix keeps them distinct.
            if fuzz.get("strategy"):
                label = f"{label}+{fuzz['strategy']}"
            # Machine-sweep cells likewise shadow a reference level.
            if fuzz.get("machine"):
                label = f"{label}/{fuzz['machine']}"
            metrics["fuzz_divergences"] = len(fuzz.get("divergences") or ())
        _pu_metrics(summary, metrics)
        # latest successful entry for a cell wins (reruns supersede)
        cells[label] = metrics
    return cells


def load_cells(source: str) -> CellSource:
    """Load one report input (path or built-in name) into cells.

    Raises ``ValueError`` when the input exists but has no
    recognisable shape, and ``OSError`` when it cannot be read.
    """
    if source == "paper-table1":
        return CellSource("paper", source,
                          {k: dict(v) for k, v in PAPER_TABLE1.items()})
    path = Path(source)
    text = path.read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and isinstance(payload.get("records"), list):
        cells = dict(
            _record_cell(rec) for rec in payload["records"]
            if isinstance(rec, dict)
        )
        return CellSource("records", source, cells)
    if isinstance(payload, dict) and isinstance(payload.get("grids"), dict):
        cells = {}
        for key, entry in payload["grids"].items():
            metrics = {"cycles": entry.get("sim_cycles")}
            if entry.get("wall_s") is not None:
                metrics["wall_s"] = entry["wall_s"]
            cells[key] = metrics
        return CellSource("bench", source, cells)
    # Not a single JSON document with a known shape: try JSONL ledger.
    cells = _ledger_cells(path)
    if cells:
        return CellSource("ledger", source, cells)
    raise ValueError(
        f"{source}: not a record grid, bench record, or ledger with "
        f"per-cell metrics (is it from an older schema without the "
        f"metrics summary?)"
    )


def diff_cells(a: CellSource, b: CellSource,
               tolerance: float = 0.0) -> List[ReportRow]:
    """Rows for every cell present in both inputs, sorted by label.

    A row is *drifted* when both sides report simulated cycles and
    they differ by more than ``tolerance`` (a relative fraction;
    0 demands exact equality — the engines are deterministic).
    """
    rows: List[ReportRow] = []
    for cell in sorted(set(a.cells) & set(b.cells)):
        ma, mb = a.cells[cell], b.cells[cell]
        drifted = False
        ca, cb = ma.get("cycles"), mb.get("cycles")
        if ca is not None and cb is not None:
            if tolerance <= 0:
                drifted = ca != cb
            else:
                base = max(abs(ca), 1)
                drifted = abs(ca - cb) / base > tolerance
        rows.append(ReportRow(cell, ma, mb, drifted))
    return rows


def _breakdown_drift(ma: Dict, mb: Dict) -> Optional[str]:
    """Per-category cycle deltas when both sides carry a breakdown."""
    if not (isinstance(ma.get("breakdown"), dict)
            and isinstance(mb.get("breakdown"), dict)):
        return None
    delta = CycleBreakdown.from_dict(ma["breakdown"]).diff(
        CycleBreakdown.from_dict(mb["breakdown"])
    )
    if not delta:
        return None
    moved = ", ".join(f"{name} {value:+d}" for name, value in delta.items())
    return f"    breakdown: {moved}"


def format_report(a: CellSource, b: CellSource,
                  rows: List[ReportRow]) -> str:
    """Human-readable regression table for ``repro report``."""
    lines = [
        f"A: {a.label} ({a.kind}, {len(a.cells)} cell(s))",
        f"B: {b.label} ({b.kind}, {len(b.cells)} cell(s))",
    ]
    only_a = sorted(set(a.cells) - set(b.cells))
    only_b = sorted(set(b.cells) - set(a.cells))
    if only_a:
        lines.append(f"only in A: {len(only_a)} cell(s)")
    if only_b:
        lines.append(f"only in B: {len(only_b)} cell(s)")
    if not rows:
        lines.append("no cells in common — nothing to compare")
        return "\n".join(lines)
    lines.append(
        f"{'cell':<44} {'cycles A':>12} {'cycles B':>12} "
        f"{'Δcycles':>10}  status"
    )
    drifted = 0
    for row in rows:
        ca, cb = row.metrics_a.get("cycles"), row.metrics_b.get("cycles")
        if ca is None or cb is None:
            cycles_a = "-" if ca is None else f"{ca:,}"
            cycles_b = "-" if cb is None else f"{cb:,}"
            delta, status = "-", "n/a"
        else:
            cycles_a, cycles_b = f"{ca:,}", f"{cb:,}"
            delta = f"{cb - ca:+,}"
            status = "DRIFT" if row.drifted else "ok"
        if row.drifted:
            drifted += 1
        lines.append(
            f"{row.cell:<44} {cycles_a:>12} {cycles_b:>12} "
            f"{delta:>10}  {status}"
        )
        extras = []
        for name in _SECONDARY:
            va = row.metrics_a.get(name)
            vb = row.metrics_b.get(name)
            if va is not None and vb is not None and va != vb:
                extras.append(f"{name} {va:.3g}→{vb:.3g}")
        if extras and (row.drifted or status == "n/a"):
            lines.append("    " + "; ".join(extras))
        if row.drifted:
            detail = _breakdown_drift(row.metrics_a, row.metrics_b)
            if detail:
                lines.append(detail)
    lines.append(
        f"{len(rows)} cell(s) compared: {len(rows) - drifted} ok, "
        f"{drifted} drifted"
    )
    return "\n".join(lines)
