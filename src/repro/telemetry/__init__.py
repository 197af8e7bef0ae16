"""Observability for the simulator: tracing, metrics, run reports.

The paper's artefacts (Figure 5, Table 1, the Figure 2 breakdown) are
aggregate views; this package explains *individual runs*:

* :mod:`~repro.telemetry.collector` — :class:`TraceCollector`, a
  duck-typed machine hook (the same pattern as the reliability
  ``InvariantMonitor``: ``sim`` never imports telemetry, and an
  unattached machine pays nothing) that records every task's
  assign → first-issue → squash/retire lifecycle per PU, plus instant
  events for task/branch mispredictions and ARB violations.  Both
  engines emit identical canonical event streams on the same cell —
  the bit-identity guarantee extends to telemetry.
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON (loadable
  in Perfetto / ``chrome://tracing``): PUs map to tracks, simulated
  cycles to microsecond timestamps (``repro trace``).
* :mod:`~repro.telemetry.metrics` — :class:`MetricsRegistry` of
  counters and fixed-bucket histograms; every run's summary is
  serialized into its :class:`~repro.experiments.runner.RunRecord`,
  the harness ledger, and the artifact cache.
* :mod:`~repro.telemetry.report` — ``repro report``: diff two result
  sets / ledgers / bench baselines cell by cell and flag simulated
  cycle drift.
"""

from repro.telemetry.collector import TraceCollector
from repro.telemetry.export import (
    chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    run_metrics,
)
from repro.telemetry.report import (
    ReportRow,
    diff_cells,
    format_report,
    load_cells,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ReportRow",
    "TraceCollector",
    "chrome_trace",
    "diff_cells",
    "format_report",
    "load_cells",
    "run_metrics",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
]
