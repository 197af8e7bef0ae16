"""Chrome trace-event export (Perfetto / ``chrome://tracing``).

Maps one :class:`~repro.telemetry.collector.TraceCollector` onto the
JSON-object flavour of the trace-event format:

* one process (``pid`` 0) named after the run label;
* one thread (track) per PU, plus a ``sequencer`` track for
  machine-level instants;
* one simulated cycle = one microsecond of trace time (``ts``/``dur``
  are trace-event microseconds), so Perfetto's time axis reads
  directly in cycles;
* every task execution attempt is a complete (``"X"``) slice from
  assignment to retire/squash, with nested ``execute`` and ``commit``
  sub-slices where the attempt got that far; task mispredictions,
  branch mispredictions and ARB violations are instant (``"i"``)
  events.

:func:`validate_chrome_trace` is the schema gate the tests and the CI
smoke job share: it checks the structural invariants Perfetto needs
(``traceEvents`` list; ``ph``/``ts``/``pid`` on every event; ``dur``
on complete events) and returns problems instead of raising, so the
caller decides severity.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.telemetry.collector import TraceCollector

#: trace-event phases that carry no timestamp requirement
_METADATA_PHASES = {"M"}


def _metadata(pid: int, tid: Optional[int], name: str, value: str) -> Dict:
    event = {"name": name, "ph": "M", "pid": pid, "ts": 0,
             "args": {"name": value}}
    if tid is not None:
        event["tid"] = tid
    return event


def chrome_trace(collector: TraceCollector) -> Dict:
    """One collector's event stream as a Chrome trace-event JSON object."""
    n_pus = collector.n_pus
    seq_tid = n_pus  # sequencer track
    label = collector.label or "run"
    events: List[Dict] = [
        _metadata(0, None, "process_name", f"{label} [{collector.engine}]")
    ]
    for pu in range(n_pus):
        events.append(_metadata(0, pu, "thread_name", f"PU {pu}"))
    events.append(_metadata(0, seq_tid, "thread_name", "sequencer"))

    #: open task attempts: seq -> (pu, assign_cycle, attempt#)
    open_tasks: Dict[int, Tuple[int, int, int]] = {}
    #: open commit slices: seq -> (pu, commit_start)
    open_commits: Dict[int, Tuple[int, int]] = {}
    #: open wrong-path occupancy: pu -> start cycle
    open_wrong: Dict[int, int] = {}
    attempts: Dict[int, int] = {}

    def complete(name: str, tid: int, start: int, end: int,
                 cat: str, args: Dict) -> None:
        events.append({
            "name": name, "ph": "X", "cat": cat, "pid": 0, "tid": tid,
            "ts": start, "dur": max(0, end - start), "args": args,
        })

    def instant(name: str, tid: int, cycle: int, args: Dict) -> None:
        events.append({
            "name": name, "ph": "i", "s": "t", "pid": 0, "tid": tid,
            "ts": cycle, "args": args,
        })

    def close_task(seq: int, cycle: int, outcome: str, first_issue: int,
                   extra: Dict) -> None:
        pu, start, attempt = open_tasks.pop(seq)
        args = {"seq": seq, "attempt": attempt, "outcome": outcome,
                "assign": start}
        args.update(extra)
        complete(f"task {seq}", pu, start, cycle, "task", args)
        if first_issue >= 0:
            complete("execute", pu, first_issue, cycle, "phase",
                     {"seq": seq, "attempt": attempt})

    for event in collector.events:
        kind = event[0]
        if kind == "assign":
            _, seq, pu, cycle = event
            attempts[seq] = attempts.get(seq, 0) + 1
            open_tasks[seq] = (pu, cycle, attempts[seq])
        elif kind == "wrong_assign":
            _, pu, cycle = event
            open_wrong[pu] = cycle
        elif kind == "task_mispredict":
            _, seq, cycle = event
            instant("task mispredict", seq_tid, cycle, {"seq": seq})
        elif kind == "branch_mispredict":
            _, seq, idx, pu, cycle = event
            instant("branch mispredict", pu, cycle,
                    {"seq": seq, "inst": idx})
        elif kind == "arb_violation":
            _, seq, cycle, injected = event
            tid = open_tasks[seq][0] if seq in open_tasks else seq_tid
            instant("ARB violation", tid, cycle,
                    {"victim": seq, "injected": injected})
        elif kind == "squash":
            _, seq, pu, cycle, penalty, cause, first_issue = event
            open_commits.pop(seq, None)
            if seq in open_tasks:
                close_task(seq, cycle, f"squash_{cause}", first_issue,
                           {"penalty": penalty, "cause": cause})
        elif kind == "wrong_squash":
            _, pu, cycle, penalty = event
            start = open_wrong.pop(pu, cycle)
            complete("wrong path", pu, start, cycle, "wrong",
                     {"penalty": penalty})
        elif kind == "commit":
            _, seq, pu, cycle = event
            open_commits[seq] = (pu, cycle)
        elif kind == "retire":
            _, seq, pu, cycle, first_issue, done = event
            commit = open_commits.pop(seq, None)
            if seq in open_tasks:
                close_task(seq, cycle, "retire", first_issue,
                           {"done": done})
            if commit is not None:
                complete("commit", pu, commit[1], cycle,
                         "phase", {"seq": seq})

    final = collector.final_cycle
    for seq, (pu, start, attempt) in sorted(open_tasks.items()):
        complete(f"task {seq}", pu, start, final, "task",
                 {"seq": seq, "attempt": attempt, "outcome": "unfinished"})
    for pu, start in sorted(open_wrong.items()):
        complete("wrong path", pu, start, final, "wrong", {})

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "engine": collector.engine,
            "n_pus": n_pus,
            "final_cycle": final,
            "canonical_events": len(collector.events),
        },
    }


def write_chrome_trace(path, collector: TraceCollector) -> Dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the payload."""
    payload = chrome_trace(collector)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload


def validate_chrome_trace(payload: Dict) -> List[str]:
    """Structural problems in a trace-event payload (empty = valid).

    Checks what a trace viewer needs: a ``traceEvents`` list whose
    every entry carries a ``ph`` phase, an integer ``ts`` >= 0, and a
    ``pid``; complete events additionally a non-negative ``dur``.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{i} is not an object")
            continue
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"event #{i} has no ph phase")
            continue
        if "pid" not in event:
            problems.append(f"event #{i} ({ph}) has no pid")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            if ph not in _METADATA_PHASES or ts is not None:
                problems.append(f"event #{i} ({ph}) has bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event #{i} (X) has bad dur {dur!r}")
    return problems


def validate_chrome_trace_file(path) -> None:
    """Load ``path`` and raise ``ValueError`` on any schema problem.

    The CI smoke job calls this directly after ``repro trace``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError(
            f"{path}: {len(problems)} trace schema problem(s): "
            + "; ".join(problems[:10])
        )
