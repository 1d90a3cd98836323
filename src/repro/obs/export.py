"""Exporters: Chrome-trace JSON (Perfetto), phase tables, Prometheus.

Chrome Trace Event Format reference: ``ph:"X"`` complete events carry
``ts``/``dur`` in **microseconds** — here *virtual* microseconds, so a
Perfetto timeline of a run reads directly in simulated time.  ``ph:"M"``
metadata names the process (track) and thread (lane) rows; ``ph:"i"``
instants mark point events (faults, crashes, VM lifecycle).

Every iteration below is over sorted keys (nodes, functions, metric
names): export output is a deterministic function of the recorded data,
never of dict insertion order.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.trace import CONTROL_TID, SpanTracer


def chrome_trace_events(tracer: SpanTracer) -> List[Dict]:
    """The ``traceEvents`` list for one tracer, ready to serialize."""
    events: List[Dict] = []
    procs = tracer.processes()
    # Metadata first, sorted by track name ("rack" got pid 0; nodes
    # follow in name order because make_* helpers name them node0..N).
    for name in sorted(procs, key=lambda n: (procs[n] != 0, n)):
        pid = procs[name]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": CONTROL_TID, "args": {"name": "events"}})
        for tid in range(CONTROL_TID + 1, tracer.lane_count(pid) + 1):
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": f"lane-{tid}"}})
    # Spans and instants in one stream, begin-sorted (Perfetto requires
    # begin-sorted input for correct nesting on a tid); at equal ts,
    # longer spans first so parents precede children, then a pure
    # content key.  The key must depend only on event *content*, never
    # on record order: a parallel run's merged shard traces arrive in
    # shard order, not the serial run's emission order, and byte-equal
    # export of equal multisets is what makes the trace the fourth
    # bit-identical artifact (result, records, registry, trace).
    timed = []
    for t0, t1, pid, tid, name, cat, trace_id, args in tracer.spans:
        event = {"name": name, "cat": cat, "ph": "X",
                 "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6,
                 "pid": pid, "tid": tid}
        event_args = dict(args) if args else {}
        if trace_id:
            event_args["trace_id"] = trace_id
        if event_args:
            event["args"] = event_args
        timed.append((t0 * 1e6, -(t1 - t0), 0, pid, tid, name, trace_id,
                      _canonical_args(args), event))
    for t, pid, tid, name, args in tracer.instants:
        event = {"name": name, "cat": "instant", "ph": "i",
                 "ts": t * 1e6, "s": "t", "pid": pid, "tid": tid}
        if args:
            event["args"] = dict(args)
        timed.append((t * 1e6, 0.0, 1, pid, tid, name, 0,
                      _canonical_args(args), event))
    timed.sort(key=lambda entry: entry[:8])
    events.extend(entry[8] for entry in timed)
    return events


def _canonical_args(args: Optional[Dict]) -> str:
    """A sortable, content-only rendering of an event's args."""
    if not args:
        return ""
    return json.dumps(args, sort_keys=True)


def to_chrome_trace(tracer: SpanTracer,
                    metadata: Optional[Dict] = None) -> Dict:
    """A complete Perfetto-loadable JSON object."""
    out = {"traceEvents": chrome_trace_events(tracer),
           "displayTimeUnit": "ms"}
    if metadata:
        out["otherData"] = {k: metadata[k] for k in sorted(metadata)}
    return out


def write_chrome_trace(tracer: SpanTracer, path,
                       metadata: Optional[Dict] = None) -> int:
    """Write the trace JSON; returns the number of trace events."""
    payload = to_chrome_trace(tracer, metadata=metadata)
    Path(path).write_text(json.dumps(payload))
    return len(payload["traceEvents"])


# -- schema validation ---------------------------------------------------------

#: Minimal JSON-schema for the exported Chrome trace: the envelope, the
#: three event phases we emit, and the per-phase required fields.  CI
#: validates every exported trace against this before uploading it.
CHROME_TRACE_SCHEMA: Dict = {
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit"],
    "properties": {
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
        "otherData": {"type": "object"},
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"type": "string", "enum": ["X", "i", "M"]},
                    "pid": {"type": "integer", "minimum": 0},
                    "tid": {"type": "integer", "minimum": 0},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "cat": {"type": "string"},
                    "s": {"type": "string", "enum": ["t", "p", "g"]},
                    "args": {"type": "object"},
                },
            },
        },
    },
}

#: Extra per-phase requirements the generic schema cannot express.
_PHASE_REQUIRED = {"X": ("ts", "dur"), "i": ("ts", "s"), "M": ("args",)}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
}


def _validate_node(obj, schema: Dict, path: str, errors: List[str]) -> None:
    """Recursive validator for the JSON-schema subset used above."""
    expected = schema.get("type")
    if expected is not None and not _TYPE_CHECKS[expected](obj):
        errors.append(f"{path}: expected {expected}, "
                      f"got {type(obj).__name__}")
        return
    enum = schema.get("enum")
    if enum is not None and obj not in enum:
        errors.append(f"{path}: {obj!r} not in {enum}")
    minimum = schema.get("minimum")
    if minimum is not None and isinstance(obj, (int, float)) \
            and obj < minimum:
        errors.append(f"{path}: {obj!r} < minimum {minimum}")
    if expected == "object":
        for req in schema.get("required", ()):
            if req not in obj:
                errors.append(f"{path}: missing required key {req!r}")
        props = schema.get("properties", {})
        for key in sorted(props):
            if key in obj:
                _validate_node(obj[key], props[key], f"{path}.{key}",
                               errors)
    elif expected == "array":
        items = schema.get("items")
        if items is not None:
            for i, entry in enumerate(obj):
                _validate_node(entry, items, f"{path}[{i}]", errors)


def validate_chrome_trace(data: Dict) -> List[str]:
    """Validate an exported trace against :data:`CHROME_TRACE_SCHEMA`.

    Returns a list of violations (empty = valid): schema mismatches
    plus the per-phase field requirements (X events need ts/dur, i
    events need ts/s, M events need args).
    """
    errors: List[str] = []
    _validate_node(data, CHROME_TRACE_SCHEMA, "$", errors)
    if not errors:
        for i, event in enumerate(data["traceEvents"]):
            for req in _PHASE_REQUIRED.get(event.get("ph"), ()):
                if req not in event:
                    errors.append(
                        f"$.traceEvents[{i}]: ph={event.get('ph')!r} "
                        f"requires {req!r}")
    return errors


# -- phase breakdown ----------------------------------------------------------

#: Phase spans reported in the cold-start decomposition, in lifecycle
#: order (everything else recorded under a trace_id still aggregates,
#: appended in name order after these).
PHASE_ORDER = ("queue", "dispatch", "warm_hit", "acquire", "criu_restore",
               "proc_state_restore", "mmt_attach", "fault_replay", "exec",
               "teardown")


def phase_breakdown(tracer: SpanTracer) -> Dict[str, Dict[str, Dict]]:
    """Per start-kind, per phase: count and mean/max duration (seconds).

    This is the paper-style cold-start decomposition: root spans (cat
    ``"invocation"``) carry the start kind; phase spans sharing the root's
    ``trace_id`` are grouped under it.  Phases whose kind cannot be
    resolved (e.g. an invocation interrupted by a crash before its root
    span was emitted) land under ``"unknown"``.
    """
    kind_by_trace: Dict[int, str] = {}
    for t0, t1, _pid, _tid, _name, cat, trace_id, args in tracer.spans:
        if cat == "invocation" and trace_id:
            kind_by_trace[trace_id] = (args or {}).get("kind", "unknown")
    acc: Dict[str, Dict[str, List[float]]] = {}
    for t0, t1, _pid, _tid, name, cat, trace_id, _args in tracer.spans:
        if cat != "phase" or not trace_id:
            continue
        kind = kind_by_trace.get(trace_id, "unknown")
        acc.setdefault(kind, {}).setdefault(name, []).append(t1 - t0)
    out: Dict[str, Dict[str, Dict]] = {}
    for kind in sorted(acc):
        phases = acc[kind]
        ordered = [p for p in PHASE_ORDER if p in phases]
        ordered += sorted(set(phases) - set(PHASE_ORDER))
        out[kind] = {}
        for phase in ordered:
            durations = phases[phase]
            out[kind][phase] = {
                "count": len(durations),
                # fsum: the mean must not depend on record order,
                # which differs between a serial and a merged trace.
                "mean_ms": math.fsum(durations) / len(durations) * 1e3,
                "max_ms": max(durations) * 1e3,
            }
    return out


def phase_table(tracer: SpanTracer) -> str:
    """The phase breakdown rendered as an aligned text table."""
    breakdown = phase_breakdown(tracer)
    lines = []
    header = f"{'start kind':<12} {'phase':<20} {'count':>8} " \
             f"{'mean ms':>10} {'max ms':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for kind in sorted(breakdown):
        for phase, row in breakdown[kind].items():
            lines.append(f"{kind:<12} {phase:<20} {row['count']:>8} "
                         f"{row['mean_ms']:>10.3f} {row['max_ms']:>10.3f}")
    return "\n".join(lines)
