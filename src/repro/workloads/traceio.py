"""Loading real invocation traces from disk.

The Azure Functions dataset (Shahrad et al.) ships *wide* CSVs — one row
per function hash with per-minute invocation-count columns "1".."1440" —
while the Huawei dataset (Joosen et al.) is commonly redistributed in
*long* form (minute, function, count).  Both reduce to the same
per-minute count matrix, which the paper then randomises within each
minute ("we randomly distributed those within each minute, with a
probability of creating skew or bursty loads", §9.3).

Loaders here accept either layout and synthesise a
:class:`~repro.workloads.synthetic.Workload`, mapping trace functions
onto the Table-4 suite round-robin by popularity rank.
"""

from __future__ import annotations

import csv
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mem.layout import GB
from repro.sim.rng import SeededRNG
from repro.workloads.cache import memoized
from repro.workloads.functions import FUNCTIONS, FunctionProfile
from repro.workloads.synthetic import ArrivalEvent, Workload

#: minute index -> {trace function name -> invocation count}
CountMatrix = Dict[int, Dict[str, int]]

#: (resolved path, mtime_ns, size) -> parsed count matrix.  The file
#: signature invalidates the entry when the trace is rewritten; callers
#: get a per-minute copy so mutating a result cannot poison the cache.
_COUNTS_CACHE: "OrderedDict[tuple, CountMatrix]" = OrderedDict()  # simlint: shard-safe (deterministic memo: value is a pure function of the key)


def load_counts_csv(path) -> CountMatrix:
    """Parse a trace CSV in wide (Azure) or long (Huawei) layout.

    Parses are memoised by (path, mtime, size): sweep shards replaying
    the same trace at different seeds pay for one parse, not one per
    configuration.
    """
    path = Path(path)
    stat = path.stat()
    key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
    counts = memoized(_COUNTS_CACHE, key, lambda: _parse_counts_csv(path))
    return {minute: dict(per_min) for minute, per_min in counts.items()}


def _parse_counts_csv(path: Path) -> CountMatrix:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise ValueError(f"{path}: empty trace file")
    header = [h.strip() for h in rows[0]]
    lowered = [h.lower() for h in header]
    if "minute" in lowered and "count" in lowered:
        return _parse_long(header, rows[1:], path)
    return _parse_wide(header, rows[1:], path)


def _parse_long(header: List[str], rows, path) -> CountMatrix:
    lowered = [h.lower() for h in header]
    m_idx = lowered.index("minute")
    c_idx = lowered.index("count")
    f_idx = next((i for i, h in enumerate(lowered)
                  if h in ("function", "func", "app", "name")), None)
    if f_idx is None:
        raise ValueError(f"{path}: long format needs a function column")
    counts: CountMatrix = {}
    for lineno, row in enumerate(rows, start=2):
        if not row or not "".join(row).strip():
            continue
        try:
            minute = int(row[m_idx])
            count = int(row[c_idx])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad number") from exc
        if minute < 0 or count < 0:
            raise ValueError(f"{path}:{lineno}: negative value")
        per_min = counts.setdefault(minute, {})
        fn = row[f_idx].strip()
        per_min[fn] = per_min.get(fn, 0) + count
    return counts


def _parse_wide(header: List[str], rows, path) -> CountMatrix:
    # First column: function id; remaining numeric-named columns are
    # minute indices (Azure: "1".."1440").
    minute_cols: List[Tuple[int, int]] = []
    for i, name in enumerate(header[1:], start=1):
        try:
            minute_cols.append((i, int(name)))
        except ValueError:
            continue  # metadata columns (owner hash, trigger, ...)
    if not minute_cols:
        raise ValueError(f"{path}: wide format needs numeric minute columns")
    counts: CountMatrix = {}
    for lineno, row in enumerate(rows, start=2):
        if not row or not "".join(row).strip():
            continue
        fn = row[0].strip()
        for col, minute in minute_cols:
            raw = row[col].strip() if col < len(row) else ""
            if not raw:
                continue
            try:
                count = int(raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad count") from exc
            if count:
                counts.setdefault(minute - 1, {})[fn] = count
    return counts


def map_trace_functions(counts: CountMatrix,
                        suite: Sequence[FunctionProfile] = FUNCTIONS
                        ) -> Dict[str, str]:
    """Assign trace functions to suite profiles by popularity rank.

    The most-invoked trace function maps to the first suite function,
    and so on round-robin — preserving the trace's popularity skew while
    exercising the whole suite.
    """
    totals: Dict[str, int] = {}
    for per_min in counts.values():
        for fn, c in per_min.items():
            totals[fn] = totals.get(fn, 0) + c
    ranked = sorted(totals, key=lambda f: (-totals[f], f))
    return {fn: suite[i % len(suite)].name for i, fn in enumerate(ranked)}


def workload_from_counts(counts: CountMatrix, name: str, seed: int = 0,
                         skew_probability: float = 0.3,
                         mapping: Optional[Dict[str, str]] = None,
                         suite: Sequence[FunctionProfile] = FUNCTIONS
                         ) -> Workload:
    """The §9.3 methodology: place each minute's counts randomly, with a
    probability of concentrating them into a burst window."""
    rng = SeededRNG(seed, f"traceio/{name}")
    mapping = mapping or map_trace_functions(counts, suite)
    events: List[ArrivalEvent] = []
    for minute in sorted(counts):
        for fn, count in sorted(counts[minute].items()):
            target = mapping[fn]
            frng = rng.fork(f"m{minute}/{fn}")
            if frng.random() < skew_probability:
                start = frng.uniform(0.0, 50.0)
                offsets = [start + frng.uniform(0.0, 4.0)
                           for _ in range(count)]
            else:
                offsets = [frng.uniform(0.0, 60.0) for _ in range(count)]
            for off in offsets:
                events.append(ArrivalEvent(minute * 60.0 + off, target))
    events.sort()
    duration = (max(counts) + 1) * 60.0 if counts else 0.0
    return Workload(name=name, events=events, duration=duration,
                    soft_cap_bytes=64 * GB)


def load_workload(path, name: Optional[str] = None, seed: int = 0,
                  skew_probability: float = 0.3) -> Workload:
    """One-call loader: CSV file -> runnable workload."""
    counts = load_counts_csv(path)
    return workload_from_counts(counts, name or Path(path).stem, seed=seed,
                                skew_probability=skew_probability)
