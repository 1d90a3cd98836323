"""The simulated outcome of one run: its digest and its sim_* metrics.

The digest covers every completed invocation record, the dispatch
counts and the failed list, with floats written as ``float.hex`` so a
one-ulp change shows.  Recorders that keep per-invocation results are
digested record by record; streaming recorders (``keep_results=False``)
by their whole per-function state: for each of the e2e, startup and
exec histograms the CDF points (bin values and cumulative
probabilities, or the exact samples while they are retained), the count
and the exact sum (to the last ulp), plus the start-kind and retry counters.  Serial and
sharded runs of one rack produce the same digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence, Tuple

#: Tail percentiles tried, highest first.  The tail metric uses the
#: highest one that leaves at least ``TAIL_MIN_BEYOND`` completions above.
TAIL_PERCENTILES = (99.9, 99.0, 95.0)
TAIL_MIN_BEYOND = 10


def _hex(x: float) -> str:
    return float(x).hex()


def _histogram(h) -> Dict:
    values, probs = h.cdf_points()
    return {
        "values": [_hex(v) for v in values],
        "probs": [_hex(p) for p in probs],
        "count": h.count,
        # The exact sum as canonical partials: one ulp moved anywhere shows.
        "sum": [_hex(x) for x in h.canonical_partials()],
    }


def _streaming_view(recorder) -> Dict:
    view = {}
    for fn in recorder.functions():
        # The recorder answers aggregate queries only; its per-function
        # state is read directly so that no sample can move unnoticed.
        agg = recorder._agg(fn)
        view[fn] = {
            "e2e": _histogram(agg.e2e),
            "startup": _histogram(agg.startup),
            "exec": _histogram(agg.exec),
            "start_kinds": dict(sorted(agg.start_kinds.items())),
            "degraded": agg.degraded,
            "retried": agg.retried,
            "retries_total": agg.retries_total,
        }
    return view


def outcome_view(recorder, dispatch_counts: Dict[str, int],
                 failed: Sequence[Tuple[str, float, str]],
                 scheduled: int) -> Dict:
    """The canonical, JSON-ready form of one run's simulated outcome."""
    view: Dict = {
        "scheduled": scheduled,
        "dispatch_counts": {k: int(v) for k, v in
                            sorted(dispatch_counts.items())},
        "failed": [[fn, _hex(arrival), reason]
                   for fn, arrival, reason in failed],
    }
    if recorder.keep_results:
        view["records"] = [
            [r.function, _hex(r.arrival), r.start_kind, _hex(r.startup),
             _hex(r.exec), _hex(r.e2e), _hex(r.queue), int(r.retries),
             bool(r.degraded)]
            for r in recorder.results]
    else:
        view["distributions"] = _streaming_view(recorder)
    return view


def digest(view: Dict) -> str:
    blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check(actual: str, expected: Optional[str]) -> Optional[str]:
    """None when the digest matches its pinned value, else why not."""
    if expected is None:
        return "no pinned digest for this workload seed"
    if actual != expected:
        return f"digest {actual[:16]} != pinned {expected[:16]}"
    return None


def _tail(recorder, read) -> Dict:
    n = recorder.count()
    for p in TAIL_PERCENTILES:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            return {"value": read(p) * 1e3, "unit": "ms", "percentile": p,
                    "beyond": beyond, "completed": n}
    # Too few completions for any tail: report the maximum.
    return {"value": read(100.0) * 1e3, "unit": "ms", "percentile": 100.0,
            "beyond": 0, "completed": n}


def sim_metrics(recorder, scheduled: int, n_failed: int) -> Dict[str, Dict]:
    """The four simulated end-to-end metrics of one run."""
    return {
        "sim_p50_e2e_ms": {"value": recorder.e2e_percentile(50.0) * 1e3,
                           "unit": "ms", "completed": recorder.count()},
        "sim_tail_e2e_ms": _tail(recorder, recorder.e2e_percentile),
        "sim_tail_startup_ms": _tail(recorder, recorder.startup_percentile),
        "failed_frac": {"value": n_failed / scheduled if scheduled else 0.0,
                        "unit": "ratio", "failed": n_failed,
                        "scheduled": scheduled},
    }
