"""Metrics registry: counters, gauges and log-histograms with labels.

Reuses :class:`repro.serverless.metrics.LogHistogram` for distributions,
so histogram memory is O(occupied bins) and merging is the associative
bin-count addition the sweep runner needs: shard registries serialized
with :meth:`MetricsRegistry.to_dict` in worker processes merge into one
registry whose totals equal a serial run's exactly.

Keys are ``(name, sorted label pairs)`` — label order never matters, and
every exporter iterates keys in sorted order (the SIM003 discipline:
nothing downstream may depend on insertion order).  A registry resolves
each label set to its key once and memoizes it; hot callers can also
hold a resolved key (:meth:`MetricsRegistry.key`) and record through
:meth:`~MetricsRegistry.inc_key` / :meth:`~MetricsRegistry.observe_key`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.serverless.metrics import (BINS_PER_DECADE, _LO_EXP,
                                      LogHistogram)

#: A fully-resolved metric key: (name, ((label, value), ...)) sorted.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


#: Label value types whose equal values always render alike, so a memo
#: keyed on the values (plus their types) is exact.  Floats stay out:
#: ``0.0 == -0.0`` but they render differently.
_MEMO_TYPES = frozenset((str, int, bool))


def render_key(key: MetricKey) -> str:
    """Prometheus-style rendering: ``name{a="x",b="y"}``.

    This is the *internal* canonical form (``totals()``, merge-equality
    checks); :meth:`MetricsRegistry.prometheus_text` uses the escaped
    variant below so exposition output follows the text-format grammar
    without perturbing keys recorded in existing reports.
    """
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def _escape_label_value(value: str) -> str:
    """Text-exposition escaping for a label value: ``\\``, ``"``, LF."""
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _escape_help(text: str) -> str:
    """HELP-line escaping: only backslash and line feed are special."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _prom_key(key: MetricKey) -> str:
    """Exposition-format rendering with escaped label values."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def metric_help(name: str) -> str:
    """The HELP text for a metric family (generic but grammar-valid)."""
    base = name
    for suffix in ("_total", "_seconds", "_bytes", "_pages", "_mb"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    return f"{base.replace('_', ' ')} (repro.obs)"


def _bin_upper_edge(idx: int) -> float:
    return 10.0 ** (_LO_EXP + (idx + 1) / BINS_PER_DECADE)


def _hist_to_dict(hist: LogHistogram) -> Dict:
    hist._flush()
    return {
        "count": hist._count,
        "total": hist.total,
        # Exact-sum partials in canonical form: a pure function of the
        # exact sum, so A+B and B+A serialize identically, and JSON
        # round-trips Python floats exactly (shortest-repr) — a
        # deserialized histogram merges to bit-identical totals
        # regardless of how samples were sharded across workers.
        "partials": hist.canonical_partials(),
        "min": hist.vmin if hist._count else None,
        "max": hist.vmax if hist._count else None,
        "bins": [[idx, hist.counts[idx]] for idx in sorted(hist.counts)],
        # Sorted: quantiles over the exact buffer are order-free, and a
        # canonical serialization keeps merge associativity observable
        # (A+B and B+A serialize identically).
        "exact": (sorted(hist._exact) if hist._exact is not None else None),
    }


def _hist_from_dict(data: Dict) -> LogHistogram:
    hist = LogHistogram()
    hist._count = int(data["count"])
    partials = data.get("partials")
    hist._partials = ([float(p) for p in partials]
                      if partials is not None else [float(data["total"])])
    if data["min"] is not None:
        hist.vmin = float(data["min"])
        hist.vmax = float(data["max"])
    hist.counts = {int(idx): int(c) for idx, c in data["bins"]}
    exact = data.get("exact")
    hist._exact = list(exact) if exact is not None else None
    return hist


class MetricsRegistry:
    """Counters / gauges / histograms, mergeable across sweep shards.

    Merge semantics: counters and histograms **add** (associative and
    commutative); gauges depend on what the shards *are*.  Sweep shards
    are independent worlds, so a shard gauge is a level observed within
    that shard and the only cross-shard reading that stays meaningful
    without a shared clock is the peak (``gauges="max"``, the default).
    Node-group shards of one parallel cluster run partition a single
    rack, so their levels are disjoint contributions that **add** back
    to the serial level (``gauges="sum"``).
    """

    def __init__(self):
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._hists: Dict[MetricKey, LogHistogram] = {}
        # (name, label items, label value types) -> key.  The types keep
        # a=1, a=True and a=1.0 apart: the values compare and hash equal
        # but render as three different series.
        self._keys: Dict[Tuple, MetricKey] = {}

    def _resolve(self, name: str, labels: Dict[str, object]) -> MetricKey:
        if not labels:
            return (name, ())
        types = tuple(map(type, labels.values()))
        if not _MEMO_TYPES.issuperset(types):
            return _key(name, labels)
        memo = (name, tuple(labels.items()), types)
        key = self._keys.get(memo)
        if key is None:
            key = self._keys[memo] = _key(name, labels)
        return key

    def key(self, name: str, **labels) -> MetricKey:
        """The series key of ``name`` + ``labels``, for the ``*_key``
        recorders: a caller that records one series often resolves it
        once."""
        return self._resolve(name, labels)

    # -- recording -------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = self._resolve(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + value

    def inc_key(self, key: MetricKey, value: float = 1.0) -> None:
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._gauges[self._resolve(name, labels)] = value

    def add_gauge(self, name: str, delta: float, **labels) -> None:
        """Accumulate a level gauge (e.g. current bytes per category)."""
        self.add_gauge_key(self._resolve(name, labels), delta)

    def add_gauge_key(self, key: MetricKey, delta: float) -> None:
        self._gauges[key] = self._gauges.get(key, 0.0) + delta

    def observe(self, name: str, value: float, **labels) -> None:
        self.observe_key(self._resolve(name, labels), value)

    def observe_key(self, key: MetricKey, value: float) -> None:
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = LogHistogram()
        hist.add(value)

    # -- reading ---------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        return self._counters.get(self._resolve(name, labels), 0.0)

    def gauge(self, name: str, **labels) -> float:
        return self._gauges.get(self._resolve(name, labels), 0.0)

    def histogram(self, name: str, **labels) -> Optional[LogHistogram]:
        return self._hists.get(self._resolve(name, labels))

    def totals(self) -> Dict[str, float]:
        """Every counter, rendered and sorted — the merge-equality view."""
        return {render_key(k): self._counters[k]
                for k in sorted(self._counters)}

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._hists)

    # -- merging ---------------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry",
                   gauges: str = "max") -> None:
        if gauges not in ("max", "sum"):
            raise ValueError(f"gauges must be 'max' or 'sum', "
                             f"got {gauges!r}")
        for key in sorted(other._counters):
            self._counters[key] = (self._counters.get(key, 0.0)
                                   + other._counters[key])
        for key in sorted(other._gauges):
            theirs = other._gauges[key]
            if gauges == "sum":
                self._gauges[key] = self._gauges.get(key, 0.0) + theirs
            else:
                self._gauges[key] = max(self._gauges.get(key, -math.inf),
                                        theirs)
        for key in sorted(other._hists):
            mine_h = self._hists.get(key)
            if mine_h is None:
                mine_h = self._hists[key] = LogHistogram()
            mine_h.merge(other._hists[key])

    # -- (de)serialization — the sweep's process boundary ----------------------

    def __getstate__(self) -> Dict:
        """Pickle state, with every histogram's pending samples folded.

        A shard worker pickles its registry to send it, so the fold
        runs in the worker, in parallel, instead of in the receiving
        parent's merge.  The label memo is a cache and stays behind.
        """
        for hist in self._hists.values():
            hist._flush()
        state = dict(self.__dict__)
        state["_keys"] = {}
        return state

    def to_dict(self) -> Dict:
        return {
            "counters": [[name, list(labels), self._counters[(name, labels)]]
                         for name, labels in sorted(self._counters)],
            "gauges": [[name, list(labels), self._gauges[(name, labels)]]
                       for name, labels in sorted(self._gauges)],
            "histograms": [[name, list(labels),
                            _hist_to_dict(self._hists[(name, labels)])]
                           for name, labels in sorted(self._hists)],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "MetricsRegistry":
        reg = cls()
        for name, labels, value in data["counters"]:
            key = (name, tuple((k, v) for k, v in labels))
            reg._counters[key] = float(value)
        for name, labels, value in data["gauges"]:
            key = (name, tuple((k, v) for k, v in labels))
            reg._gauges[key] = float(value)
        for name, labels, hist in data["histograms"]:
            key = (name, tuple((k, v) for k, v in labels))
            reg._hists[key] = _hist_from_dict(hist)
        return reg

    # -- exposition ------------------------------------------------------------

    def prometheus_text(self) -> str:
        """Prometheus text exposition, fully sorted and format-conformant.

        Each metric family gets ``# HELP`` and ``# TYPE`` lines (exactly
        once, HELP first, per the exposition-format grammar) and label
        values are escaped (backslash, double-quote, newline — the three
        characters the grammar requires escaping inside label values).
        Histograms render cumulative ``_bucket{le=...}`` series over the
        occupied log-scale bins plus ``+Inf``, ``_sum`` and ``_count``.
        """
        lines: List[str] = []
        seen_types: set = set()

        def header(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# HELP {name} "
                             f"{_escape_help(metric_help(name))}")
                lines.append(f"# TYPE {name} {kind}")

        for key in sorted(self._counters):
            header(key[0], "counter")
            lines.append(f"{_prom_key(key)} {self._counters[key]:g}")
        for key in sorted(self._gauges):
            header(key[0], "gauge")
            lines.append(f"{_prom_key(key)} {self._gauges[key]:g}")
        for key in sorted(self._hists):
            name, labels = key
            header(name, "histogram")
            hist = self._hists[key]
            hist._flush()
            cum = 0
            for idx in sorted(hist.counts):
                cum += hist.counts[idx]
                le = (("le", f"{_bin_upper_edge(idx):.9g}"),)
                lines.append(
                    f"{_prom_key((name + '_bucket', labels + le))} {cum}")
            inf = (("le", "+Inf"),)
            lines.append(
                f"{_prom_key((name + '_bucket', labels + inf))} "
                f"{hist._count}")
            lines.append(f"{_prom_key((name + '_sum', labels))} "
                         f"{hist.total:g}")
            lines.append(f"{_prom_key((name + '_count', labels))} "
                         f"{hist._count}")
        return "\n".join(lines) + ("\n" if lines else "")
