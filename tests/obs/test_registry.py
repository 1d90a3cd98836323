"""MetricsRegistry: label normalization, merge algebra, exposition."""

import json

import pytest

from repro.obs.registry import MetricsRegistry, render_key


def test_label_order_is_irrelevant():
    reg = MetricsRegistry()
    reg.inc("hits", a="1", b="2")
    reg.inc("hits", b="2", a="1")
    assert reg.counter("hits", b="2", a="1") == 2.0


def test_render_key_sorted_labels():
    reg = MetricsRegistry()
    reg.inc("hits", zebra="z", alpha="a")
    assert reg.totals() == {'hits{alpha="a",zebra="z"}': 1.0}
    assert render_key(("plain", ())) == "plain"


def test_key_resolution_matches_per_call_labels():
    reg = MetricsRegistry()
    reg.inc("hits", node=3, zone="a")
    reg.inc("hits", zone="a", node="3")
    reg.inc("hits", node="3", zone="a")
    assert reg.totals() == {'hits{node="3",zone="a"}': 3.0}
    key = reg.key("hits", zone="a", node=3)
    assert key == ("hits", (("node", "3"), ("zone", "a")))
    reg.inc_key(key, 2.0)
    assert reg.counter("hits", node=3, zone="a") == 5.0


def test_key_memo_keeps_equal_hashing_values_apart():
    # 1, True and 1.0 hash equal; they must stay three series.
    reg = MetricsRegistry()
    for _ in range(2):
        for value in (1, True, 1.0):
            reg.inc("flag", a=value)
    assert reg.totals() == {'flag{a="1"}': 2.0, 'flag{a="1.0"}': 2.0,
                            'flag{a="True"}': 2.0}
    # 0.0 == -0.0 with one type, but they render as two series.
    reg.inc("zero", a=0.0)
    reg.inc("zero", a=-0.0)
    assert reg.counter("zero", a=-0.0) == 1.0
    # Unhashable values resolve without the memo.
    reg.inc("listed", a=[1])
    assert reg.totals()['listed{a="[1]"}'] == 1.0


#: (method, name, value, labels): reordered kwargs and mixed value types.
_CALLS = [
    ("inc", "hits_total", 1.0, {"node": 3, "zone": "a"}),
    ("inc", "hits_total", 2.0, {"zone": "a", "node": "3"}),
    ("inc", "flag_total", 1.0, {"a": 1}),
    ("inc", "flag_total", 1.0, {"a": True}),
    ("inc", "flag_total", 1.0, {"a": 1.0}),
    ("add_gauge", "level_bytes", 5.0, {"category": "anon"}),
    ("add_gauge", "level_bytes", -2.0, {"category": "anon"}),
    ("set_gauge", "depth", 4.0, {}),
    ("observe", "lat_seconds", 0.01, {"phase": "e2e", "platform": "t-cxl"}),
    ("observe", "lat_seconds", 0.02, {"platform": "t-cxl", "phase": "e2e"}),
]

#: prometheus_text() of _CALLS fed twice, as resolving every call's
#: labels afresh (sort, then str each value) renders it.
_CALLS_TEXT = """\
# HELP flag_total flag (repro.obs)
# TYPE flag_total counter
flag_total{a="1"} 2
flag_total{a="1.0"} 2
flag_total{a="True"} 2
# HELP hits_total hits (repro.obs)
# TYPE hits_total counter
hits_total{node="3",zone="a"} 6
# HELP depth depth (repro.obs)
# TYPE depth gauge
depth 4
# HELP level_bytes level (repro.obs)
# TYPE level_bytes gauge
level_bytes{category="anon"} 6
# HELP lat_seconds lat (repro.obs)
# TYPE lat_seconds histogram
lat_seconds_bucket{phase="e2e",platform="t-cxl",le="0.0101815172"} 2
lat_seconds_bucket{phase="e2e",platform="t-cxl",le="0.0201691455"} 4
lat_seconds_bucket{phase="e2e",platform="t-cxl",le="+Inf"} 4
lat_seconds_sum{phase="e2e",platform="t-cxl"} 0.06
lat_seconds_count{phase="e2e",platform="t-cxl"} 4
"""


def test_memoized_keys_export_byte_identical():
    def feed(reg, cold):
        for _ in range(2):
            for method, name, value, labels in _CALLS:
                if cold:
                    reg._keys.clear()
                getattr(reg, method)(name, value, **labels)
        return reg

    warm = feed(MetricsRegistry(), cold=False)
    cold = feed(MetricsRegistry(), cold=True)
    assert warm.prometheus_text() == cold.prometheus_text() == _CALLS_TEXT
    assert warm.to_dict() == cold.to_dict()
    assert [c[:2] for c in warm.to_dict()["counters"]] == [
        ["flag_total", [("a", "1")]], ["flag_total", [("a", "1.0")]],
        ["flag_total", [("a", "True")]],
        ["hits_total", [("node", "3"), ("zone", "a")]]]


def test_gauges_and_histograms():
    reg = MetricsRegistry()
    reg.set_gauge("level", 5.0, node="n0")
    reg.add_gauge("level", -2.0, node="n0")
    assert reg.gauge("level", node="n0") == 3.0
    assert reg.gauge("missing") == 0.0
    for v in (0.001, 0.01, 0.1):
        reg.observe("lat", v)
    hist = reg.histogram("lat")
    assert hist is not None and hist.count == 3
    assert reg.histogram("lat", other="label") is None
    assert len(reg) == 2  # one gauge key + one histogram key


def _make(seed_values):
    reg = MetricsRegistry()
    for i, v in enumerate(seed_values):
        reg.inc("c", v, shard=str(i % 2))
        reg.set_gauge("g", v)
        reg.observe("h", max(v, 1e-6))
    return reg


def test_merge_semantics():
    a, b = _make([1.0, 2.0]), _make([10.0])
    a.merge_from(b)
    assert a.counter("c", shard="0") == 11.0  # counters add
    assert a.counter("c", shard="1") == 2.0
    assert a.gauge("g") == 10.0              # gauges take the max
    assert a.histogram("h").count == 3       # histograms pool samples


def test_merge_is_associative():
    regs = [_make([1.0, 2.0]), _make([3.0]), _make([5.0, 8.0, 13.0])]

    def fold(order):
        acc = MetricsRegistry()
        for idx in order:
            acc.merge_from(MetricsRegistry.from_dict(regs[idx].to_dict()))
        return acc.to_dict()

    left = fold([0, 1, 2])
    right = fold([2, 1, 0])
    assert left == right


def test_to_from_dict_roundtrip():
    reg = _make([0.5, 2.0, 7.0])
    clone = MetricsRegistry.from_dict(reg.to_dict())
    assert clone.to_dict() == reg.to_dict()
    assert clone.totals() == reg.totals()
    assert clone.prometheus_text() == reg.prometheus_text()


def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.inc("hits_total", 3, node="n0")
    reg.set_gauge("depth", 2.5)
    reg.observe("lat_seconds", 0.010)
    reg.observe("lat_seconds", 0.012)
    text = reg.prometheus_text()
    lines = text.splitlines()
    assert text.endswith("\n")
    assert "# TYPE hits_total counter" in lines
    assert "# TYPE depth gauge" in lines
    assert "# TYPE lat_seconds histogram" in lines
    assert 'hits_total{node="n0"} 3' in lines
    assert "depth 2.5" in lines
    # Cumulative buckets end in +Inf == _count, plus _sum and _count.
    buckets = [ln for ln in lines if ln.startswith("lat_seconds_bucket")]
    assert buckets[-1] == 'lat_seconds_bucket{le="+Inf"} 2'
    counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
    assert counts == sorted(counts)  # cumulative, never decreasing
    assert "lat_seconds_count 2" in lines
    assert any(ln.startswith("lat_seconds_sum ") for ln in lines)
    # Each TYPE line appears exactly once per metric family.
    assert len([ln for ln in lines if ln.startswith("# TYPE")]) == 3


def test_empty_registry_exposition():
    assert MetricsRegistry().prometheus_text() == ""
    assert MetricsRegistry().totals() == {}


def test_exposition_grammar_help_and_type():
    """Every family: one # HELP then one # TYPE, before its samples."""
    reg = MetricsRegistry()
    reg.inc("hits_total", 3, node="n0")
    reg.inc("hits_total", 1, node="n1")
    reg.set_gauge("depth", 2.5)
    reg.observe("lat_seconds", 0.01)
    lines = reg.prometheus_text().splitlines()
    seen = set()
    for i, line in enumerate(lines):
        if line.startswith("# HELP "):
            family = line.split(" ", 3)[2]
            assert family not in seen, f"duplicate HELP for {family}"
            seen.add(family)
            # The grammar: HELP first, TYPE immediately after, samples
            # of that family only below.
            assert lines[i + 1].startswith(f"# TYPE {family} ")
        elif not line.startswith("#"):
            family = line.split("{", 1)[0].split(" ", 1)[0]
            base = family
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix):
                    base = base[: -len(suffix)]
            assert base in seen, f"sample before HELP/TYPE: {line}"
    # All three families announced.
    assert {"hits_total", "depth", "lat_seconds"} <= seen


def test_label_value_escaping():
    reg = MetricsRegistry()
    reg.inc("hits_total", 2, path='a\\b"c\nd')
    text = reg.prometheus_text()
    assert 'hits_total{path="a\\\\b\\"c\\nd"} 2' in text.splitlines()
    # The internal canonical form (totals) is untouched.
    assert 'hits_total{path="a\\b"c\nd"}' in reg.totals()


def test_help_text_escaping_and_suffix_stripping():
    from repro.obs.registry import _escape_help, metric_help
    assert metric_help("pool_fetch_seconds") == "pool fetch (repro.obs)"
    assert metric_help("invocations_total") == "invocations (repro.obs)"
    assert metric_help("depth") == "depth (repro.obs)"
    assert _escape_help("a\\b\nc") == "a\\\\b\\nc"


def test_observability_rejects_off_level():
    from repro.obs.observer import Observability
    with pytest.raises(ValueError):
        Observability("off")
    with pytest.raises(ValueError):
        Observability("bogus")


def test_level_from_env(monkeypatch):
    from repro.obs.observer import level_from_env
    for raw, want in (("", "off"), ("0", "off"), ("off", "off"),
                      ("1", "spans"), ("true", "spans"),
                      ("spans", "spans"), ("metrics", "metrics")):
        monkeypatch.setenv("REPRO_OBS", raw)
        assert level_from_env() == want
    monkeypatch.setenv("REPRO_OBS", "verbose")
    with pytest.raises(ValueError):
        level_from_env()


def test_pickled_registry_folds_pending_samples_and_keeps_its_dict():
    """Shard workers ship registries pickled: the sender folds the
    pending histogram samples, the key memo stays behind, and the
    received registry serializes and merges exactly like the sent one."""
    import pickle

    reg = MetricsRegistry()
    reg.inc("hits_total", 2, node="n0")
    reg.add_gauge("level_bytes", 5.0, node="n0")
    for i in range(50):
        reg.observe("lat_seconds", 0.001 * (i + 1) / 3, node="n0")
    assert reg.histogram("lat_seconds", node="n0")._pending
    blob = pickle.dumps(reg)
    assert not reg.histogram("lat_seconds", node="n0")._pending
    back = pickle.loads(blob)
    assert back._keys == {}
    assert back.to_dict() == reg.to_dict()
    via_dict, via_pickle = MetricsRegistry(), MetricsRegistry()
    via_dict.merge_from(MetricsRegistry.from_dict(reg.to_dict()), "sum")
    via_pickle.merge_from(back, "sum")
    assert json.dumps(via_pickle.to_dict()) == json.dumps(via_dict.to_dict())
