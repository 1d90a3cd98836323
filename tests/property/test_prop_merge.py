"""Property tests: shard-merge associativity/commutativity (SIM007's
runtime counterpart).

The sweep runner assumes per-shard metrics can be merged in *any*
order and grouping without changing the result.  These tests draw
random shard splits and random merge trees and assert the canonical
serializations are identical.

Values are dyadic rationals (n / 64) so float addition is exact and
bit-equality is the right assertion — with arbitrary floats the
*mathematical* property holds but rounding would differ.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry, _hist_to_dict
from repro.serverless.metrics import LogHistogram

dyadic = st.integers(1, 1 << 20).map(lambda n: n / 64.0)

events = st.lists(
    st.tuples(st.sampled_from(["inc", "add_gauge", "set_gauge", "observe"]),
              st.sampled_from(["lat", "bytes", "faults"]),
              dyadic),
    max_size=30)


def apply_events(reg, evs):
    for kind, name, value in evs:
        if kind == "inc":
            reg.inc(name, value, node="n0")
        elif kind == "add_gauge":
            reg.add_gauge(name, value, node="n0")
        elif kind == "set_gauge":
            reg.set_gauge(name, value, node="n0")
        else:
            reg.observe(name, value, node="n0")


def copy_registry(reg):
    return MetricsRegistry.from_dict(reg.to_dict())


def tree_merge_registries(shards, data):
    """Merge in a random binary grouping over a random order."""
    pool = [copy_registry(s) for s in shards]
    while len(pool) > 1:
        i = data.draw(st.integers(0, len(pool) - 2))
        left = pool.pop(i)
        j = data.draw(st.integers(0, len(pool) - 1))
        right = pool.pop(j)
        left.merge_from(right)
        pool.append(left)
    return pool[0]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.lists(events, min_size=2, max_size=5))
def test_registry_merge_is_order_and_grouping_invariant(data, shard_events):
    shards = []
    for evs in shard_events:
        reg = MetricsRegistry()
        apply_events(reg, evs)
        shards.append(reg)

    fold = copy_registry(shards[0])
    for shard in shards[1:]:
        fold.merge_from(copy_registry(shard))
    random_tree = tree_merge_registries(shards, data)
    assert random_tree.to_dict() == fold.to_dict()


@settings(max_examples=60, deadline=None)
@given(st.lists(events, min_size=2, max_size=4))
def test_registry_merge_is_commutative_pairwise(shard_events):
    a = MetricsRegistry()
    b = MetricsRegistry()
    apply_events(a, shard_events[0])
    apply_events(b, shard_events[1])
    ab = copy_registry(a)
    ab.merge_from(copy_registry(b))
    ba = copy_registry(b)
    ba.merge_from(copy_registry(a))
    assert ab.to_dict() == ba.to_dict()


@settings(max_examples=60, deadline=None)
@given(st.data(),
       st.lists(dyadic, max_size=200),
       st.integers(2, 6),
       st.sampled_from([8, 64, 512]))
def test_histogram_split_merge_matches_single_recorder(data, values,
                                                       n_shards, cap):
    # Assign every value to a random shard, then merge the shard
    # histograms in a random order: the result must serialize exactly
    # like one histogram that saw every value.
    single = LogHistogram(exact_cap=cap)
    shards = [LogHistogram(exact_cap=cap) for _ in range(n_shards)]
    for value in values:
        single.add(value)
        shards[data.draw(st.integers(0, n_shards - 1))].add(value)

    order = data.draw(st.permutations(range(n_shards)))
    merged = LogHistogram(exact_cap=cap)
    for idx in order:
        merged.merge(shards[idx])
    assert _hist_to_dict(merged) == _hist_to_dict(single)


@settings(max_examples=60, deadline=None)
@given(st.lists(dyadic, max_size=80), st.lists(dyadic, max_size=80))
def test_histogram_merge_is_commutative(xs, ys):
    hx, hy = LogHistogram(), LogHistogram()
    for v in xs:
        hx.add(v)
    for v in ys:
        hy.add(v)
    xy = LogHistogram()
    xy.merge(hx)
    xy.merge(hy)
    yx = LogHistogram()
    yx.merge(hy)
    yx.merge(hx)
    assert _hist_to_dict(xy) == _hist_to_dict(yx)


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e300, max_value=1e300)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(finite, st.floats(0, 1e-3), dyadic), max_size=60),
       st.lists(finite, max_size=3))
def test_chunk_fold_equals_per_value_fold(values, start):
    """A chunk folded at once holds the same exact sum as the values
    folded one by one: equal canonical partials, equal readout."""
    from repro.serverless.metrics import (_accumulate_exact,
                                          _accumulate_many,
                                          _canonical_partials)
    one, many = [], []
    for x in start:
        _accumulate_exact(one, x)
        _accumulate_exact(many, x)
    for x in values:
        _accumulate_exact(one, x)
    _accumulate_many(many, values)
    assert _canonical_partials(many) == _canonical_partials(one)


def test_chunk_fold_of_non_finite_values_is_the_per_value_fold():
    from repro.serverless.metrics import _accumulate_exact, _accumulate_many
    for values in ([1.0, float("inf"), 2.0], [float("nan"), 0.5],
                   [1e308, 1e308, -1e308]):
        one, many = [], []
        for x in values:
            _accumulate_exact(one, x)
        _accumulate_many(many, values)
        assert repr(many) == repr(one)
