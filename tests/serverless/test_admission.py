"""Per-function concurrency limits and FIFO admission queueing."""

import pytest

from repro.node import Node
from repro.serverless.baselines import FaasdPlatform
from repro.sim.engine import Delay
from repro.workloads.functions import function_by_name


def make_platform(limit=None, fn="CR"):
    node = Node(cores=64, seed=27)
    platform = FaasdPlatform(node)
    platform.register_function(function_by_name(fn))
    if limit is not None:
        platform.set_concurrency_limit(fn, limit)
    return node, platform


def burst(node, platform, fn, count):
    results = []

    def one():
        r = yield from platform.invoke(fn)
        results.append(r)

    for _ in range(count):
        node.sim.spawn(one())
    node.sim.run()
    return results


class TestAdmission:
    def test_unlimited_by_default_no_queue(self):
        node, platform = make_platform()
        results = burst(node, platform, "CR", 6)
        assert all(r.queue == 0.0 for r in results)

    def test_limit_serialises_excess(self):
        node, platform = make_platform(limit=2)
        results = burst(node, platform, "CR", 6)
        queued = [r for r in results if r.queue > 0]
        assert len(queued) == 4
        # e2e includes the queueing delay.
        for r in queued:
            assert r.e2e >= r.queue + r.startup + r.exec - 1e9 * 0

    def test_admission_never_oversubscribes(self):
        node, platform = make_platform(limit=1, fn="DH")
        window = []
        orig_execute = platform.execute

        def tracking_execute(inst, profile, inv_idx):
            window.append(+1)
            assert sum(window) <= 1
            result = yield from orig_execute(inst, profile, inv_idx)
            window.append(-1)
            return result

        platform.execute = tracking_execute
        burst(node, platform, "DH", 5)

    def test_queue_time_excluded_from_startup(self):
        node, platform = make_platform(limit=1)
        results = burst(node, platform, "CR", 3)
        # All executions run in the same warm instance once it's built;
        # queued requests report warm startup (sub-ms), not queue time.
        warm = [r for r in results if r.start_kind == "warm"]
        assert warm
        for r in warm:
            assert r.startup < 0.01
            assert r.queue > 0.1

    def test_zero_limit_rejected(self):
        _node, platform = make_platform()
        with pytest.raises(ValueError):
            platform.set_concurrency_limit("CR", 0)

    def test_limit_can_be_removed(self):
        node, platform = make_platform(limit=1)
        platform.set_concurrency_limit("CR", None)
        results = burst(node, platform, "CR", 4)
        assert all(r.queue == 0.0 for r in results)

    def test_limits_are_per_function(self):
        node, platform = make_platform(limit=1, fn="CR")
        platform.register_function(function_by_name("DH"))
        results = burst(node, platform, "DH", 4)
        assert all(r.queue == 0.0 for r in results)
