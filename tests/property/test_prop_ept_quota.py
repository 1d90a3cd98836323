"""Property tests: EPT state machine, vCPU quotas, admission control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.layout import MB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool
from repro.sim.cpu import FairShareCPU, VCPUQuota
from repro.sim.engine import Delay, Simulator
from repro.vm.ept import ExtendedPageTable


def gpns(total):
    return st.lists(st.integers(0, total - 1), max_size=40).map(
        lambda xs: np.array(sorted(set(xs)), dtype=np.int64))


def make_ept(total, pool_cls, hot_fraction, data):
    ept = ExtendedPageTable(total)
    store = DedupStore(pool_cls(64 * MB))
    ept.bind_template(store.store_image(np.arange(total)))
    if hot_fraction > 0:
        mask = np.zeros(total, dtype=bool)
        mask[:int(total * hot_fraction)] = True
        ept.prepopulate(mask)
    return ept


@settings(max_examples=50, deadline=None)
@given(st.data(), st.sampled_from([CXLPool, RDMAPool]),
       st.floats(0.0, 1.0))
def test_ept_local_pages_consistent(data, pool_cls, hot_fraction):
    total = 150
    ept = make_ept(total, pool_cls, hot_fraction, data)
    for _ in range(3):
        reads = data.draw(gpns(total))
        writes = data.draw(gpns(total))
        ept.access(reads, writes)
        counted = int(np.count_nonzero(ept.state == 1))   # PTE_LOCAL
        assert counted == ept.local_pages
        assert ept.local_pages <= total


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_ept_repeat_access_idempotent(data):
    total = 100
    ept = make_ept(total, CXLPool, 0.5, data)
    reads = data.draw(gpns(total))
    writes = data.draw(gpns(total))
    ept.access(reads, writes)
    again = ept.access(reads, writes)
    assert again.vm_exits == 0
    assert again.pages_fetched == 0
    assert again.cow_faults == 0


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_ept_prepopulation_never_hurts(data):
    """Pre-population can only remove exits, never add them."""
    total = 120
    reads = data.draw(gpns(total))
    writes = data.draw(gpns(total))

    lazy = make_ept(total, CXLPool, 0.0, data)
    out_lazy = lazy.access(reads, writes)
    pre = make_ept(total, CXLPool, 1.0, data)
    out_pre = pre.access(reads, writes)
    assert out_pre.vm_exits <= out_lazy.vm_exits
    assert out_pre.local_pages_allocated <= out_lazy.local_pages_allocated


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8),
       st.integers(1, 4))
def test_vcpu_quota_conservation_and_bound(works, vcpus):
    sim = Simulator()
    cpu = FairShareCPU(sim, 64)   # cores never the bottleneck
    quota = VCPUQuota(cpu, vcpus)
    finish = []

    def task(w):
        yield from quota.compute(w)
        finish.append(sim.now)

    for w in works:
        sim.spawn(task(w))
    sim.run()
    total = sum(works)
    # Lower bound: perfect packing on vcpus lanes; upper: fully serial.
    assert sim.now >= total / vcpus - 1e-9
    assert sim.now <= total + 1e-9
    assert len(finish) == len(works)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 10))
def test_admission_limit_respected(limit, burst):
    from repro.node import Node
    from repro.serverless.baselines import FaasdPlatform
    from repro.workloads.functions import function_by_name

    node = Node(cores=64, seed=33)
    platform = FaasdPlatform(node)
    platform.register_function(function_by_name("DH"))
    platform.set_concurrency_limit("DH", limit)
    inflight = [0]
    peak = [0]
    orig = platform.execute

    def tracked(inst, profile, inv_idx):
        inflight[0] += 1
        peak[0] = max(peak[0], inflight[0])
        result = yield from orig(inst, profile, inv_idx)
        inflight[0] -= 1
        return result

    platform.execute = tracked

    def one():
        yield from platform.invoke("DH")

    for _ in range(burst):
        node.sim.spawn(one())
    node.sim.run()
    assert peak[0] <= limit
    assert platform.recorder.count() == burst
