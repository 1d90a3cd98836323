"""Failure injection: exhausted pools, capped memory, runtime errors."""

import numpy as np
import pytest

from repro.core.platform import TrEnvPlatform
from repro.mem.layout import GB, MB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool
from repro.node import Node
from repro.serverless.baselines import FaasdPlatform
from repro.sim.engine import Delay
from repro.workloads.functions import function_by_name


class TestPoolExhaustion:
    def test_registration_degrades_to_copy_restore(self):
        node = Node(seed=13)
        # A pool far too small for IR's 855 MB image.
        pool = CXLPool(64 * MB, node.latency)
        platform = TrEnvPlatform(node, pool)
        platform.register_function(function_by_name("IR"))
        assert "IR" in platform.pool_exhausted_functions
        assert "IR" not in platform.templates

        def driver():
            r = yield from platform.invoke("IR")
            return r

        r = node.sim.run_process(driver())
        # Invocation still completes — via the copy path, so slower and
        # fully resident.
        assert r.start_kind == "cold"
        assert r.startup > 0.3
        assert node.memory.usage["function-anon"] == pytest.approx(
            function_by_name("IR").mem_bytes, rel=0.01)

    def test_exhaustion_only_degrades_the_overflowing_function(self):
        node = Node(seed=13)
        pool = CXLPool(int(120 * MB), node.latency)
        platform = TrEnvPlatform(node, pool)
        platform.register_function(function_by_name("DH"))   # 50 MB, fits
        platform.register_function(function_by_name("IR"))   # 855 MB, no
        assert "DH" in platform.templates
        assert "IR" in platform.pool_exhausted_functions

    def test_failed_registration_leaves_nothing_behind(self):
        """IR overflows the pool after DH fits: the pool, the dedup index
        and the template registry all read as if IR was never offered."""
        node = Node(seed=13)
        pool = CXLPool(int(120 * MB), node.latency)
        platform = TrEnvPlatform(node, pool)
        store = platform.store
        platform.register_function(function_by_name("DH"))
        used, index = pool.used_bytes, store._cids.copy()
        presented = store.total_pages_presented
        assert used == 12_903 * 4096     # DH alone: 52.85 MB
        platform.register_function(function_by_name("IR"))
        assert "IR" in platform.pool_exhausted_functions
        assert pool.used_bytes == used
        assert np.array_equal(store._cids, index)
        assert store.unique_pages_stored == pool.used_pages
        assert store.total_pages_presented == presented
        assert len(platform.registry) == 1
        assert platform.registry.mmt_get(1) is platform.templates["DH"]

    def test_direct_pool_exhaustion_raises(self):
        pool = RDMAPool(2 * 4096)
        store = DedupStore(pool)
        store.store_image(np.arange(2))
        with pytest.raises(MemoryError):
            store.store_image(np.arange(100, 103))
        # Atomic: neither the pool nor the store saw the failed image.
        assert pool.used_pages == 2
        assert store.unique_pages_stored == 2
        assert store.total_pages_presented == 2
        assert np.array_equal(store.store_image(np.arange(2)).offsets,
                              [0, 1])


class TestMemoryCap:
    def test_cap_violations_counted_and_recovered(self):
        node = Node(seed=14, soft_cap_bytes=int(0.8 * GB))
        platform = FaasdPlatform(node)
        platform.register_function(function_by_name("IR"))   # 855 MB warm

        def driver():
            yield from platform.invoke("IR")
            yield Delay(1.0)

        node.sim.run_process(driver())
        node.sim.run()
        assert node.memory.cap_violations > 0
        # Pressure eviction kicked the warm instance out.
        assert len(platform.warm) == 0

    def test_platform_survives_sustained_pressure(self):
        node = Node(seed=15, soft_cap_bytes=int(1.2 * GB))
        platform = FaasdPlatform(node)
        for fn in ("IR", "VP", "IFR"):
            platform.register_function(function_by_name(fn))
        completed = []

        def one(fn):
            r = yield from platform.invoke(fn)
            completed.append(r)

        for fn in ("IR", "VP", "IFR", "IR", "VP", "IFR"):
            node.sim.spawn(one(fn))
        node.sim.run()
        assert len(completed) == 6


class TestRuntimeErrors:
    def test_unknown_function_raises_cleanly(self):
        node = Node(seed=16)
        platform = FaasdPlatform(node)

        def driver():
            yield from platform.invoke("NOPE")

        with pytest.raises(KeyError):
            node.sim.run_process(driver())

    def test_unregistered_pool_fetch_detected(self):
        """A platform that binds VMAs to a pool it never registered must
        fail loudly, not silently mis-time."""
        from repro.serverless.base import Instance, ServerlessPlatform

        node = Node(seed=17)
        platform = ServerlessPlatform(node)
        profile = function_by_name("DH")
        platform.functions[profile.name] = profile
        from repro.criu.images import SnapshotImage
        image = SnapshotImage.from_profile(profile)
        space = image.build_address_space("x")
        pool = RDMAPool(8 * GB, node.latency)   # never registered
        store = DedupStore(pool)
        space.bind_remote(None, store.store_image(image.content_ids),
                          valid=False)
        inst = Instance(profile, space)

        def driver():
            yield from platform.execute(inst, profile, 0)

        with pytest.raises(KeyError, match="unregistered pool"):
            node.sim.run_process(driver())


class TestEncryptedRDMA:
    def test_encryption_adds_per_page_cost(self):
        plain = RDMAPool(8 * GB)
        enc = RDMAPool(8 * GB, encrypted=True)
        assert enc.fetch_time(1000) > plain.fetch_time(1000)
        delta = enc.fetch_time(1000) - plain.fetch_time(1000)
        assert delta == pytest.approx(1000 * RDMAPool.ENCRYPTION_COST_PER_PAGE)

    def test_encrypted_platform_end_to_end(self):
        node = Node(seed=18)
        pool = RDMAPool(64 * GB, node.latency, encrypted=True)
        platform = TrEnvPlatform(node, pool, name="t-rdma-enc")
        platform.register_function(function_by_name("JS"))

        def driver():
            r = yield from platform.invoke("JS")
            return r

        r = node.sim.run_process(driver())
        assert r.e2e > 0
