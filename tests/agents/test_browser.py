import pytest

from repro.agents.browser import (BROWSER_BASE_MB, TAB_RENDERER_MB, Browser,
                                  BrowserPool)
from repro.mem.accounting import MemoryAccountant
from repro.mem.layout import MB
from repro.sim.engine import Simulator


def make_pool(sharing=True, max_agents=10):
    sim = Simulator()
    acct = MemoryAccountant()
    return sim, acct, BrowserPool(sim, acct, sharing=sharing,
                                  max_agents=max_agents)


def acquire(sim, pool, agent_id):
    def proc():
        b = yield from pool.acquire(agent_id)
        return b

    return sim.run_process(proc())


class TestBrowser:
    def test_memory_charged_on_create_and_attach(self):
        acct = MemoryAccountant()
        b = Browser(acct)
        assert acct.usage["browser"] == BROWSER_BASE_MB * MB
        b.attach(1)
        assert acct.usage["browser"] == (BROWSER_BASE_MB + TAB_RENDERER_MB) * MB

    def test_detach_and_close_release(self):
        acct = MemoryAccountant()
        b = Browser(acct)
        b.attach(1)
        b.open_tab(1)
        b.detach(1)
        b.close()
        assert acct.usage["browser"] == 0
        assert b.memory_bytes == 0

    def test_capacity_enforced(self):
        acct = MemoryAccountant()
        b = Browser(acct, max_agents=2)
        b.attach(1)
        b.attach(2)
        with pytest.raises(RuntimeError):
            b.attach(3)

    def test_double_attach_rejected(self):
        b = Browser(MemoryAccountant())
        b.attach(1)
        with pytest.raises(RuntimeError):
            b.attach(1)

    def test_open_tab_requires_attach(self):
        b = Browser(MemoryAccountant())
        with pytest.raises(KeyError):
            b.open_tab(5)


class TestBrowserPool:
    def test_sharing_packs_agents_into_one_browser(self):
        sim, acct, pool = make_pool(sharing=True)
        browsers = [acquire(sim, pool, i) for i in range(10)]
        assert len(set(id(b) for b in browsers)) == 1
        assert pool.launches == 1
        assert pool.attaches == 9

    def test_eleventh_agent_gets_second_browser(self):
        sim, acct, pool = make_pool(sharing=True)
        for i in range(11):
            acquire(sim, pool, i)
        assert pool.launches == 2

    def test_no_sharing_one_browser_each(self):
        sim, acct, pool = make_pool(sharing=False)
        for i in range(5):
            acquire(sim, pool, i)
        assert pool.launches == 5

    def test_shared_memory_much_lower(self):
        sim_s, acct_s, pool_s = make_pool(sharing=True)
        for i in range(10):
            acquire(sim_s, pool_s, i)
        sim_d, acct_d, pool_d = make_pool(sharing=False)
        for i in range(10):
            acquire(sim_d, pool_d, i)
        assert acct_s.usage["browser"] < acct_d.usage["browser"] / 3

    def test_attach_cheaper_than_launch(self):
        sim, acct, pool = make_pool(sharing=True)
        t0 = sim.now
        acquire(sim, pool, 1)
        launch_time = sim.now - t0
        t1 = sim.now
        acquire(sim, pool, 2)
        attach_time = sim.now - t1
        assert attach_time < launch_time / 10

    def test_release_closes_empty_browser(self):
        sim, acct, pool = make_pool(sharing=True)
        b = acquire(sim, pool, 1)
        pool.release(b, 1)
        assert acct.usage["browser"] == 0
        assert pool.browsers == []

    def test_cpu_multiplier(self):
        _s, _a, shared = make_pool(sharing=True)
        _s2, _a2, dedicated = make_pool(sharing=False)
        assert shared.cpu_multiplier() < 1.0
        assert dedicated.cpu_multiplier() == 1.0
