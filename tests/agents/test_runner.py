"""Unit tests for the agent workflow runner."""

import pytest

from repro.agents.browser import BrowserPool
from repro.agents.llm import ReplayLLMServer
from repro.agents.runner import AgentResult, AgentWorkflow
from repro.agents.spec import agent_by_name
from repro.mem.accounting import MemoryAccountant
from repro.mem.layout import MB
from repro.mem.page_cache import FileIdRegistry, PageCache
from repro.node import Node
from repro.vm.microvm import GuestConfig, MicroVM, StorageMode


def make_vm(node, storage=StorageMode.VIRTIO_BLK):
    host_cache = PageCache("host")
    vm = MicroVM(GuestConfig(storage=storage), node.memory, host_cache,
                 FileIdRegistry())
    return vm


def run_workflow(agent="bug-fixer", sharing=True, cores=8):
    node = Node(cores=cores, seed=19)
    spec = agent_by_name(agent)
    vm = make_vm(node)
    llm = ReplayLLMServer()
    browsers = BrowserPool(node.sim, node.memory, node.latency,
                           sharing=sharing)
    workflow = AgentWorkflow(spec)

    def driver():
        active, wait = yield from workflow.run(node.cpu, llm, vm, browsers)
        return active, wait

    active, wait = node.sim.run_process(driver())
    return node, spec, vm, active, wait


class TestWorkflow:
    def test_llm_wait_matches_trace(self):
        _node, spec, _vm, _active, wait = run_workflow("bug-fixer")
        assert wait == pytest.approx(spec.llm_wait, rel=0.01)

    def test_active_time_tracks_cpu_linear_agent(self):
        _node, spec, _vm, active, _wait = run_workflow("bug-fixer")
        assert active == pytest.approx(spec.cpu_time, rel=0.3)

    def test_mapreduce_active_wall_time_below_total_cpu(self):
        """Fig 2b: parallel map branches overlap their tool CPU, so the
        wall-clock active time undercuts the summed CPU time."""
        _node, spec, _vm, active, _wait = run_workflow("map-reduce",
                                                       cores=8)
        assert active < spec.cpu_time

    def test_mapreduce_serialises_on_one_core(self):
        _node, spec, _vm, active, _wait = run_workflow("map-reduce",
                                                       cores=1)
        assert active == pytest.approx(spec.cpu_time, rel=0.4)

    def test_anon_memory_grows_to_profile(self):
        node, spec, vm, *_ = run_workflow("map-reduce")
        workflow = AgentWorkflow(spec)
        expected = workflow.anon_bytes
        assert vm.guest_memory.local_bytes == pytest.approx(expected,
                                                            rel=0.05)

    def test_browser_agent_without_pool_rejected(self):
        node = Node(seed=19)
        spec = agent_by_name("shop-assistant")
        vm = make_vm(node)
        workflow = AgentWorkflow(spec)

        def driver():
            yield from workflow.run(node.cpu, ReplayLLMServer(), vm, None)

        with pytest.raises(ValueError):
            node.sim.run_process(driver())

    def test_browser_released_on_completion(self):
        node = Node(cores=8, seed=19)
        spec = agent_by_name("shop-assistant")
        vm = make_vm(node)
        browsers = BrowserPool(node.sim, node.memory, node.latency)
        workflow = AgentWorkflow(spec)

        def driver():
            yield from workflow.run(node.cpu, ReplayLLMServer(), vm, browsers)

        node.sim.run_process(driver())
        assert browsers.browsers == []
        assert node.memory.usage.get("browser", 0) == 0

    def test_file_io_charges_guest_and_host_caches(self):
        node, spec, vm, *_ = run_workflow("map-reduce")
        # virtio-blk: both caches populated by the workflow's IO.
        assert vm.guest_cache.cached_bytes > 0.5 * spec.file_io_bytes

    def test_anon_bytes_floors_at_32mb(self):
        spec = agent_by_name("blackjack")
        workflow = AgentWorkflow(spec)
        assert workflow.anon_bytes >= 32 * MB

    def test_agent_ids_unique(self):
        a = AgentWorkflow(agent_by_name("blackjack"))
        b = AgentWorkflow(agent_by_name("blackjack"))
        assert a.agent_id != b.agent_id


class TestAgentResult:
    def test_total(self):
        r = AgentResult(agent="x", startup=0.2, e2e=3.0, active_time=0.5,
                        llm_wait=2.5)
        assert r.total == pytest.approx(3.2)
