"""Agent workflow execution engine.

An agent run interleaves LLM calls (replayed, pure wait) with active
phases: tool CPU, browser work, file IO, and memory growth.  The phase
totals are drawn from the agent's Table 2/3 profile, so an uncontended
run on a dedicated core reproduces the measured end-to-end latency, while
CPU phases stretch under overcommitment (the §6.1 effect) and file IO
flows through the VM's page-cache model (the §6.3 effect).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional

from repro.agents.browser import Browser, BrowserPool
from repro.agents.llm import ReplayLLMServer
from repro.agents.spec import AgentSpec
from repro.mem.layout import MB, pages_for_bytes
from repro.sim.cpu import FairShareCPU
from repro.sim.engine import Delay
from repro.vm.microvm import MicroVM

#: Browser process-tree memory when an agent runs a dedicated browser
#: (matches repro.agents.browser.BROWSER_BASE_MB + one renderer).
_DEDICATED_BROWSER_MB = 450

#: Fraction of an agent's file IO that is scratch data it writes itself
#: (downloads, build artifacts) rather than shared base-image reads.
SCRATCH_WRITE_FRACTION = 0.4


@dataclass
class AgentResult:
    """One completed agent session."""

    agent: str
    startup: float
    e2e: float
    active_time: float       # non-LLM-wait execution time
    llm_wait: float
    arrival: float = 0.0

    @property
    def total(self) -> float:
        return self.startup + self.e2e


class AgentWorkflow:
    """Drives one agent session inside a microVM."""

    _ids = itertools.count(1)

    def __init__(self, spec: AgentSpec):
        self.spec = spec
        self.agent_id = next(AgentWorkflow._ids)

    @property
    def anon_bytes(self) -> int:
        """Anonymous runtime memory (Table 2 memory minus page cache and
        browser footprint, which we model separately)."""
        spec = self.spec
        anon = spec.mem_bytes - spec.file_io_bytes
        if spec.uses_browser:
            anon -= _DEDICATED_BROWSER_MB * MB
        return max(32 * MB, anon)

    def run(self, cpu: FairShareCPU, llm: ReplayLLMServer, vm: MicroVM,
            browsers: Optional[BrowserPool] = None) -> Generator:
        """Timed: execute the workflow DAG; returns (active, llm_wait).

        The workflow executes with its Figure-2 structure (linear,
        map-reduce fan-out, or ReAct loop) via
        :class:`~repro.agents.workflow_graph.GraphExecutor`; each tool
        node additionally performs its share of file IO and heap growth.
        ``llm_wait`` is the LLM time on the workflow's critical path;
        ``active`` is the remaining (execution) time.
        """
        from repro.agents.workflow_graph import GraphExecutor, WorkflowGraph

        spec = self.spec
        n = spec.n_llm_calls
        browser: Optional[Browser] = None
        start = _now(cpu)

        browser_cpu_each = 0.0
        if spec.uses_browser:
            if browsers is None:
                raise ValueError(f"{spec.name} needs a browser pool")
            browser = yield from browsers.acquire(self.agent_id)
            browser_cpu_each = (spec.browser_cpu / n) * browsers.cpu_multiplier()

        anon_pages = pages_for_bytes(self.anon_bytes)
        pages_each = max(1, anon_pages // n)
        read_each = int(spec.file_io_bytes * (1 - SCRATCH_WRITE_FRACTION)) // n
        write_each = int(spec.file_io_bytes * SCRATCH_WRITE_FRACTION) // n

        def tool_side_effects(i):
            """File IO + progressive heap growth on each tool step."""
            io = vm.read_files(read_each, f"base-{spec.framework}",
                               offset=i * read_each)
            io += vm.read_files(write_each, f"scratch-{self.agent_id}",
                                write=True, offset=i * write_each)
            if io > 0:
                yield Delay(io)
            vma = vm.guest_memory.add_vma(f"heap-{i}", pages_each)
            vm.guest_memory.populate_local(vma)

        graph = WorkflowGraph.from_spec(spec)
        executor = GraphExecutor(cpu.sim, cpu, llm,
                                 extra_tool_cpu=browser_cpu_each,
                                 on_tool=tool_side_effects)
        try:
            yield from executor.run(graph)
        finally:
            if browser is not None:
                browsers.release(browser, self.agent_id)
        elapsed = _now(cpu) - start
        llm_wait = llm.load_trace(spec).critical_path_latency(spec.workflow)
        active = max(0.0, elapsed - llm_wait)
        return active, llm_wait


def _now(cpu: FairShareCPU) -> float:
    return cpu.sim.now
