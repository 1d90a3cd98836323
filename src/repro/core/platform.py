"""The TrEnv container-mode platform (§4–§5, §7).

Scheduling policy (§7): a pending invocation first reuses a warm
same-function instance (keep-alive, like every baseline); failing that it
repurposes any sandbox from the function-agnostic pool; failing that it
*steals* the least-recently-used idle instance of another function,
cleanses it, and repurposes it; only with nothing available does it fall
back to building a sandbox cold (with the memory state still arriving via
mm-template, never a bootstrap).

Expired or pressure-evicted instances are cleansed into the repurposable
pool rather than destroyed, which is what keeps the sandbox-creation cost
off the critical path under bursty load.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.container.container import ContainerSandbox, SandboxState
from repro.container.runtime import ContainerRuntime
from repro.core.config import TrEnvConfig
from repro.core.mm_template import (MemoryTemplate, MMTemplateRegistry,
                                    build_template_for_function)
from repro.core.repurpose import RepurposableSandboxPool, Repurposer
from repro.criu.images import SnapshotImage
from repro.mem.pools import DedupStore, MemoryPool
from repro.node import Node
from repro.serverless.base import Instance, ServerlessPlatform
from repro.workloads.functions import FunctionProfile


class TrEnvPlatform(ServerlessPlatform):
    """TrEnv on containers, backed by a CXL or RDMA memory pool."""

    def __init__(self, node: Node, pool: MemoryPool,
                 config: Optional[TrEnvConfig] = None,
                 keep_alive: float = 600.0, seed: int = 0,
                 name: Optional[str] = None,
                 store: Optional[DedupStore] = None):
        """``store`` may be shared by several nodes' platforms: the pool
        then holds ONE deduplicated copy of every image for the whole
        rack (§8.2: "only one copy is needed per rack if it is
        read-only")."""
        self.config = config or TrEnvConfig()
        self.name = name or f"trenv-{pool.name}"
        super().__init__(node, keep_alive, seed)
        self.pool = pool
        self.register_pool(pool)
        self.runtime = ContainerRuntime(node)
        self.registry = MMTemplateRegistry(node.sim, node.latency)
        if store is not None and store.pool is not pool:
            raise ValueError("shared store must live on this platform's pool")
        self.store = store if store is not None else DedupStore(pool)
        self.repurposer = Repurposer(node, self.runtime, self.registry,
                                     config=self.config)
        self.sandbox_pool = RepurposableSandboxPool(
            limit=self.config.sandbox_pool_limit)
        self.images: Dict[str, SnapshotImage] = {}
        self.templates: Dict[str, MemoryTemplate] = {}
        #: Functions degraded to copy-based restore because the pool ran
        #: out of space during preprocessing.
        self.pool_exhausted_functions: set = set()
        #: Acquisitions that fell back to copy-based restore because the
        #: pool was offline at start time (see repro.faults).
        self.degraded_acquires = 0

    # -- preprocessing (§4 phase A) -------------------------------------------------

    def _preprocess(self, profile: FunctionProfile) -> None:
        image = SnapshotImage.from_profile(profile)
        self.images[profile.name] = image
        if self.config.mm_template:
            hot_mask = None
            if hasattr(self.pool, "allocate_pages_masked"):
                # Tiered pool: place the recorded working set in the hot
                # (byte-addressable) tier, cold pages below.
                from repro.mem.tiering import working_set_hot_mask
                hot_mask = working_set_hot_mask(profile, self.trace_rng)
            try:
                self.templates[profile.name] = build_template_for_function(
                    self.registry, image, self.store, hot_mask=hot_mask)
            except MemoryError:
                # Pool exhausted: degrade this function to the CRIU
                # copy-based path (§7's fallback) rather than failing
                # invocations at runtime.
                self.pool_exhausted_functions.add(profile.name)
        self.repurposer.overlays.prewarm(profile.name, count=4)

    # -- acquisition (§7 scheduling policy) ---------------------------------------------

    def _acquire(self, profile: FunctionProfile, ctx=None) -> Generator:
        if self.config.reconfig:
            sandbox = self.sandbox_pool.take()
            if sandbox is None:
                victim = self.warm.lru_victim()
                if victim is not None:
                    self.warm.remove(victim)
                    sandbox = victim.payload
                    victim.retired = True
                    yield from self.repurposer.cleanse(sandbox)
            if sandbox is not None:
                template, degraded = self._usable_template(profile)
                proc = yield from self.repurposer.repurpose(
                    sandbox, profile, self.images[profile.name], template,
                    ctx=ctx)
                inst = Instance(profile, proc.address_space, payload=sandbox)
                inst.degraded_start = degraded
                return inst, "repurposed"
        inst = yield from self._cold_start(profile, ctx)
        return inst, "cold"

    def _usable_template(self, profile: FunctionProfile
                         ) -> Tuple[Optional[MemoryTemplate], bool]:
        """The function's mm-template, or None when the pool behind it is
        unreachable — the repurposer/cold path then restores by copy, so
        a dead pool degrades latency instead of failing the start.
        Returns ``(template, degraded)``."""
        template = self.templates.get(profile.name)
        if template is None:
            return None, False
        if not self.pool.available:
            self.degraded_acquires += 1
            return None, True
        return template, False

    def _cold_start(self, profile: FunctionProfile, ctx=None) -> Generator:
        """Sandbox built from scratch; memory still via template/restore."""
        node = self.node
        sandbox = yield from self.runtime.create_sandbox_cold(
            profile.name, clone_into_cgroup=self.config.clone_into_cgroup)
        image = self.images[profile.name]
        hook = node.memory.page_delta_hook("function-anon")
        template, degraded = self._usable_template(profile)
        if template is not None and self.config.mm_template:
            from repro.mem.address_space import AddressSpace
            space = AddressSpace(f"{profile.name}@{sandbox.sandbox_id}",
                                 on_local_delta=hook)
            proc = yield from node.procs.spawn(
                profile.name, address_space=space, cgroup=sandbox.cgroup,
                into_cgroup=self.config.clone_into_cgroup)
            yield from node.criu.restore_process_state(proc, image, ctx=ctx)
            yield from self.registry.mmt_attach(template, space, ctx=ctx)
        else:
            proc = yield from node.criu.restore_full(
                image, f"{profile.name}@{sandbox.sandbox_id}",
                on_local_delta=hook, ctx=ctx)
        sandbox.processes.append(proc)
        sandbox.function = profile.name
        inst = Instance(profile, proc.address_space, payload=sandbox)
        inst.degraded_start = degraded
        return inst

    # -- Groundhog-style rollback (§10) ------------------------------------------------------

    def _recycle(self, inst: Instance) -> Generator:
        if (self.config.sequential_isolation
                and self.config.mm_template
                and inst.function in self.templates):
            yield from self._rollback_memory(inst)
        yield from super()._recycle(inst)

    def _rollback_memory(self, inst: Instance) -> Generator:
        """Restore the instance's memory to the pristine template state.

        Drops every CoW page and re-attaches the template metadata — the
        "restore memory to a clean state before reuse" of Groundhog,
        made cheap by mm-templates.
        """
        from repro.mem.address_space import AddressSpace
        old_space = inst.space
        hook = old_space.on_local_delta
        old_space.destroy()
        fresh = AddressSpace(old_space.name, on_local_delta=hook)
        yield from self.registry.mmt_attach(
            self.templates[inst.function], fresh, ctx=inst.obs_ctx)
        inst.space = fresh
        # Keep the process view coherent: swap the AS on the live proc.
        sandbox: ContainerSandbox = inst.payload
        for proc in sandbox.live_processes:
            if proc.address_space is old_space:
                proc.address_space = fresh

    # -- retirement: cleanse into the pool, don't destroy -----------------------------------

    def _retire(self, inst: Instance) -> Generator:
        inst.retired = True
        sandbox: ContainerSandbox = inst.payload
        if self.config.reconfig:
            yield from self.repurposer.cleanse(sandbox)
            if not self.sandbox_pool.put(sandbox):
                yield from self.runtime.destroy_sandbox(sandbox)
        else:
            yield from self.runtime.destroy_sandbox(sandbox)

    # -- crash ---------------------------------------------------------------------------------

    def _on_crash(self) -> None:
        """A crashed node loses its repurposable sandboxes too."""
        self.sandbox_pool.clear()

    # -- stats --------------------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        out = super().stats()
        out.update({
            "sandbox_pool_hits": self.sandbox_pool.hits,
            "sandbox_pool_misses": self.sandbox_pool.misses,
            "sandbox_pool_size": len(self.sandbox_pool),
            "repurposes": self.repurposer.repurposes,
            "cleanses": self.repurposer.cleanses,
            "cold_creates": self.runtime.cold_creates,
            "pool_used_mb": self.pool.used_bytes / (1 << 20),
            "dedup_ratio": self.store.dedup_ratio,
            "degraded_acquires": self.degraded_acquires,
        })
        return out
