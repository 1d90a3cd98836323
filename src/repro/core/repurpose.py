"""Repurposable sandboxes (§4, §5.2).

Instead of discarding a finished instance's sandbox, TrEnv *cleanses* it
(kill processes, close connections, purge file modifications) and parks
it in a **function-agnostic pool**.  A pending invocation of any function
— any language, container or jailer style — repurposes a pooled sandbox:

* rootfs reconfiguration: swap only the function-specific overlay
  (2 mounts vs >9 mounts + mknods + pivot_root);
* cgroup reuse: rewrite limits, and assign restored processes via
  CLONE_INTO_CGROUP rather than migration;
* memory: CRIU "repurpose-and-join" restores threads/fds, then
  ``mmt_attach`` maps the function's memory template.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.container.container import ContainerSandbox, SandboxState
from repro.container.rootfs import FunctionOverlayPool, RootfsBuilder
from repro.container.runtime import ContainerRuntime
from repro.core.config import TrEnvConfig
from repro.core.mm_template import MemoryTemplate, MMTemplateRegistry
from repro.criu.images import SnapshotImage
from repro.kernel.cgroup import CgroupLimits
from repro.kernel.process import Process
from repro.node import Node
from repro.sim.engine import Delay
from repro.workloads.functions import FunctionProfile


class RepurposableSandboxPool:
    """LIFO pool of cleansed, function-agnostic sandboxes."""

    def __init__(self, limit: int = 64):
        self.limit = limit
        self._free: List[ContainerSandbox] = []
        self.hits = 0
        self.misses = 0

    def put(self, sandbox: ContainerSandbox) -> bool:
        """Park a cleansed sandbox; False if the pool is full."""
        if sandbox.leaks_previous_tenant():
            raise AssertionError(
                "refusing to pool a sandbox with residual tenant state")
        if len(self._free) >= self.limit:
            return False
        sandbox.state = SandboxState.POOLED
        self._free.append(sandbox)
        return True

    def take(self) -> Optional[ContainerSandbox]:
        """Pop any pooled sandbox (most recently cleansed first)."""
        if self._free:
            self.hits += 1
            return self._free.pop()
        self.misses += 1
        return None

    def clear(self) -> None:
        """Drop every pooled sandbox (node crash: pool state is lost)."""
        self._free.clear()

    def __len__(self) -> int:
        return len(self._free)


class Repurposer:
    """Implements the online phase B1–B4 of Figure 6."""

    def __init__(self, node: Node, runtime: ContainerRuntime,
                 registry: MMTemplateRegistry,
                 overlay_pool: Optional[FunctionOverlayPool] = None,
                 config: Optional[TrEnvConfig] = None):
        self.node = node
        self.runtime = runtime
        self.registry = registry
        self.rootfs = RootfsBuilder(node.sim, node.latency)
        self.overlays = overlay_pool or FunctionOverlayPool(
            node.sim, node.latency)
        self.config = config or TrEnvConfig()
        self.cleanses = 0
        self.repurposes = 0

    # -- B1: cleanse ---------------------------------------------------------------

    def cleanse(self, sandbox: ContainerSandbox) -> Generator:
        """Timed: scrub all tenant state out of a finished sandbox.

        Kills every process except the namespace-anchoring init, closes
        network connections, unmounts the function overlay, and hands the
        overlay's upper-dir purge to an async worker (§5.2.1).
        """
        node = self.node
        init = sandbox.init_process
        for proc in list(sandbox.processes):
            if proc is not init and proc.alive:
                yield from node.procs.kill_tree(proc)
        sandbox.processes = [init] if init is not None else []
        sandbox.netns.terminate_connections()
        if sandbox.netns.customised:
            sandbox.netns.reset_configuration()
        old = yield from self._swap_out(sandbox)
        if old is not None:
            # Purge runs asynchronously off the critical path.
            node.sim.spawn(self.overlays.release(sandbox.function, old),
                           name="overlay-purge")
        sandbox.function_overlay = None
        sandbox.function = None
        sandbox.last_used = node.now
        self.cleanses += 1

    def _swap_out(self, sandbox: ContainerSandbox) -> Generator:
        table = sandbox.mount_table
        from repro.container.rootfs import FUNCTION_MOUNTPOINT
        if table.mount_depth(FUNCTION_MOUNTPOINT) > 0:
            old = yield from table.umount(FUNCTION_MOUNTPOINT)
            return old
        return None
        yield  # pragma: no cover

    # -- B2-B4: repurpose ---------------------------------------------------------------

    def repurpose(self, sandbox: ContainerSandbox, profile: FunctionProfile,
                  image: SnapshotImage,
                  template: Optional[MemoryTemplate],
                  limits: Optional[CgroupLimits] = None,
                  ctx=None) -> Generator:
        """Timed: turn a pooled sandbox into a live instance of ``profile``.

        With ``config.mm_template`` the memory state arrives via
        ``mmt_attach``; otherwise CRIU's copy-based restore runs inside
        the reused sandbox (the Figure 21 "Cgroup"-only configuration).
        Returns the restored function process.
        """
        node = self.node
        config = self.config
        # B2a: mount the function-specific overlay (pool hit: ~sub-ms).
        overlay = yield from self.overlays.acquire(profile.name)
        yield from self.rootfs.swap_function_overlay(sandbox.mount_table,
                                                     overlay)
        sandbox.function_overlay = overlay
        # B2b: reconfigure the pooled cgroup's limits.
        yield from node.cgroups.reconfigure(sandbox.cgroup,
                                            limits or CgroupLimits())
        # B3: CRIU repurpose-and-join: new process enters the existing
        # namespaces/cgroup and recovers non-memory state.
        space_hook = node.memory.page_delta_hook("function-anon")
        if template is not None and config.mm_template:
            from repro.mem.address_space import AddressSpace
            space = AddressSpace(f"{profile.name}@{sandbox.sandbox_id}",
                                 on_local_delta=space_hook)
            proc = yield from node.procs.spawn(
                profile.name, address_space=space, cgroup=sandbox.cgroup,
                into_cgroup=config.clone_into_cgroup)
            yield from node.criu.restore_process_state(proc, image, ctx=ctx)
            # B4: attach the memory template (metadata-only copy).
            yield from self.registry.mmt_attach(template, space, ctx=ctx)
        else:
            # Copy-based restore inside the reused sandbox.
            yield Delay(node.latency.mem.mmap_syscall * len(image.vmas))
            yield Delay(node.latency.memory_copy(image.nbytes))
            space = image.build_address_space(
                f"{profile.name}@{sandbox.sandbox_id}",
                on_local_delta=space_hook)
            for vma in space.vmas:
                space.populate_local(vma)
            proc = yield from node.procs.spawn(
                profile.name, address_space=space, cgroup=sandbox.cgroup,
                into_cgroup=config.clone_into_cgroup)
            yield from node.criu.restore_process_state(proc, image, ctx=ctx)
        sandbox.processes.append(proc)
        sandbox.function = profile.name
        sandbox.generation += 1
        sandbox.state = SandboxState.ACTIVE
        self.repurposes += 1
        return proc
