"""Container runtime: the cold-start sandbox creation path.

This is what faasd/containerd pays on every cold start (Figure 4): a
network namespace (the dominant, contention-sensitive cost), mount
namespace with a full rootfs build, cgroup creation, and a
spawn-then-migrate of the init process — the path every baseline shares
and TrEnv's repurposing bypasses.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.container.container import (SANDBOX_KERNEL_OVERHEAD,
                                       ContainerSandbox, SandboxState)
from repro.container.rootfs import RootfsBuilder
from repro.kernel.cgroup import CgroupLimits
from repro.kernel.mounts import MountTable
from repro.node import Node
from repro.sim.engine import Delay


class ContainerRuntime:
    """Creates and destroys standard container sandboxes on one node."""

    def __init__(self, node: Node):
        self.node = node
        self.rootfs_builder = RootfsBuilder(node.sim, node.latency)
        self.cold_creates = 0
        self.destroys = 0

    def create_sandbox_cold(self, function: str,
                            limits: Optional[CgroupLimits] = None,
                            clone_into_cgroup: bool = False
                            ) -> Generator:
        """Timed: assemble a complete sandbox from scratch.

        ``clone_into_cgroup`` selects the §5.2.2 fast path for the init
        process; mainstream runtimes (runc) use the migrate path.
        """
        node = self.node
        netns = yield from node.namespaces.create_netns()
        table = MountTable(node.sim, node.latency)
        mntns = yield from node.namespaces.create_mntns(table)
        light = yield from node.namespaces.create_light_set()
        base, fn_overlay = yield from self.rootfs_builder.build_cold(
            table, function)
        cgroup = yield from node.cgroups.create(f"sb-{function}", limits)
        sandbox = ContainerSandbox(netns, mntns, light, cgroup, base)
        sandbox.function_overlay = fn_overlay
        sandbox.function = function
        sandbox.created_at = node.now
        # Init ("pause") process anchors the namespaces.
        init = yield from node.procs.spawn(f"init-{sandbox.sandbox_id}",
                                           cgroup=cgroup,
                                           into_cgroup=clone_into_cgroup)
        sandbox.init_process = init
        sandbox.processes.append(init)
        node.memory.charge("sandbox-kernel", SANDBOX_KERNEL_OVERHEAD)
        sandbox.state = SandboxState.ACTIVE
        self.cold_creates += 1
        return sandbox

    def destroy_sandbox(self, sandbox: ContainerSandbox) -> Generator:
        """Timed: kill processes and tear the sandbox down."""
        node = self.node
        for proc in list(sandbox.live_processes):
            yield from node.procs.kill_tree(proc)
        sandbox.processes.clear()
        sandbox.netns.terminate_connections()
        node.memory.charge("sandbox-kernel", -SANDBOX_KERNEL_OVERHEAD)
        sandbox.state = SandboxState.DESTROYED
        self.destroys += 1

    def bootstrap_function(self, sandbox: ContainerSandbox, profile
                           ) -> Generator:
        """Timed: cold bootstrap — launch the runtime, import, init.

        Builds the function's full post-init memory locally (what the
        snapshot would capture) and burns the bootstrap CPU through the
        node's processor-sharing model, so concurrent cold starts slow
        each other down.
        """
        node = self.node
        space_hook = node.memory.page_delta_hook("function-anon")
        from repro.criu.images import SnapshotImage
        image = SnapshotImage.from_profile(profile)
        space = image.build_address_space(
            f"{profile.name}@{sandbox.sandbox_id}", on_local_delta=space_hook)
        proc = yield from node.procs.spawn(profile.name, address_space=space,
                                           cgroup=sandbox.cgroup,
                                           into_cgroup=True)
        yield from node.cpu.compute(profile.bootstrap_time)
        for vma in space.vmas:
            space.populate_local(vma)
        yield from node.procs.clone_threads(proc, profile.n_threads - 1)
        sandbox.processes.append(proc)
        sandbox.function = profile.name
        return proc
