"""The mm-template API (Figure 11).

An :class:`MemoryTemplate` is the in-kernel object of Figure 8: a
process-shaped memory layout (VMAs + a pre-built page table) that is

1. not bound to any particular process — it can be attached to any number
   of restored processes, on any host sharing the pool;
2. entirely read-only toward remote memory, with writes handled by CoW;
3. precise about virtual→physical mappings: for CXL it installs *valid*
   write-protected PTEs (zero-fault reads), for RDMA *invalid* PTEs
   carrying the remote address (lazy 4 KiB fetches).

The registry mirrors the kernel implementation: templates are managed in
an XArray-like map keyed by id, exposed through ioctl-shaped methods on a
root-only pseudo-device (§7, §8.1).
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional

from repro.criu.images import SnapshotImage
from repro.mem.address_space import (MAP_PRIVATE, AddressSpace, PageTable,
                                     VMA)
from repro.mem.pools import DedupStore, PoolBlock
from repro.obs import hooks
from repro.sim.engine import Delay, Simulator
from repro.sim.latency import LatencyModel


class MMTemplateError(RuntimeError):
    """ioctl-level failure (bad id, permission, layout misuse)."""


#: per-PTE metadata copy cost during attach (8 bytes through the kernel).
_ATTACH_PER_PAGE = 1.2e-9


class MemoryTemplate(PageTable):
    """One mm-template: layout metadata plus a pre-built page table.

    The page table is one flat PTE table over every page of the layout
    (:class:`~repro.mem.address_space.PageTable`).  The first attach seals
    it: its arrays freeze, and every attached space shares them
    copy-on-write.
    """

    def __init__(self, template_id: int, key: str):
        super().__init__()
        self.template_id = template_id
        self.key = key
        self.attach_count = 0
        self.sealed = False

    @property
    def metadata_bytes(self) -> int:
        return self.total_pages * 8 + len(self.vmas) * 64

    def find_vma(self, name: str) -> VMA:
        for vma in self.vmas:
            if vma.name == name:
                return vma
        raise MMTemplateError(f"template {self.key}: no VMA {name!r}")


class MMTemplateRegistry:
    """The pseudo-device: ioctl-shaped template management.

    All operations require root (``as_root=True`` at construction of the
    caller's handle) — §8.1: "only users with root privileges can access
    that device".
    """

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self._templates: Dict[int, MemoryTemplate] = {}   # the XArray
        self._ids = itertools.count(1)

    # -- ioctl surface (Figure 11) ---------------------------------------------

    def mmt_create(self, key: str, as_root: bool = True) -> MemoryTemplate:
        """Create an empty template; returns it (id inside)."""
        self._check_root(as_root)
        template = MemoryTemplate(next(self._ids), key)
        self._templates[template.template_id] = template
        return template

    def mmt_get(self, template_id: int) -> MemoryTemplate:
        got = self._templates.get(template_id)
        if got is None:
            raise MMTemplateError(f"no template with id {template_id}")
        return got

    def mmt_delete(self, template_id: int, as_root: bool = True) -> None:
        self._check_root(as_root)
        if template_id not in self._templates:
            raise MMTemplateError(f"no template with id {template_id}")
        del self._templates[template_id]

    def mmt_add_map(self, template: MemoryTemplate, name: str, npages: int,
                    prot: int, flags: int = MAP_PRIVATE,
                    as_root: bool = True) -> VMA:
        """Add a virtual memory area to the template (preprocessing)."""
        self._check_root(as_root)
        if template.sealed:
            raise MMTemplateError("template already sealed by setup_pt")
        return template.add_vma(name, npages, prot, flags)

    def mmt_setup_pt(self, template: MemoryTemplate,
                     vma_name: Optional[str], block: PoolBlock,
                     as_root: bool = True) -> None:
        """Point a template VMA's PTEs at a pool block; ``vma_name=None``
        points the whole layout at one image-wide block in a single pass
        (how preprocessing builds a template).

        For byte-addressable pools the PTEs are installed *valid* and
        write-protected (reads are plain loads); otherwise they are left
        invalid with the remote address recorded for the fault path.
        """
        self._check_root(as_root)
        if template.sealed:
            raise MMTemplateError("template already sealed by an attach")
        if vma_name is None:
            vmas, what = template.vmas, "the layout"
        else:
            vmas, what = [template.find_vma(vma_name)], f"VMA {vma_name!r}"
        npages = vmas[-1].first + vmas[-1].npages - vmas[0].first
        if block.npages != npages:
            raise MMTemplateError(
                f"block covers {block.npages} pages, {what} has {npages}")
        template._bind(vmas, block, block.pool.valid_mask(block.offsets))
        if hooks.on_pte_bound is not None:
            for vma in vmas:
                hooks.on_pte_bound(vma)

    def mmt_attach(self, template: MemoryTemplate, space: AddressSpace,
                   as_root: bool = True, ctx=None) -> Generator:
        """Timed: attach the template to a process's address space.

        Copies *metadata only* — page tables and VMA descriptors — never
        page contents.  Cost: one ioctl plus a linear metadata walk; the
        400 KB of metadata for a 70 MB image copies in well under a
        millisecond (§9.4).

        Host-side the attach is O(1) whatever the VMA count or size:
        :meth:`AddressSpace.attach` shares the template's frozen PTE
        table copy-on-write (:mod:`repro.mem.cow`) and its layout
        vectors, and the attached instance materialises only the chunks
        its invocations write.  The simulated cost formula above keeps
        its per-VMA term: the kernel still walks every VMA descriptor.
        """
        self._check_root(as_root)
        t0 = self.sim.now
        lat = self.latency.mem
        cost = (lat.mmt_attach_base
                + lat.mmt_attach_per_vma * len(template.vmas)
                + _ATTACH_PER_PAGE * template.total_pages)
        yield Delay(cost)
        space.attach(template)
        template.attach_count += 1
        template.sealed = True
        if hooks.on_mmt_attach is not None:
            hooks.on_mmt_attach(template, t0, self.sim.now, ctx)

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _check_root(as_root: bool) -> None:
        if not as_root:
            raise MMTemplateError(
                "permission denied: /dev/mm_template requires root")

    def __len__(self) -> int:
        return len(self._templates)


def build_template_for_function(registry: MMTemplateRegistry,
                                image: SnapshotImage,
                                store: DedupStore,
                                hot_mask=None) -> MemoryTemplate:
    """Offline preprocessing (Figure 12 steps 1–4).

    Deduplicates the snapshot into the pool's consolidated image in one
    store, creates a template, recreates the VMA layout, and links the
    whole layout to the image's pool block in one pass.  ``hot_mask``
    (image-wide, optional) drives per-page tier placement on tiered pools
    (:mod:`repro.mem.tiering`).  Returns the ready-to-attach template.

    The store comes first, so a pool too small for the image raises
    before any template exists: a failed registration leaves neither
    pool pages, index entries nor a half-built template behind.
    """
    block = store.store_image(image.content_ids, hot_mask=hot_mask)
    template = registry.mmt_create(image.function)
    # The whole layout first, so the PTE table is allocated once.
    for vma_desc in image.vmas:
        registry.mmt_add_map(template, vma_desc.name, vma_desc.npages,
                             vma_desc.prot, vma_desc.flags)
    registry.mmt_setup_pt(template, None, block)
    # Content ids travel with the template so re-snapshotting and
    # accounting remain possible.
    template.content[:] = image.content_ids
    return template
