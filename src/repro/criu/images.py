"""Snapshot images: the on-disk (or in-pool) form of a checkpoint.

A snapshot records the full post-bootstrap state of a function's process:
the virtual memory layout (VMA descriptors), per-page content ids, thread
count and file descriptors.  Layouts follow the shape of a real language
runtime: interpreter text + shared libraries first (dedupable across
functions of the same language), then function code/data, heap, and one
stack VMA per thread group chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.mem.address_space import (MAP_PRIVATE, PROT_EXEC, PROT_READ,
                                     PROT_WRITE, AddressSpace)
from repro.mem.cow import CowPageArray, TemplateBase
from repro.mem.layout import PAGE_SIZE
from repro.workloads.functions import FunctionProfile


@dataclass(frozen=True)
class VMADescriptor:
    """Metadata of one VMA inside a snapshot."""

    name: str
    npages: int
    prot: int
    flags: int = MAP_PRIVATE

    @property
    def writable(self) -> bool:
        return bool(self.prot & PROT_WRITE)


class SnapshotImage:
    """A checkpoint of one function's bootstrapped process."""

    def __init__(self, function: str, vmas: List[VMADescriptor],
                 content_ids: np.ndarray, n_threads: int, n_fds: int):
        total = sum(v.npages for v in vmas)
        if total != len(content_ids):
            raise ValueError(
                f"content ids ({len(content_ids)}) do not cover VMA pages "
                f"({total})")
        self.function = function
        self.vmas = list(vmas)
        self.content_ids = np.asarray(content_ids, dtype=np.int64)
        self.n_threads = n_threads
        self.n_fds = n_fds
        # Frozen per-VMA content-id bases, built lazily on first restore:
        # every address space built from this image shares them CoW.
        self._content_bases = None

    @property
    def total_pages(self) -> int:
        return len(self.content_ids)

    @property
    def nbytes(self) -> int:
        return self.total_pages * PAGE_SIZE

    @property
    def metadata_bytes(self) -> int:
        """Size of layout metadata alone (what an mm-template copies).

        ~8 bytes per PTE plus ~64 bytes per VMA descriptor — well under
        1 MB even for the 855 MB IR image (§4: "its size is small").
        """
        return self.total_pages * 8 + len(self.vmas) * 64

    def vma_content_slices(self) -> List[Tuple[VMADescriptor, np.ndarray]]:
        """Pair each VMA descriptor with its slice of content ids."""
        out = []
        cursor = 0
        for vma in self.vmas:
            out.append((vma, self.content_ids[cursor:cursor + vma.npages]))
            cursor += vma.npages
        return out

    def build_address_space(self, name: str = "",
                            on_local_delta=None) -> AddressSpace:
        """Instantiate the layout (PTEs all empty; caller populates).

        Content ids are shared with the image copy-on-write (one frozen
        base per VMA, reused by every restore of this image) so repeated
        restores copy no per-page arrays.
        """
        space = AddressSpace(name=name or self.function,
                             on_local_delta=on_local_delta)
        if self._content_bases is None:
            self._content_bases = [
                TemplateBase(content.copy())
                for _vma, content in self.vma_content_slices()]
        for (vma, _content), base in zip(self.vma_content_slices(),
                                         self._content_bases):
            new = space.add_vma(vma.name, vma.npages, vma.prot, vma.flags)
            new.content = CowPageArray(base)
        return space

    @classmethod
    def from_profile(cls, profile: FunctionProfile) -> "SnapshotImage":
        """Synthesise the checkpoint a real CRIU dump would produce.

        The VMA layout mirrors a language runtime: a read-only
        interpreter text region, read-exec shared libraries, writable
        data, a large heap, and stack/arena VMAs.  ``profile.n_vmas``
        controls fragmentation (the mmap storm CRIU pays on restore).
        """
        content = profile.content_ids()
        total = len(content)
        runtime_pages = min(total, profile.runtime_shared_bytes // PAGE_SIZE)

        vmas: List[VMADescriptor] = []
        # Interpreter text (a quarter of the runtime, read-exec).
        text = max(1, runtime_pages // 4)
        vmas.append(VMADescriptor("runtime-text", text,
                                  PROT_READ | PROT_EXEC))
        # Shared libraries: split into several read-exec mappings.
        lib_pages = runtime_pages - text
        lib_chunks = max(1, min(profile.n_vmas // 4, 24))
        vmas.extend(_split("lib", lib_pages, lib_chunks,
                           PROT_READ | PROT_EXEC))
        # Function code + data, heap, stacks: writable private.
        remaining = total - runtime_pages
        heap_pages = max(1, int(remaining * 0.7))
        data_pages = max(1, int(remaining * 0.15))
        stack_pages = max(1, remaining - heap_pages - data_pages)
        rw = PROT_READ | PROT_WRITE
        vmas.extend(_split("data", data_pages,
                           max(1, profile.n_vmas // 8), rw))
        vmas.append(VMADescriptor("heap", heap_pages, rw))
        stack_chunks = max(1, profile.n_vmas - len(vmas) - 1)
        vmas.extend(_split("stack", stack_pages, stack_chunks, rw))

        covered = sum(v.npages for v in vmas)
        if covered < total:
            vmas.append(VMADescriptor("anon-tail", total - covered, rw))
        elif covered > total:
            raise AssertionError("layout overran the image")
        return cls(profile.name, vmas, content,
                   n_threads=profile.n_threads, n_fds=profile.n_fds)


def _split(prefix: str, pages: int, chunks: int, prot: int
           ) -> List[VMADescriptor]:
    """Split ``pages`` into up to ``chunks`` non-empty VMAs."""
    chunks = max(1, min(chunks, pages)) if pages > 0 else 0
    out: List[VMADescriptor] = []
    base = pages // chunks if chunks else 0
    extra = pages - base * chunks if chunks else 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size > 0:
            out.append(VMADescriptor(f"{prefix}-{i}", size, prot))
    return out
