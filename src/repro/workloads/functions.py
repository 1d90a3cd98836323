"""The evaluated serverless functions (Table 4).

Each :class:`FunctionProfile` captures what the paper measures per
function: snapshot memory size, restored thread count, execution CPU/IO
time, and the page-access behaviour (touched working set, write fraction,
load intensity) that drives Figures 10, 18, 19 and 22.

Calibration notes:

* Read-only ratios span 24%–90% (§5.1/§9.2.2); IR is the read-heavy
  extreme, IFR the write-heavy one (Figure 18b discussion).
* DH and IR have sub-100 ms execution, which is why CXL's per-load
  latency "nearly doubles" their execution time (§9.2.1).
* Touched-page counts are back-solved from §9.4: T-RDMA adds ~88 ms to
  IR and ~25 ms to JS versus CRIU at ~8 µs per major fault.
* CH is IO-bound (§9.2.3 category 1), so much of its latency releases
  the CPU.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.mem.layout import MB, pages_for_bytes
from repro.mem.trace import AccessTrace
from repro.sim.rng import SeededRNG
from repro.workloads.cache import memoized

#: Content-id namespace offsets.  Pages of the shared language runtime get
#: ids in a per-language space so the dedup store consolidates them across
#: functions; function-specific pages live in a per-function space.
_LANG_SPACE = {"python": 1 << 40, "nodejs": 2 << 40}
_FUNC_SPACE = 1 << 44

#: (seed, rng path, function) -> base AccessTrace.  Traces are immutable
#: in practice (callers only read them or derive jittered copies).
#: Bounded LRU via :func:`repro.workloads.cache.memoized`, which also
#: gates it on :data:`repro.optflags.trace_cache` — with the flag off,
#: every call regenerates (the A/B contract for optimisation flags).
#: Per-invocation jittered traces are not memoised: their keys never
#: repeat within a run, and a miss costs one RNG fork plus a sort-merge.
_BASE_TRACE_CACHE: "OrderedDict[tuple, AccessTrace]" = OrderedDict()  # simlint: shard-safe (deterministic memo: value is a pure function of the key)

#: Bound of :data:`_BASE_TRACE_CACHE`.  Every node of a rack draws from its
#: own RNG path, so a rack needs one entry per (node, function): 160 for
#: 10 nodes x 16 functions.  A round-robin run cycles through all of them,
#: so an LRU smaller than that misses on every lookup.
BASE_TRACE_ENTRIES = 256


@dataclass(frozen=True)
class FunctionProfile:
    """Static description of one serverless function."""

    name: str
    lang: str
    description: str
    mem_bytes: int                  # post-initialisation snapshot size
    n_threads: int                  # threads CRIU must restore
    exec_cpu: float                 # seconds of pure CPU per invocation
    io_time: float                  # seconds of IO wait (CPU released)
    touched_pages: int              # distinct pages touched per invocation
    write_fraction: float           # of touched pages, share written
    loads_per_read_page: float      # cache-missing loads per touched page
    n_vmas: int                     # VMAs in the snapshot (mmap storm size)
    n_fds: int = 8
    runtime_shared_bytes: int = 38 * MB   # language runtime + common libs
    bootstrap_time: float = 0.8     # interpreter launch + imports (cold)
    file_io_bytes: int = 8 * MB     # rootfs file reads per invocation
    #: Per-invocation input jitter applied to the base access trace.
    #: 0.0 means every invocation replays the cached base trace exactly
    #: (no per-invocation RNG fork) — used by micro benchmarking suites.
    trace_jitter: float = 0.08

    @property
    def image_pages(self) -> int:
        return pages_for_bytes(self.mem_bytes)

    @property
    def read_only_ratio(self) -> float:
        return 1.0 - self.write_fraction

    @property
    def touch_fraction(self) -> float:
        return min(1.0, self.touched_pages / self.image_pages)

    @property
    def exec_time_ideal(self) -> float:
        """Execution latency with local memory and a dedicated core."""
        return self.exec_cpu + self.io_time

    def base_trace(self, rng: SeededRNG) -> AccessTrace:
        """The function's canonical access pattern (the "recorded run"
        REAP/FaaSnap profile their working set from).

        Cached per (seed, stream, function): the base pattern is
        deterministic, and workloads regenerate it once per invocation.
        """
        key = (rng.seed, rng.path, self.name)

        def build() -> AccessTrace:
            sub = rng.fork(f"{self.name}/base")
            return AccessTrace.generate(
                sub,
                total_pages=self.image_pages,
                touch_fraction=self.touch_fraction,
                write_fraction=self.write_fraction,
                loads_per_read_page=self.loads_per_read_page,
                writable_start=min(
                    self.image_pages,
                    pages_for_bytes(self.runtime_shared_bytes)),
            )

        return memoized(_BASE_TRACE_CACHE, key, build, BASE_TRACE_ENTRIES)

    def make_trace(self, rng: SeededRNG, invocation: int = 0,
                   jitter: Optional[float] = None) -> AccessTrace:
        """One invocation's trace: the base pattern with input jitter.

        Deterministic per (rng seed, function, invocation index) — the
        reproducibility discipline of §9.6's trace-replay methodology.
        ``jitter`` defaults to the profile's :attr:`trace_jitter`.
        """
        if jitter is None:
            jitter = self.trace_jitter
        base = self.base_trace(rng)
        if jitter == 0.0:
            return base
        sub = rng.fork(f"{self.name}/inv{invocation}")
        return base.jittered(sub, self.image_pages, jitter)

    def content_ids(self):
        """Per-page content ids of the snapshot image.

        The first ``runtime_shared_bytes`` worth of pages carry
        language-wide ids (dedupable across functions of the same
        language, §5.1 Figure 12); the rest are function-unique.
        """
        import numpy as np
        total = self.image_pages
        shared = min(total, pages_for_bytes(self.runtime_shared_bytes))
        lang_base = _LANG_SPACE[self.lang]
        func_base = _FUNC_SPACE + _stable_hash(self.name) * (1 << 24)
        ids = np.empty(total, dtype=np.int64)
        ids[:shared] = lang_base + np.arange(shared)
        ids[shared:] = func_base + np.arange(total - shared)
        return ids


def _stable_hash(name: str) -> int:
    acc = 0
    for ch in name:
        acc = (acc * 131 + ord(ch)) % 1_000_003
    return acc


FUNCTIONS: Tuple[FunctionProfile, ...] = (
    FunctionProfile(
        name="DH", lang="python",
        description="Dynamic web page generating",
        mem_bytes=int(50.4 * MB), n_threads=14,
        exec_cpu=0.025, io_time=0.005,
        touched_pages=2_000, write_fraction=0.20,
        loads_per_read_page=5.0, n_vmas=160, bootstrap_time=0.5, file_io_bytes=6 * MB),
    FunctionProfile(
        name="JS", lang="python",
        description="Deserialize and serialize json",
        mem_bytes=int(94.9 * MB), n_threads=14,
        exec_cpu=0.095, io_time=0.005,
        touched_pages=3_050, write_fraction=0.35,
        loads_per_read_page=6.5, n_vmas=180, bootstrap_time=0.7, file_io_bytes=4 * MB),
    FunctionProfile(
        name="PR", lang="python",
        description="Pagerank algorithm",
        mem_bytes=int(116 * MB), n_threads=395,
        exec_cpu=1.10, io_time=0.05,
        touched_pages=12_000, write_fraction=0.30,
        loads_per_read_page=6.0, n_vmas=420, bootstrap_time=1.2, file_io_bytes=8 * MB),
    FunctionProfile(
        name="IR", lang="python",
        description="Deep learning inference (ResNet)",
        mem_bytes=int(855 * MB), n_threads=141,
        exec_cpu=0.050, io_time=0.005,
        touched_pages=10_700, write_fraction=0.10,
        loads_per_read_page=7.0, n_vmas=520, bootstrap_time=3.0, file_io_bytes=12 * MB),
    FunctionProfile(
        name="IP", lang="python",
        description="Image rotating and flipping",
        mem_bytes=int(67.1 * MB), n_threads=15,
        exec_cpu=0.90, io_time=0.05,
        touched_pages=6_000, write_fraction=0.45,
        loads_per_read_page=3.0, n_vmas=170, bootstrap_time=0.6, file_io_bytes=40 * MB),
    FunctionProfile(
        name="VP", lang="python",
        description="Gray-scale effect on video",
        mem_bytes=int(324 * MB), n_threads=204,
        exec_cpu=2.20, io_time=0.15,
        touched_pages=30_000, write_fraction=0.55,
        loads_per_read_page=2.5, n_vmas=380, bootstrap_time=1.5, file_io_bytes=130 * MB),
    FunctionProfile(
        name="CH", lang="python",
        description="HTML tables rendering",
        mem_bytes=int(94.9 * MB), n_threads=38,
        exec_cpu=0.18, io_time=0.52,
        touched_pages=4_000, write_fraction=0.40,
        loads_per_read_page=3.0, n_vmas=210, bootstrap_time=0.7, file_io_bytes=30 * MB),
    FunctionProfile(
        name="CR", lang="nodejs",
        description="AES encryption algorithm",
        mem_bytes=int(124 * MB), n_threads=16,
        exec_cpu=0.48, io_time=0.02,
        touched_pages=5_000, write_fraction=0.50,
        loads_per_read_page=3.5, n_vmas=200, bootstrap_time=0.4, file_io_bytes=5 * MB),
    FunctionProfile(
        name="JJS", lang="nodejs",
        description="JSON (Node.js port of JS)",
        mem_bytes=int(111 * MB), n_threads=21,
        exec_cpu=0.13, io_time=0.01,
        touched_pages=3_500, write_fraction=0.37,
        loads_per_read_page=5.0, n_vmas=190, bootstrap_time=0.5, file_io_bytes=4 * MB),
    FunctionProfile(
        name="IFR", lang="nodejs",
        description="Image rotating (Node.js port of IP)",
        mem_bytes=int(253 * MB), n_threads=21,
        exec_cpu=0.55, io_time=0.05,
        touched_pages=20_000, write_fraction=0.76,
        loads_per_read_page=2.0, n_vmas=260, bootstrap_time=0.9, file_io_bytes=45 * MB),
)

_BY_NAME: Dict[str, FunctionProfile] = {f.name: f for f in FUNCTIONS}


def function_by_name(name: str) -> FunctionProfile:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; known: {sorted(_BY_NAME)}") from None
