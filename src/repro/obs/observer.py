"""The active observability object: metrics registry + optional tracer.

Two levels:

* ``"metrics"`` — counters/gauges/histograms only (cheap; per-event cost
  is a dict update);
* ``"spans"`` — metrics plus the virtual-time span tracer.

Installation mirrors :mod:`repro.analysis.sanitizer`: a module-level
``hooks.active`` slot, ``observed(...)`` as the context manager, and
``maybe_observed()`` gated on the ``REPRO_OBS`` environment variable so
the whole test suite (or any run) can be wrapped without code changes.

The contract shared with the sanitizer and the host-side hot paths:
observers read simulated state, they never add Delays, RNG draws or any
other simulated effect — results with observability on are bit-identical to
results with it off (``tests/integration/test_golden_determinism.py``).
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Optional, Tuple

from repro.obs import hooks
from repro.obs.registry import MetricKey, MetricsRegistry
from repro.obs.trace import SpanTracer, TraceContext

#: Valid --obs-level / REPRO_OBS values ("off" means: don't install).
LEVELS = ("off", "metrics", "spans")


class Observability:
    """Holds the registry (+ tracer) and receives every hook call.

    Instrumented modules call the ``on_*`` methods below through
    ``hooks.active``; platform code with richer context (the invocation
    lifecycle) uses :attr:`tracer` and :attr:`registry` directly.
    """

    def __init__(self, level: str = "spans",
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanTracer] = None):
        if level not in LEVELS or level == "off":
            raise ValueError(
                f"observability level must be one of {LEVELS[1:]}, "
                f"got {level!r}")
        self.level = level
        self.registry = registry if registry is not None else \
            MetricsRegistry()
        self.tracer = tracer if tracer is not None else (
            SpanTracer() if level == "spans" else None)
        # (platform, function, start kind) -> on_invocation's series keys.
        self._invocation_keys: Dict[Tuple[str, str, str],
                                    Tuple[MetricKey, ...]] = {}

    # -- memory subsystem hooks ----------------------------------------------

    def on_pool_alloc(self, pool, npages: int) -> None:
        self.registry.inc("pool_alloc_pages_total", npages, pool=pool.name)

    def on_pool_fetch(self, pool, npages: int, seconds: float) -> None:
        self.registry.inc("pool_fetches_total", pool=pool.name)
        self.registry.inc("pool_fetch_pages_total", npages, pool=pool.name)
        self.registry.observe("pool_fetch_seconds", seconds, pool=pool.name)

    def on_pool_read(self, pool, nloads: int) -> None:
        self.registry.inc("pool_read_loads_total", nloads, pool=pool.name)

    def on_page_cache_delta(self, cache, delta: int) -> None:
        if delta > 0:
            self.registry.inc("page_cache_inserted_pages_total", delta,
                              cache=cache.name)
        else:
            self.registry.inc("page_cache_evicted_pages_total", -delta,
                              cache=cache.name)

    def on_mem_charge(self, category: str, delta_bytes: int) -> None:
        self.registry.inc("mem_charge_events_total", category=category)
        self.registry.add_gauge("mem_category_bytes", delta_bytes,
                                category=category)

    # -- VM hooks -------------------------------------------------------------

    def on_vm_event(self, event: str, vm_name: str, t: float) -> None:
        self.registry.inc("vm_events_total", event=event)
        if self.tracer is not None:
            self.tracer.instant(f"vm_{event}", t,
                                args={"vm": vm_name})

    def on_vm_io(self, mode: str, nbytes: int, seconds: float,
                 ctx: Optional[TraceContext] = None) -> None:
        self.registry.inc("vm_io_bytes_total", nbytes, mode=mode)
        self.registry.inc("vm_io_seconds_total", seconds, mode=mode)

    # -- restore-path hooks ---------------------------------------------------

    def on_criu_restore(self, image, t0: float, t1: float,
                        ctx: Optional[TraceContext]) -> None:
        self.registry.inc("criu_restores_total")
        self.registry.inc("criu_restore_bytes_total", image.nbytes)
        self.registry.observe("criu_restore_seconds", t1 - t0)
        if self.tracer is not None:
            self.tracer.span(ctx, "criu_restore", t0, t1,
                             args={"bytes": image.nbytes,
                                   "n_vmas": len(image.vmas)})

    def on_proc_state_restore(self, image, t0: float, t1: float,
                              ctx: Optional[TraceContext]) -> None:
        self.registry.inc("proc_state_restores_total")
        if self.tracer is not None:
            self.tracer.span(ctx, "proc_state_restore", t0, t1,
                             args={"n_threads": image.n_threads,
                                   "n_fds": image.n_fds})

    def on_mmt_attach(self, template, t0: float, t1: float,
                      ctx: Optional[TraceContext]) -> None:
        self.registry.inc("mmt_attaches_total")
        self.registry.inc("mmt_attach_pages_total", template.total_pages)
        self.registry.observe("mmt_attach_seconds", t1 - t0)
        if self.tracer is not None:
            self.tracer.span(ctx, "mmt_attach", t0, t1,
                             args={"template": template.key,
                                   "pages": template.total_pages,
                                   "pool": ",".join(template.layout.pools)
                                   or "local"})

    # -- fault-domain hooks ---------------------------------------------------

    def on_fault_event(self, kind: str, target: str, t: float) -> None:
        self.registry.inc("faults_injected_total", kind=kind)
        if self.tracer is not None:
            self.tracer.instant(f"fault:{kind}", t,
                                args={"target": target})

    def on_fault_revert(self, kind: str, target: str, t: float) -> None:
        self.registry.inc("faults_reverted_total", kind=kind)
        if self.tracer is not None:
            self.tracer.instant(f"fault:{kind}", t,
                                args={"target": target})

    # -- invocation lifecycle (called from serverless/base.py) -----------------

    def on_invocation(self, platform_name: str, result) -> None:
        which = (platform_name, result.function, result.start_kind)
        keys = self._invocation_keys.get(which)
        if keys is None:
            keys = self._invocation_keys[which] = \
                self._resolve_invocation_keys(*which)
        total, warm, retries, degraded, e2e, startup, exec_ = keys
        reg = self.registry
        reg.inc_key(total)
        reg.inc_key(warm)
        if result.retries:
            reg.inc_key(retries, result.retries)
        if result.degraded:
            reg.inc_key(degraded)
        reg.observe_key(e2e, result.e2e)
        reg.observe_key(startup, result.startup)
        reg.observe_key(exec_, result.exec)

    def _resolve_invocation_keys(self, platform: str, function: str,
                                 kind: str) -> Tuple[MetricKey, ...]:
        key = self.registry.key
        return (
            key("invocations_total", platform=platform, function=function,
                kind=kind),
            key("warm_hits_total" if kind == "warm" else
                "warm_misses_total", platform=platform),
            key("invocation_retries_total", platform=platform),
            key("degraded_invocations_total", platform=platform),
            key("invocation_seconds", platform=platform, phase="e2e"),
            key("invocation_seconds", platform=platform, phase="startup"),
            key("invocation_seconds", platform=platform, phase="exec"),
        )

    def on_retire(self, platform_name: str, function: str,
                  reason: str) -> None:
        self.registry.inc("retires_total", platform=platform_name,
                          reason=reason)


# -- installation -------------------------------------------------------------

def install(level: str = "spans",
            registry: Optional[MetricsRegistry] = None) -> Observability:
    """Install a fresh observer; returns it.  Pair with uninstall()."""
    obs = Observability(level, registry=registry)
    hooks.install(obs)
    return obs


def uninstall(previous: Optional[Observability] = None) -> None:
    hooks.uninstall(previous)


@contextlib.contextmanager
def observed(level: str = "spans",
             registry: Optional[MetricsRegistry] = None):
    """Context manager: observe everything inside the block.

    Yields the :class:`Observability`; the previous observer (usually
    None) is restored on exit.
    """
    if level == "off":
        yield None
        return
    obs = Observability(level, registry=registry)
    previous = hooks.install(obs)
    try:
        yield obs
    finally:
        hooks.uninstall(previous)


def level_from_env() -> str:
    """The level requested by ``REPRO_OBS`` (off unless set).

    ``REPRO_OBS=1`` means full spans (the strictest setting, what the
    golden-determinism CI slice exercises); ``metrics``/``spans`` select
    a level explicitly; empty/``0``/``off`` disable.
    """
    raw = os.environ.get("REPRO_OBS", "").strip().lower()
    if raw in ("", "0", "off", "false"):
        return "off"
    if raw in ("1", "true", "spans"):
        return "spans"
    if raw == "metrics":
        return "metrics"
    raise ValueError(
        f"REPRO_OBS={raw!r}: expected 0/1/off/metrics/spans")


@contextlib.contextmanager
def maybe_observed():
    """Install an observer iff ``REPRO_OBS`` requests one (conftest)."""
    level = level_from_env()
    if level == "off":
        yield None
        return
    with observed(level) as obs:
        yield obs
