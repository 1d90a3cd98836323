"""The control plane on the cluster dispatch path, end to end."""

import hashlib
import json

import pytest

from repro.control.config import ControlConfig, SLOTarget, TimeoutConfig
from repro.faults import FaultInjector, FaultPlan
from repro.mem.layout import GB
from repro.mem.pools import CXLPool
from repro.serverless.cluster import make_trenv_cluster
from repro.workloads.functions import function_by_name
from repro.workloads.synthetic import make_scaleout_uniform


def make_workload(seed=3, rate=30.0, duration=8.0,
                  functions=("CH", "CR", "IP")):
    suite = [function_by_name(n) for n in functions]
    return make_scaleout_uniform(seed=seed, functions=suite,
                                 duration=duration, rate=rate)


def run_cluster(control, seed=3, n_nodes=2, cores=2, plan=None,
                **wl_kwargs):
    cluster = make_trenv_cluster(n_nodes, CXLPool(64 * GB), seed=seed,
                                 cores=cores, control=control)
    if plan is not None:
        FaultInjector.for_cluster(cluster, plan).arm()
    return cluster.run_workload(make_workload(seed=seed, **wl_kwargs))


def overload_config(**kwargs):
    defaults = dict(
        default_concurrency=2,
        queue_capacity=4,
        shed_policy="deadline",
        timeouts=TimeoutConfig(per_attempt=2.0, per_invocation=3.0),
        slos={fn: SLOTarget(threshold=3.0, objective=0.9)
              for fn in ("CH", "CR", "IP")},
    )
    defaults.update(kwargs)
    return ControlConfig(**defaults)


class TestArmedButPermissive:
    def test_no_limits_matches_uncontrolled_bit_for_bit(self):
        # An armed plane with every knob open must not perturb the
        # simulated run: same completions, same latencies, same
        # dispatch spread as the pre-control path.
        baseline = run_cluster(None, rate=10.0)
        permissive = run_cluster(ControlConfig(node_breaker=None,
                                               pool_breaker=None),
                                 rate=10.0)
        assert permissive.control is not None
        assert baseline.control is None
        assert permissive.dispatch_counts == baseline.dispatch_counts
        assert permissive.failed == [] and baseline.failed == []
        assert (permissive.recorder.e2e_percentile(99)
                == baseline.recorder.e2e_percentile(99))
        assert (sorted(r.e2e for r in permissive.recorder.results)
                == sorted(r.e2e for r in baseline.recorder.results))

    def test_closed_breakers_do_not_perturb_dispatch(self):
        baseline = run_cluster(None, rate=10.0)
        armed = run_cluster(ControlConfig(), rate=10.0)   # breakers on
        assert armed.dispatch_counts == baseline.dispatch_counts
        assert (armed.recorder.e2e_percentile(99)
                == baseline.recorder.e2e_percentile(99))


class TestOverloadBehaviour:
    def test_sheds_and_aborts_are_accounted(self):
        result = run_cluster(overload_config(), rate=60.0)
        n = len(result.recorder.results) + len(result.failed)
        assert n == make_workload(rate=60.0).n_invocations
        assert len(result.failed) > 0
        # Every failure is categorised, never silent.
        for _fn, _arrival, reason in result.failed:
            kind, _, cause = reason.partition(":")
            assert kind in ("shed", "abort")
            assert cause in ("burn", "queue-full", "evicted", "expired",
                             "deadline", "retry-budget",
                             "dispatch-budget")
        summary = result.control
        sheds = sum(summary["admission"]["shed"].values())
        aborts = sum(summary["aborts"].values())
        assert sheds + aborts == len(result.failed)
        assert summary["completions"] == len(result.recorder.results)

    def test_deadline_bounds_completed_tail(self):
        result = run_cluster(overload_config(), rate=60.0)
        deadline = 3.0
        # Completed invocations all made their per-invocation deadline
        # (plus the final attempt's grace: none here, since aborts fire
        # exactly at the deadline event).
        assert result.recorder.e2e_percentile(100) <= deadline + 1e-9

    def test_deterministic_under_overload(self):
        a = run_cluster(overload_config(), rate=60.0)
        b = run_cluster(overload_config(), rate=60.0)
        assert a.failed == b.failed
        assert a.dispatch_counts == b.dispatch_counts
        assert a.control == b.control
        assert ([r.e2e for r in a.recorder.results]
                == [r.e2e for r in b.recorder.results])

    def test_slo_report_in_summary(self):
        result = run_cluster(overload_config(), rate=60.0)
        slo = result.control["slo"]
        assert set(slo) == {"CH", "CR", "IP"}
        for rep in slo.values():
            assert 0.0 <= rep["attainment"] <= 1.0
            assert rep["observed"] == rep["good"] + rep["bad"]


def _hexed(value):
    """``value`` with every float written as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


def controlled_crash_digest():
    """sha256 of a controlled 2-node run that loses node1 mid-surge."""
    plan = FaultPlan().node_crash(4.0, "node1", duration=2.0)
    result = run_cluster(overload_config(), rate=30.0, plan=plan)
    view = {
        "records": [[r.function, r.arrival, r.start_kind, r.startup,
                     r.exec, r.e2e, r.queue, r.retries, r.degraded]
                    for r in result.recorder.results],
        "failed": result.failed,
        "dispatch_counts": result.dispatch_counts,
        "redispatches": result.redispatches,
        "control": result.control,
    }
    blob = json.dumps(_hexed(view), sort_keys=True, separators=(",", ":"))
    return len(result.recorder.results), hashlib.sha256(
        blob.encode()).hexdigest()


#: (completions, digest) of :func:`controlled_crash_digest`: sheds,
#: deadline aborts, attempt timeouts, crash re-dispatch and an opened
#: node breaker all feed it.
GOLDEN_CONTROLLED_CRASH = (
    46, "c68a0769c8a1d09db3a9700947de20a7cbee5f65797b4dc891adc2025e5da91e")


def test_controlled_crash_run_matches_golden_digest():
    assert controlled_crash_digest() == GOLDEN_CONTROLLED_CRASH


class TestConfigMistakes:
    def test_inverted_hierarchy_rejected_before_running(self):
        with pytest.raises(ValueError, match="hierarchy"):
            overload_config(
                timeouts=TimeoutConfig(per_attempt=5.0,
                                       per_invocation=3.0))
