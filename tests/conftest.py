"""Suite-wide fixtures.

Setting ``REPRO_SANITIZE=1`` wraps every test in a runtime sanitizer
(:mod:`repro.analysis.sanitizer`): kernel-invariant shadow ledgers are
verified at each instrumentation hook and at a final barrier when the
test ends.  CI runs the ``tests/mem`` and ``tests/core`` slices this
way; locally it is off, so the hooks cost a single ``is None`` check.

Setting ``REPRO_OBS=1`` (or ``metrics``/``spans``) likewise wraps every
test in a :mod:`repro.obs` observer — the golden-determinism CI slice
runs with it on to prove observability never changes simulated results.
"""

import signal

import pytest

from repro.analysis.sanitizer import maybe_sanitized
from repro.obs.observer import maybe_observed


@pytest.fixture(autouse=True)
def _sanitize_if_requested():
    with maybe_sanitized() as sanitizer:
        yield sanitizer


@pytest.fixture(autouse=True)
def _observe_if_requested():
    with maybe_observed() as observer:
        yield observer


@pytest.fixture
def hang_guard():
    """Turn a blocked test into a failure after two minutes.

    For tests of host-side parallelism, where the regression is a
    parent waiting forever on a dead worker.  Forked workers do not
    inherit the alarm.
    """
    def on_alarm(_signum, _frame):
        raise TimeoutError("test blocked for 120 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
