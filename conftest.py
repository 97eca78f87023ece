"""Repository-root pytest plumbing.

1. Ensure the in-tree package is importable when running pytest from the
   repository root, even without an editable install (this offline
   environment lacks the `wheel` package, so `pip install -e .` cannot
   build; a `.pth` file or this conftest provides the equivalent).
2. A per-test wall-clock timeout (``tier1_test_timeout`` ini option, in
   seconds) so a hung solver probe or a deadlocked worker process fails
   that one test instead of stalling the tier-1 suite forever.  It is a
   SIGALRM-based implementation (``pytest-timeout`` is not available in
   this environment): the alarm fires inside the test call phase and
   raises a plain ``Failed``, so fixtures and the rest of the session
   keep running.  POSIX-only by construction; on platforms without
   ``SIGALRM`` (or off the main thread) it degrades to a no-op.  Override
   per test with ``@pytest.mark.tier1_timeout(seconds)``; ``0`` disables.
3. A ``deep`` hypothesis profile (``--hypothesis-profile=deep``): ten
   times the default example budget for the property tests that take
   their budget from the active profile instead of pinning
   ``max_examples``.  Tier-1 runs the default profile; CI's
   ``bounds-smoke`` job runs ``tests/test_anneal_scorer.py`` deep.
"""

import os
import signal
import sys
import threading

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

try:
    from hypothesis import settings as hypothesis_settings
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass
else:
    hypothesis_settings.register_profile(
        "deep", max_examples=1000, deadline=None
    )


def pytest_addoption(parser):
    parser.addini(
        "tier1_test_timeout",
        "per-test wall-clock timeout in seconds (0 disables)",
        default="0",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "tier1_timeout(seconds): override the per-test wall-clock timeout "
        "for one test (0 disables)",
    )


def _timeout_for(item) -> float:
    marker = item.get_closest_marker("tier1_timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    try:
        return float(item.config.getini("tier1_test_timeout"))
    except (TypeError, ValueError):
        return 0.0


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    seconds = _timeout_for(item)
    usable = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        return (yield)

    def on_alarm(signum, frame):
        pytest.fail(
            f"test exceeded the per-test timeout ({seconds:g}s)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
