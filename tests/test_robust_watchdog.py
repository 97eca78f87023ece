"""Tests of the sweep watchdog: ``fabric_sweep`` under ``sweep.cell``
faults.

Injects deterministic cell hangs, worker crashes and cell errors through
the ``sweep.cell`` chaos site and checks that
:func:`repro.fabric.fabric_sweep` kills, re-runs, records, and -- above
all -- never loses the other cells.  Hangs and crashes run in worker
processes (an inline cell can be neither killed nor crashed without
taking the caller down); short leases keep each recovery to a second or
two.
"""

import json
import os
import time

import pytest

from repro.chaos import CHAOS_EXIT_CODE, ChaosFault, ChaosSchedule
from repro.fabric import EVENTS_NAME, SweepResult, fabric_sweep

# A reaped lease is re-claimable within one TTL; a failed claim backs
# off only briefly.
_FAST = dict(lease_ttl=0.5, backoff=0.05, poll_interval=0.05)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _cell_fault(tmp_path, kind, repeat=1, hang_seconds=30.0):
    """``sweep.cell`` misbehaves as ``kind`` on its first execution(s),
    whichever cell that is."""
    return ChaosSchedule(
        str(tmp_path / "chaos"),
        [ChaosFault("sweep.cell", 1, kind, repeat=repeat)],
        hang_seconds=hang_seconds,
    )


def _events(fabric_dir):
    with open(os.path.join(fabric_dir, EVENTS_NAME)) as fh:
        return [json.loads(line) for line in fh]


class TestErrorReporting:
    def test_error_carries_full_traceback(self):
        results = fabric_sweep(_fail_on_three, [1, 3], workers=0).results
        assert results[0].ok and results[0].value == 1
        bad = results[1]
        assert not bad.ok
        assert "Traceback" in bad.error
        assert "ValueError: three is right out" in bad.error
        assert "_fail_on_three" in bad.error  # the frame is visible

    def test_injected_error_carries_full_traceback(self, tmp_path):
        chaos = _cell_fault(tmp_path, "io-error")
        results = fabric_sweep(_square, [4], workers=0,
                               chaos=chaos).results
        assert "Traceback" in results[0].error
        assert "ChaosIOError: chaos: injected io-error at sweep.cell" in (
            results[0].error)

    def test_seconds_and_attempts_are_recorded(self):
        results = fabric_sweep(_square, [2, 5], workers=2).results
        for r in results:
            assert r.ok
            assert r.seconds >= 0.0
            assert r.attempts == 1

    def test_retry_errors_exhausts_max_attempts(self):
        results = fabric_sweep(_fail_on_three, [3], workers=0,
                               retry_errors=True, max_attempts=3,
                               backoff=0.0).results
        assert not results[0].ok  # deterministic failure every attempt
        assert results[0].attempts == 3


class TestHungCell:
    def test_hung_cell_is_rerun(self, tmp_path):
        chaos = _cell_fault(tmp_path, "hang")
        t0 = time.monotonic()
        results = fabric_sweep(_square, [0, 1, 4], workers=2,
                               job_timeout=1.0, max_attempts=2,
                               chaos=chaos, **_FAST).results
        # Every cell is recorded, so the worker still asleep in the hung
        # cell is terminated after a short grace, not the 5 s one a
        # degraded run gives its fleet.
        assert time.monotonic() - t0 < 4.0
        assert [r.value for r in results] == [0, 1, 16]
        # The hung cell was re-run once and succeeded; the others ran
        # exactly once.
        assert sorted(r.attempts for r in results) == [1, 1, 2]
        assert [e["kind"] for e in chaos.events()] == ["hang"]

    def test_exhausted_retries_fail_only_the_hung_cell(self, tmp_path):
        chaos = _cell_fault(tmp_path, "hang")
        results = fabric_sweep(_square, [7, 2, 5], workers=2,
                               job_timeout=0.5, max_attempts=1,
                               chaos=chaos, **_FAST).results
        dead = [r for r in results if not r.ok]
        assert len(dead) == 1
        assert "poisoned after 1 failed claims" in dead[0].error
        # The healthy cells are untouched by their neighbour's hang.
        assert all(r.value == r.param ** 2 for r in results if r.ok)


class TestCrashedWorker:
    def test_crashed_cell_is_rerun(self, tmp_path):
        fabric_dir = str(tmp_path / "fabric")
        chaos = _cell_fault(tmp_path, "crash")
        results = fabric_sweep(_square, [2, 3], fabric_dir=fabric_dir,
                               workers=2, max_attempts=2, chaos=chaos,
                               **_FAST).results
        assert [r.value for r in results] == [4, 9]
        assert sorted(r.attempts for r in results) == [1, 2]
        assert any(e["event"] == "worker-died"
                   and e["exitcode"] == CHAOS_EXIT_CODE
                   for e in _events(fabric_dir))

    def test_crash_without_retry_is_recorded(self, tmp_path):
        chaos = _cell_fault(tmp_path, "crash")
        results = fabric_sweep(_square, [2, 3, 4], workers=2,
                               max_attempts=1, chaos=chaos,
                               **_FAST).results
        dead = [r for r in results if not r.ok]
        assert len(dead) == 1
        assert "poisoned after 1 failed claims" in dead[0].error
        assert all(r.value == r.param ** 2 for r in results if r.ok)


class TestRaisedFaults:
    def test_injected_error_records_then_clears(self, tmp_path):
        # The fault fires on the first two executions of the site
        # (counted across sweeps): once in the record-only sweep below,
        # once more on the retrying sweep's first attempt.
        chaos = _cell_fault(tmp_path, "io-error", repeat=2)
        # Cell errors are deterministic by default: recorded, no retry.
        results = fabric_sweep(_square, [5], workers=0,
                               chaos=chaos).results
        assert not results[0].ok
        assert "ChaosIOError" in results[0].error
        # With retry_errors the second attempt succeeds (fault cleared).
        results = fabric_sweep(_square, [5], workers=0, chaos=chaos,
                               retry_errors=True, max_attempts=2,
                               backoff=0.0).results
        assert results[0].ok and results[0].value == 25
        assert results[0].attempts == 2


class TestInlineGuards:
    """An inline sweep runs its cells in the caller's own process."""

    def test_inline_rejects_a_crash_schedule(self, tmp_path):
        chaos = ChaosSchedule(
            str(tmp_path / "chaos"),
            [ChaosFault("fabric.worker.claim", 3, "crash")],
        )
        with pytest.raises(ValueError, match="crash fault"):
            fabric_sweep(_square, [1, 2], workers=0, chaos=chaos)
        assert chaos.executions_of("fabric.worker.claim") == 0

    def test_inline_rejects_a_job_timeout(self):
        with pytest.raises(ValueError, match="job_timeout"):
            fabric_sweep(_square, [1, 2], workers=0, job_timeout=5.0)


class TestResume:
    def test_finished_cells_are_not_rerun(self, tmp_path):
        fabric_dir = str(tmp_path / "fabric")
        params = [1, 2, 3]
        first = fabric_sweep(_square, params, fabric_dir=fabric_dir,
                             workers=0).results
        assert [r.value for r in first] == [1, 4, 9]

        # Re-run over the same store: nothing executes again.
        second = fabric_sweep(_fail_on_three, params,
                              fabric_dir=fabric_dir, workers=0).results
        assert [r.value for r in second] == [1, 4, 9]
        assert all(r.ok for r in second)

    def test_worker_results_are_restored(self, tmp_path):
        fabric_dir = str(tmp_path / "fabric")
        first = fabric_sweep(_square, [2, 3], fabric_dir=fabric_dir,
                             workers=2)
        second = fabric_sweep(_square, [2, 3], fabric_dir=fabric_dir,
                              workers=2)
        assert [r.value for r in second.results] == [4, 9]
        assert [r.value for r in first.results] == [4, 9]
        assert second.stats["restored"] == 2

    def test_duplicate_params_run_once(self):
        calls = []

        def counted(x):
            calls.append(x)
            return x * 10

        results = fabric_sweep(counted, [1, 1, 2], workers=0).results
        assert [r.value for r in results] == [10, 10, 20]
        assert sorted(calls) == [1, 2]

    def test_values_round_trip_through_json(self):
        results = fabric_sweep(lambda x: (x, {"k": x}), [(1, 2)],
                               workers=0).results
        assert results[0].param == (1, 2)
        assert results[0].value == [[1, 2], {"k": [1, 2]}]


class TestSweepResultShape:
    def test_ok_property(self):
        assert SweepResult(param=0, value=1).ok
        assert not SweepResult(param=0, error="boom").ok
