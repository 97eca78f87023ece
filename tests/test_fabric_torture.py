"""Seeded fault-injection torture for the experiment fabric.

The acceptance bar: for every fabric fault site and every kind allowed
there (``crash`` / torn-write / io-error / hang as applicable), a single
seeded injection followed by a fresh worker run must **converge to the
fault-free oracle's result set** -- zero lost cells, zero duplicates in
the merged view, values bit-identical to what an undisturbed run
produces.  Crash kinds run with real worker processes (the in-process
``os._exit`` is the SIGKILL drill); pure data/control faults run the
same protocol inline for determinism.  The single-fault sweeps pass
``retry_errors=True``: an io-error at ``sweep.cell`` is an ordinary cell
error, which is otherwise recorded as the cell's (failed) result by
design.
"""

import json
import time

import pytest

from repro.chaos import SITE_KINDS, ChaosFault, ChaosSchedule
from repro.fabric import ResultStore, fabric_sweep, make_jobs

_CODE = "torture-code"
_PARAMS = [[i] for i in range(6)]
_ORACLE = [{"doubled": i * 2} for i in range(6)]

_FABRIC_SITES = (
    "fabric.store.append",
    "fabric.store.fsync",
    "fabric.lease.renew",
    "fabric.worker.claim",
    "sweep.cell",
)


def _cell(param):
    return {"doubled": param[0] * 2}


def _slow_cell(param):
    # Long enough that the lease heartbeat fires several renewals.
    time.sleep(0.25)
    return {"doubled": param[0] * 2}


def _converged(fabric_dir, results):
    """Assert zero lost / zero duplicated / oracle-identical."""
    assert [r.value for r in results] == _ORACLE
    scan = ResultStore(fabric_dir).scan()
    keys = {j.key for j in make_jobs(_PARAMS, code=_CODE)}
    assert keys <= set(scan.records)
    for job in make_jobs(_PARAMS, code=_CODE):
        assert scan.records[job.key]["value"] == {
            "doubled": job.param[0] * 2}
    # Scanning the same bytes again agrees bit for bit (the dedupe
    # winner is a pure function of the on-disk state).
    assert ResultStore(fabric_dir).scan().records == scan.records


_CASES = [(site, kind)
          for site in _FABRIC_SITES for kind in SITE_KINDS[site]]


@pytest.mark.parametrize("site,kind", _CASES)
def test_single_fault_converges_to_oracle(tmp_path, site, kind):
    fabric_dir = str(tmp_path / "fabric")
    chaos = ChaosSchedule(
        str(tmp_path / "chaos"),
        [ChaosFault(site, 2, kind)],
        hang_seconds=0.05,
    )
    # Crashes must land in expendable worker processes; everything else
    # runs the same protocol inline (fast and fully deterministic).
    workers = 2 if kind == "crash" else 0
    fn = _slow_cell if site == "fabric.lease.renew" else _cell
    kwargs = dict(
        fabric_dir=fabric_dir, workers=workers, lease_ttl=0.3,
        max_attempts=6, retry_errors=True, backoff=0.0,
        poll_interval=0.05, code=_CODE,
    )
    fabric_sweep(fn, _PARAMS, chaos=chaos, **kwargs)
    assert any(e["site"] == site and e["kind"] == kind
               for e in chaos.events()), "scheduled fault never fired"
    # A fresh, fault-free run over the same directory must finish
    # whatever the fault interrupted and change nothing that survived.
    final = fabric_sweep(fn, _PARAMS, **kwargs)
    assert final.complete and not final.degraded
    _converged(fabric_dir, final.results)
    # Compaction preserves the converged set exactly.
    before = ResultStore(fabric_dir).scan().records
    ResultStore(fabric_dir).compact()
    assert ResultStore(fabric_dir).scan().records == before


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_seeded_fabric_schedule_converges(tmp_path, seed):
    """Randomized-but-pinned multi-fault schedules over the fabric
    sites: whatever the seed throws (including worker crashes), run +
    fresh run converge to the oracle."""
    fabric_dir = str(tmp_path / "fabric")
    chaos = ChaosSchedule.from_seed(
        seed, str(tmp_path / "chaos"), sites=_FABRIC_SITES,
        hang_seconds=0.05,
    )
    kwargs = dict(
        fabric_dir=fabric_dir, workers=2, lease_ttl=0.3,
        max_attempts=8, backoff=0.0, poll_interval=0.05, code=_CODE,
    )
    fabric_sweep(_slow_cell, _PARAMS, chaos=chaos, **kwargs)
    final = fabric_sweep(_slow_cell, _PARAMS, **kwargs)
    assert final.complete and not final.degraded
    _converged(fabric_dir, final.results)


def test_fabric_profile_two_worker_smoke(tmp_path):
    """The CI smoke configuration: the curated ``fabric`` profile, two
    workers, one run plus one convergence run."""
    fabric_dir = str(tmp_path / "fabric")
    chaos = ChaosSchedule.from_profile(
        "fabric", str(tmp_path / "chaos"), hang_seconds=0.05)
    kwargs = dict(
        fabric_dir=fabric_dir, workers=2, lease_ttl=0.3,
        max_attempts=8, backoff=0.0, poll_interval=0.05, code=_CODE,
    )
    fabric_sweep(_slow_cell, _PARAMS, chaos=chaos, **kwargs)
    final = fabric_sweep(_slow_cell, _PARAMS, **kwargs)
    assert final.complete and not final.degraded
    _converged(fabric_dir, final.results)
    assert chaos.events(), "the fabric profile injected nothing"


def test_sigkilled_worker_job_stolen_within_one_reaper_pass(tmp_path):
    """A worker SIGKILLed (chaos ``crash`` == ``os._exit``) while
    *holding a lease* mid-cell: one reaper pass re-queues the lease and
    a peer provably re-runs the job to completion."""
    fabric_dir = str(tmp_path / "fabric")
    chaos = ChaosSchedule(
        str(tmp_path / "chaos"),
        [ChaosFault("fabric.lease.renew", 1, "crash")],
    )
    out = fabric_sweep(
        _slow_cell, [[9]], fabric_dir=fabric_dir, workers=2,
        lease_ttl=0.3, max_attempts=6, backoff=0.0, poll_interval=0.05,
        chaos=chaos, code=_CODE,
    )
    assert out.complete and not out.degraded
    assert out.results[0].value == {"doubled": 18}
    assert out.stats["store_records"] == 1
    with open(tmp_path / "fabric" / "fabric-events.jsonl") as fh:
        events = [json.loads(line) for line in fh]
    claims = [e for e in events if e["event"] == "claimed"]
    assert len(claims) >= 2, "the job was never re-claimed by a peer"
    assert claims[0]["actor"] != claims[-1]["actor"]
    reap_i = next(i for i, e in enumerate(events)
                  if e["event"] == "reaped")
    # The re-claim comes after the (single) reap of the dead worker's
    # lease -- stolen within one reaper pass, not by luck or timeout.
    assert any(e["event"] == "claimed" and e["attempt"] == 2
               for e in events[reap_i:])
    done = [e for e in events if e["event"] == "completed"]
    assert len(done) == 1 and done[0]["actor"] != claims[0]["actor"]
