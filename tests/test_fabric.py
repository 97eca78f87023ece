"""The experiment fabric: content-addressed jobs, the append-only
dedupe store, the lease board, and the coordinator's run loop.

Multiprocess cell functions live at module level (picklable); they
coordinate through marker files inside the fabric directory so the
tests can stage cross-process races (two workers on one job, a slow
worker whose lease a peer steals) deterministically.
"""

import json
import os
import time

import pytest

from repro.chaos import ChaosFault, ChaosSchedule
from repro.fabric import (
    LeaseBoard,
    ResultStore,
    fabric_sweep,
    job_key,
    make_jobs,
    scan_segment,
)
from repro.fabric.jobs import code_fingerprint

# ---------------------------------------------------------------------------
# jobs: content addressing


def test_job_key_normalizes_tuples_and_lists():
    assert job_key((1, 2), code="c") == job_key([1, 2], code="c")
    assert job_key({"b": 1, "a": 2}, code="c") == job_key(
        {"a": 2, "b": 1}, code="c")


def test_job_key_separates_config_and_code():
    base = job_key([1], code="c")
    assert job_key([1], config="cfg", code="c") != base
    assert job_key([1], code="other") != base
    assert job_key([2], code="c") != base


def test_code_fingerprint_is_stable_and_short():
    fp = code_fingerprint()
    assert fp == code_fingerprint()
    assert len(fp) == 16
    int(fp, 16)  # hex


def test_make_jobs_duplicate_params_share_a_key():
    jobs = make_jobs([(1, 2), [1, 2], (3, 4)], code="c")
    assert jobs[0].key == jobs[1].key
    assert jobs[0].key != jobs[2].key
    assert [j.index for j in jobs] == [0, 1, 2]


def test_solve_request_fingerprint_ignores_topology():
    from repro.core import SolveRequest

    base = SolveRequest(time_limit=5.0)
    assert base.fingerprint() == SolveRequest(
        time_limit=5.0, reuse_learned=False
    ).fingerprint()
    assert base.fingerprint() == SolveRequest(
        time_limit=5.0, proof_log="x.bin"
    ).fingerprint()
    assert base.fingerprint() != SolveRequest(time_limit=9.0).fingerprint()
    assert base.fingerprint() != SolveRequest(
        time_limit=5.0, certify=True).fingerprint()


# ---------------------------------------------------------------------------
# store: segments, repair, dedupe, compaction


def test_segment_roundtrip(tmp_path):
    store = ResultStore(str(tmp_path))
    with store.writer("w0") as w:
        w.append({"key": "a", "value": 1})
        w.append({"key": "b", "value": [1, 2]})
    scan = scan_segment(store.segment_path("w0"))
    assert not scan.damaged
    assert [r["key"] for r in scan.records] == ["a", "b"]


def test_torn_tail_repaired_on_reopen(tmp_path):
    store = ResultStore(str(tmp_path))
    with store.writer("w0") as w:
        w.append({"key": "a", "value": 1})
        w.append({"key": "b", "value": 2})
    path = store.segment_path("w0")
    with open(path, "ab") as fh:
        fh.write(b"\x55\x00\x00\x00torn")  # half a frame
    assert scan_segment(path).damaged
    with store.writer("w0") as w:
        assert w.records == 2
        assert w.repairs == 1
        w.append({"key": "c", "value": 3})
    scan = scan_segment(path)
    assert not scan.damaged
    assert [r["key"] for r in scan.records] == ["a", "b", "c"]


def test_header_damage_quarantines_and_restarts(tmp_path):
    store = ResultStore(str(tmp_path))
    with store.writer("w0") as w:
        w.append({"key": "a", "value": 1})
    path = store.segment_path("w0")
    with open(path, "r+b") as fh:
        fh.write(b"XXXX")  # stomp the magic
    with store.writer("w0") as w:
        assert w.quarantined_from == path + ".quarantined"
        assert w.records == 0
        w.append({"key": "b", "value": 2})
    assert os.path.exists(path + ".quarantined")
    scan = store.scan()
    assert set(scan.records) == {"b"}


def test_scan_dedupes_first_segment_name_wins(tmp_path):
    store = ResultStore(str(tmp_path))
    with store.writer("b-late") as w:
        w.append({"key": "k", "value": "late"})
    with store.writer("a-early") as w:
        w.append({"key": "k", "value": "early"})
        w.append({"key": "other", "value": 0})
    scan = store.scan()
    assert scan.records["k"]["value"] == "early"
    assert scan.duplicates == 1
    assert len(scan.records) == 2


def test_scan_counts_keyless_record_as_damage(tmp_path):
    store = ResultStore(str(tmp_path))
    with store.writer("w0") as w:
        w.append({"value": 1})  # no key
        w.append({"key": "k", "value": 2})
    scan = store.scan()
    assert set(scan.records) == {"k"}
    assert any(s.reason == "record without a key"
               for s in scan.damaged_segments)


def test_compact_merges_dedupes_and_quarantines(tmp_path):
    store = ResultStore(str(tmp_path))
    with store.writer("w0") as w:
        w.append({"key": "a", "value": 1})
        w.append({"key": "b", "value": 2})
    with store.writer("w1") as w:
        w.append({"key": "a", "value": 99})  # duplicate loser
    with open(store.segment_path("w2"), "wb") as fh:
        fh.write(b"not a segment at all")
    before = store.scan().records
    summary = store.compact()
    assert summary["records"] == 2
    assert summary["duplicates_removed"] == 1
    assert summary["quarantined"] == [store.segment_path("w2")
                                      + ".quarantined"]
    after = store.scan()
    assert after.records == before
    assert after.duplicates == 0
    assert not os.path.exists(store.segment_path("w0"))
    assert not os.path.exists(store.segment_path("w1"))


def _single_fault(tmp_path, site, kind, trigger=1, repeat=1):
    return ChaosSchedule(
        str(tmp_path / "chaos"),
        [ChaosFault(site, trigger, kind, repeat)],
        hang_seconds=0.05,
    )


# ---------------------------------------------------------------------------
# lease board


def test_claim_is_exclusive(tmp_path):
    board = LeaseBoard(str(tmp_path))
    assert board.claim("k", "w0")
    assert not board.claim("k", "w1")
    assert board.holder("k")["worker"] == "w0"
    assert board.held("k")


def test_release_checks_ownership(tmp_path):
    board = LeaseBoard(str(tmp_path))
    board.claim("k", "w0")
    board.release("k", "w1")  # not the owner: must be a no-op
    assert board.held("k")
    board.release("k", "w0")
    assert not board.held("k")


def test_renew_extends_and_rejects_non_owner(tmp_path):
    board = LeaseBoard(str(tmp_path), ttl=5.0)
    board.claim("k", "w0")
    before = board.holder("k")["expires"]
    time.sleep(0.02)
    assert board.renew("k", "w0")
    assert board.holder("k")["expires"] > before
    assert not board.renew("k", "w1")
    assert not board.renew("missing", "w0")


def test_reap_requeues_expired_keeps_live(tmp_path):
    board = LeaseBoard(str(tmp_path), ttl=100.0)
    board.claim("dead", "w0")
    LeaseBoard(str(tmp_path), ttl=1000.0).claim("live", "w1")
    holder = board.holder("dead")
    now = holder["expires"] + 0.1
    assert board.reap(now=now - 50.0) == []  # both still live
    assert board.reap(now=now) == ["dead"]
    assert board.held("live", now=now)
    assert board.claim("dead", "w1")  # re-queued: claimable again


def test_reap_ages_out_unparseable_lease(tmp_path):
    board = LeaseBoard(str(tmp_path), ttl=1.0)
    path = os.path.join(board.lease_dir, "broken.lease")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert board.reap() == []  # too young: a claim may be mid-write
    old = time.time() - 10.0
    os.utime(path, (old, old))
    assert board.reap() == ["broken"]


def test_attempts_backoff_and_poison(tmp_path):
    board = LeaseBoard(str(tmp_path))
    assert board.attempts("k") == 0
    assert board.claimable_at("k", backoff=1.0) == 0.0
    assert board.bump_attempts("k") == 1
    assert board.bump_attempts("k") == 2
    assert board.attempts("k") == 2
    # Exponential: 2 attempts -> mtime + 1.0 * 2**1.
    stamp = os.path.getmtime(os.path.join(board.attempts_dir, "k.count"))
    assert board.claimable_at("k", backoff=1.0) == pytest.approx(
        stamp + 2.0)
    assert board.poisoned("k") is None
    board.poison("k", "crash loop")
    info = board.poisoned("k")
    assert info["reason"] == "crash loop"
    assert info["attempts"] == 2


# ---------------------------------------------------------------------------
# coordinator: inline protocol (workers=0, deterministic)

_CODE = "test-code-fp"  # pin the code fingerprint: keys stay comparable


def _double(param):
    return {"doubled": param[0] * 2}


def _fail_on_negative(param):
    if param[0] < 0:
        raise ValueError("negative cell")
    return {"doubled": param[0] * 2}


def _unserializable(param):
    return object()


def test_inline_sweep_completes_in_order(tmp_path):
    params = [[i] for i in range(5)]
    out = fabric_sweep(_double, params, fabric_dir=str(tmp_path),
                       workers=0, code=_CODE)
    assert out.complete and not out.degraded
    assert [r.param for r in out.results] == params
    assert [r.value["doubled"] for r in out.results] == [0, 2, 4, 6, 8]
    assert out.stats["completed"] == 5
    assert out.stats["restored"] == 0
    assert os.path.exists(out.stats["events_path"])


def test_second_run_restores_everything(tmp_path):
    params = [[i] for i in range(4)]
    fabric_sweep(_double, params, fabric_dir=str(tmp_path), workers=0,
                 code=_CODE)

    def boom(param):  # noqa: ARG001 - must never run
        raise AssertionError("cell re-ran despite a stored result")

    out = fabric_sweep(boom, params, fabric_dir=str(tmp_path), workers=0,
                       code=_CODE)
    assert out.complete
    assert out.stats["restored"] == 4
    assert [r.value["doubled"] for r in out.results] == [0, 2, 4, 6]


def test_different_code_fingerprint_misses_the_store(tmp_path):
    params = [[1]]
    fabric_sweep(_double, params, fabric_dir=str(tmp_path), workers=0,
                 code="old-code")
    out = fabric_sweep(lambda p: {"doubled": 99}, params,
                       fabric_dir=str(tmp_path), workers=0, code="new-code")
    assert out.stats["restored"] == 0
    assert out.results[0].value["doubled"] == 99


def test_cell_exception_is_an_error_record_not_a_hang(tmp_path):
    params = [[1], [-1], [3]]
    out = fabric_sweep(_fail_on_negative, params, fabric_dir=str(tmp_path),
                       workers=0, code=_CODE)
    assert out.stats["completed"] == 2
    assert out.stats["errors"] == 1
    bad = out.results[1]
    assert "negative cell" in bad.error
    assert out.results[0].value["doubled"] == 2
    assert not out.complete


def test_unserializable_value_degrades_to_error_record(tmp_path):
    out = fabric_sweep(_unserializable, [[1]], fabric_dir=str(tmp_path),
                       workers=0, code=_CODE)
    assert out.stats["errors"] == 1
    assert "not JSON-serializable" in out.results[0].error


def test_exhausted_attempts_poison_the_job(tmp_path):
    params = [[7]]
    key = make_jobs(params, code=_CODE)[0].key
    board = LeaseBoard(str(tmp_path), max_attempts=3)
    for _ in range(3):
        board.bump_attempts(key)
    out = fabric_sweep(_double, params, fabric_dir=str(tmp_path),
                       workers=0, max_attempts=3, code=_CODE)
    assert board.poisoned(key) is not None
    assert "poisoned after 3 failed claims" in out.results[0].error
    # A later run sees the quarantine and degrades honestly, no re-run.
    again = fabric_sweep(_double, params, fabric_dir=str(tmp_path),
                         workers=0, max_attempts=3, code=_CODE)
    assert "poisoned" in again.results[0].error


def test_retry_errors_reruns_failing_cell(tmp_path):
    marker = tmp_path / "failed-once"

    def flaky(param):
        if not marker.exists():
            marker.write_text("x")
            raise RuntimeError("first attempt fails")
        return {"doubled": param[0] * 2}

    out = fabric_sweep(flaky, [[5]], fabric_dir=str(tmp_path), workers=0,
                       retry_errors=True, max_attempts=3, backoff=0.0,
                       code=_CODE)
    assert out.complete
    assert out.results[0].value["doubled"] == 10
    assert out.results[0].attempts == 2


def test_heartbeat_rideses_out_injected_renew_io_error(tmp_path):
    """An io-error on one lease renewal is one missed beat: the next
    beat succeeds, the lease never expires, the cell completes and is
    not stolen or re-run."""
    params = [[1]]
    chaos = _single_fault(tmp_path, "fabric.lease.renew", "io-error")

    def slow(param):
        time.sleep(0.5)  # long enough for several heartbeats
        return {"doubled": param[0] * 2}

    out = fabric_sweep(slow, params, fabric_dir=str(tmp_path), workers=0,
                       lease_ttl=0.3, chaos=chaos, code=_CODE)
    assert out.complete
    assert out.results[0].attempts == 1
    fired = [e for e in chaos.events()
             if e["site"] == "fabric.lease.renew"]
    assert fired and fired[0]["kind"] == "io-error"
    assert out.stats["store_records"] == 1


# ---------------------------------------------------------------------------
# multiprocess: races, stealing, reaping

_RACE_PARAMS = [["solo"]]


def _race_cell(param):
    # Both claimants may execute this (the allowed double-execution
    # race); the store's dedupe must keep exactly one record.
    time.sleep(0.15)
    return {"who": os.getpid(), "param": param}


def test_two_workers_one_job_exactly_one_record(tmp_path):
    out = fabric_sweep(_race_cell, _RACE_PARAMS,
                       fabric_dir=str(tmp_path), workers=2,
                       lease_ttl=1.0, code=_CODE)
    assert out.complete
    assert out.stats["store_records"] == 1
    assert out.stats["completed"] == 1


def _slow_then_fast(param):
    root, = param
    marker = os.path.join(root, "first-claimant")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        first = True
    except FileExistsError:
        first = False
    with open(os.path.join(root, "executions"), "ab") as fh:
        fh.write(b".")
    if first:
        # Outlive job_timeout: the heartbeat stops renewing, the lease
        # expires, a peer steals the job and finishes it first.
        time.sleep(1.2)
    return {"first_claimant": first}


def test_reaper_requeues_live_but_slow_worker(tmp_path):
    """A worker that outlives ``job_timeout`` loses its lease to the
    reaper; a peer re-runs the cell.  Both eventually append, and the
    dedupe keeps exactly one merged record."""
    out = fabric_sweep(
        _slow_then_fast, [[str(tmp_path)]], fabric_dir=str(tmp_path),
        workers=2, lease_ttl=0.2, job_timeout=0.3, poll_interval=0.05,
        max_attempts=5, code=_CODE,
    )
    assert out.complete
    assert out.stats["store_records"] == 1
    with open(tmp_path / "executions", "rb") as fh:
        executions = len(fh.read())
    assert executions == 2  # provably re-run by a peer
    # One reaper (coordinator or idle worker) re-queued the stale lease.
    events = [json.loads(line) for line in
              open(tmp_path / "fabric-events.jsonl")]
    assert any(e["event"] == "reaped" for e in events)
    assert ResultStore(str(tmp_path)).scan().duplicates >= 1


def _mark_pid(param):
    return {"pid": os.getpid(), "n": param[0]}


def test_no_steal_keeps_workers_on_their_slice(tmp_path):
    params = [[i] for i in range(6)]
    out = fabric_sweep(_mark_pid, params, fabric_dir=str(tmp_path),
                       workers=2, steal=False, code=_CODE)
    assert out.complete
    # Even-indexed cells went to one worker, odd to the other.
    even = {out.results[i].value["pid"] for i in range(0, 6, 2)}
    odd = {out.results[i].value["pid"] for i in range(1, 6, 2)}
    assert len(even) == 1 and len(odd) == 1 and even != odd
