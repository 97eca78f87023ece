"""Tests for the allocation server (:mod:`repro.serve`).

Unit coverage of the building blocks (tenant queues, circuit breaker,
warm cache, typed responses) plus end-to-end server behavior: typed
verdicts for every admission outcome, deadline propagation, warm-start
reuse with bit-identical envelopes, cache safety across code-fingerprint
changes, and the TCP JSON-lines front end.  The fault-injection side
lives in tests/test_serve_torture.py.
"""

import asyncio
import json
import os
import time

import pytest

from repro.core import MinimizeTRT
from repro.core.api import SolveRequest, solve
from repro.io.json_codec import system_to_dict
from repro.model import (
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)
from repro.serve import (
    AllocationServer,
    BackendBreaker,
    ServeConfig,
    ServeResponse,
    TenantQueues,
    WarmCache,
)
from repro.serve.client import request, request_many_sync


def feasible_system(name="serve-sys", wcet=400):
    arch = Architecture(
        ecus=[Ecu("p0"), Ecu("p1")],
        media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                      bit_rate=1_000_000, frame_overhead_bits=0,
                      min_slot=50, slot_overhead=10)],
    )
    tasks = TaskSet([
        Task("a", 2000, {"p0": wcet, "p1": wcet}, 2000,
             messages=(Message("b", 100, 1000),),
             separated_from=frozenset({"b"})),
        Task("b", 2000, {"p0": wcet, "p1": wcet}, 2000),
    ], name=name)
    return tasks, arch


def infeasible_system():
    arch = Architecture(
        ecus=[Ecu("p0"), Ecu("p1")],
        media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                      bit_rate=1_000_000, frame_overhead_bits=0,
                      min_slot=50, slot_overhead=10)],
    )
    tasks = TaskSet([
        Task(f"t{i}", 100, {"p0": 60, "p1": 60}, 100) for i in range(3)
    ], name="serve-infeasible")
    return tasks, arch


def payload_for(tasks, arch, **extra):
    out = {"system": system_to_dict(tasks, arch), "objective": "trt:ring"}
    out.update(extra)
    return out


def _outcome(report):
    """The search outcome of a direct or supervised solve report."""
    return getattr(report.result, "result", report.result).outcome


def serve_config(tmp_path, **kw):
    kw.setdefault("workers", 1)
    return ServeConfig(state_dir=str(tmp_path / "state"), **kw)


async def started_server(tmp_path, **kw):
    server = AllocationServer(serve_config(tmp_path, **kw))
    await server.start()
    return server


class TestTenantQueues:
    def test_bounded_offer_sheds_at_depth(self):
        q = TenantQueues(depth=2)
        assert q.offer("t", 1) and q.offer("t", 2)
        assert not q.offer("t", 3)
        assert q.shed == 1 and len(q) == 2

    def test_depth_is_per_tenant(self):
        q = TenantQueues(depth=1)
        assert q.offer("a", 1)
        assert q.offer("b", 2)
        assert not q.offer("a", 3)

    def test_take_empties_fifo_per_tenant(self):
        q = TenantQueues(depth=4)
        for i in range(3):
            q.offer("t", i)
        assert [q.take() for _ in range(3)] == [0, 1, 2]
        assert q.take() is None

    def test_weighted_fair_dequeue_ratio(self):
        q = TenantQueues(depth=100, weights={"heavy": 2.0, "light": 1.0})
        for i in range(30):
            q.offer("heavy", ("heavy", i))
            q.offer("light", ("light", i))
        first12 = [q.take()[0] for _ in range(12)]
        # Stride scheduling: ~2 heavy dequeues per light one.
        assert first12.count("heavy") == 8
        assert first12.count("light") == 4

    def test_idle_tenant_cannot_bank_credit(self):
        q = TenantQueues(depth=100, weights={"busy": 1.0, "idle": 1.0})
        for i in range(10):
            q.offer("busy", i)
        for _ in range(8):
            q.take()
        # The late arrival joins at current virtual time: it gets served
        # promptly but does not monopolize the next 8 slots as a naive
        # pass of 0 would.
        q.offer("idle", "x")
        taken = [q.take() for _ in range(3)]
        assert "x" in taken
        assert 8 in taken and 9 in taken

    def test_flush_returns_everything(self):
        q = TenantQueues(depth=4)
        q.offer("a", 1)
        q.offer("b", 2)
        assert sorted(q.flush()) == [1, 2]
        assert len(q) == 0


class TestBackendBreaker:
    @pytest.fixture(autouse=True)
    def _restore_backend_default(self):
        from repro.sat.core import set_default_backend

        yield
        set_default_backend(None)

    def test_below_threshold_stays_closed(self):
        br = BackendBreaker(threshold=3, probe=lambda: (True, None))
        assert not br.record_failure("boom", backend="fast")
        assert not br.record_failure("boom", backend="fast")
        assert br.state == "closed"

    def test_success_resets_the_streak(self):
        br = BackendBreaker(threshold=2, probe=lambda: (True, None))
        br.record_failure("boom", backend="fast")
        br.record_success()
        assert not br.record_failure("boom", backend="fast")
        assert br.state == "closed"

    def test_pure_core_failures_never_trip(self):
        br = BackendBreaker(threshold=1, probe=lambda: (True, None))
        assert not br.record_failure("boom", backend="pure")
        assert br.state == "closed"

    def test_trip_switches_process_default_to_pure(self):
        from repro.sat.core import default_backend_name

        br = BackendBreaker(threshold=2, probe=lambda: (True, None))
        br.record_failure("boom", backend="fast")
        assert br.record_failure("boom again", backend="fast")
        assert br.state == "open"
        assert br.reason == "boom again"
        assert default_backend_name() == "pure"

    def test_half_open_probe_restores_after_cooldown(self):
        from repro.sat.core import default_backend_name

        clock = [0.0]
        br = BackendBreaker(
            threshold=1, cooldown=10.0,
            probe=lambda: (True, None), clock=lambda: clock[0],
        )
        # The breaker restores whatever the pre-trip default was — under
        # REPRO_SAT_BACKEND=pure that is "pure" itself.
        original = default_backend_name()
        br.record_failure("boom", backend="fast")
        assert default_backend_name() == "pure"
        assert not br.maybe_probe()  # still cooling down
        clock[0] = 11.0
        assert br.maybe_probe()
        assert br.state == "closed"
        assert default_backend_name() == original

    def test_failed_probe_reopens_for_another_cooldown(self):
        clock = [0.0]
        br = BackendBreaker(
            threshold=1, cooldown=10.0,
            probe=lambda: (False, "still broken"), clock=lambda: clock[0],
        )
        br.record_failure("boom", backend="fast")
        clock[0] = 11.0
        assert not br.maybe_probe()
        assert br.state == "open"
        assert br.probes == 1
        # The cooldown window restarted at the failed probe.
        clock[0] = 12.0
        assert not br.maybe_probe()
        assert br.probes == 1


class TestWarmCache:
    def test_store_then_hit(self):
        c = WarmCache(size=4)
        c.store("s", "fp", 42, {"cost": 42}, code_fp="c1")
        entry = c.lookup("s", "fp", code_fp="c1")
        assert entry is not None and entry.optimum == 42

    def test_code_fingerprint_change_misses(self):
        c = WarmCache(size=4)
        c.store("s", "fp", 42, {}, code_fp="c1")
        assert c.lookup("s", "fp", code_fp="c2") is None
        assert c.stats()["misses"] == 1

    def test_lru_eviction(self):
        c = WarmCache(size=2)
        for i in range(3):
            c.store("s", f"fp{i}", i, {}, code_fp="c")
        assert c.lookup("s", "fp0", code_fp="c") is None
        assert c.lookup("s", "fp2", code_fp="c") is not None

    def test_chaos_fault_degrades_to_miss(self, tmp_path):
        from repro.chaos import ChaosFault, ChaosSchedule, active

        sched = ChaosSchedule(
            str(tmp_path), [ChaosFault("serve.cache", 1, "io-error", 2)]
        )
        c = WarmCache(size=4)
        with active(sched):
            c.store("s", "fp", 42, {}, code_fp="c")   # faulted: no-op
            assert c.lookup("s", "fp", code_fp="c") is None  # faulted: miss
        assert c.stats()["faults"] == 2
        # Out of the chaos scope the cache works again (and is empty --
        # the faulted store really stored nothing).
        assert c.lookup("s", "fp", code_fp="c") is None


class TestServeResponse:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ServeResponse(id="x", kind="shrug")

    def test_roundtrip(self):
        r = ServeResponse(id="x", kind="ok", status="optimal", cost=7,
                          proven=True, warm=True)
        back = ServeResponse.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back == r


class TestServerVerdicts:
    def test_ok_optimal_matches_direct_solve(self, tmp_path):
        tasks, arch = feasible_system()
        oracle = solve(tasks, arch,
                       SolveRequest(objective=MinimizeTRT("ring")))

        async def main():
            server = await started_server(tmp_path)
            resp = await server.submit(payload_for(tasks, arch, id="r1"))
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp.kind == "ok"
        assert resp.status == "optimal"
        assert resp.proven
        assert resp.cost == oracle.cost

    def test_infeasible_is_typed_and_proven(self, tmp_path):
        tasks, arch = infeasible_system()

        async def main():
            server = await started_server(tmp_path)
            resp = await server.submit(payload_for(tasks, arch))
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp.kind == "infeasible"
        assert resp.proven

    def test_expired_deadline_is_typed(self, tmp_path):
        tasks, arch = feasible_system()

        async def main():
            server = await started_server(tmp_path)
            resp = await server.submit(
                payload_for(tasks, arch, deadline=1e-6)
            )
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp.kind == "deadline_exceeded"
        assert resp.cost is None  # never a silent partial answer

    def test_conflict_budget_exhaustion_is_typed(self, tmp_path):
        # One conflict is never enough for the initial SOLVE of this
        # system, so the search ends with nothing usable.
        from repro.workloads.scaling import ring_architecture, scaling_taskset

        tasks, arch = scaling_taskset(4, 16), ring_architecture(4)

        async def main():
            # bounds=off: the relaxation sidecar would hand the starved
            # search an audited witness and mask the exhaustion verdict.
            server = await started_server(tmp_path, bounds="off")
            resp = await server.submit(
                payload_for(tasks, arch, conflict_budget=1)
            )
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp.kind == "deadline_exceeded"

    def test_bad_payloads_are_typed_errors(self, tmp_path):
        tasks, arch = feasible_system()

        async def main():
            server = await started_server(tmp_path)
            r1 = await server.submit({"id": "no-system"})
            r2 = await server.submit(
                payload_for(tasks, arch, objective="nonsense")
            )
            await server.stop()
            return r1, r2

        r1, r2 = asyncio.run(main())
        assert r1.kind == "error" and "bad request" in r1.detail
        assert r2.kind == "error" and "nonsense" in r2.detail

    def test_oversized_system_shed_at_admission(self, tmp_path):
        tasks, arch = feasible_system()

        async def main():
            server = await started_server(tmp_path, max_tasks=1)
            resp = await server.submit(payload_for(tasks, arch))
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp.kind == "overloaded"
        assert "at most 1" in resp.detail

    def test_full_queue_sheds_with_retry_after(self, tmp_path):
        from repro.workloads.scaling import ring_architecture, scaling_taskset

        slow = payload_for(scaling_taskset(4, 16), ring_architecture(4))
        fast_tasks, fast_arch = feasible_system()
        fast = payload_for(fast_tasks, fast_arch)

        async def main():
            server = await started_server(tmp_path, queue_depth=1)
            t1 = asyncio.create_task(server.submit(dict(slow, id="slow")))
            # Wait until the slow solve is actually in flight.
            for _ in range(200):
                if server._inflight:
                    break
                await asyncio.sleep(0.01)
            t2 = asyncio.create_task(server.submit(dict(fast, id="queued")))
            await asyncio.sleep(0.05)
            shed = await server.submit(dict(fast, id="shed"))
            r1, r2 = await t1, await t2
            await server.stop()
            return r1, r2, shed

        r1, r2, shed = asyncio.run(main())
        assert r1.kind == "ok" and r2.kind == "ok"
        assert shed.kind == "overloaded"
        assert shed.retry_after is not None and shed.retry_after > 0

    def test_draining_server_rejects_new_work(self, tmp_path):
        tasks, arch = feasible_system()

        async def main():
            server = await started_server(tmp_path)
            await server.drain()
            resp = await server.submit(payload_for(tasks, arch))
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp.kind == "draining"
        assert resp.retry_after is not None


class TestWarmStarts:
    def test_repeat_request_is_warm_and_bit_identical(self, tmp_path):
        tasks, arch = feasible_system()

        async def main():
            server = await started_server(tmp_path)
            cold = await server.submit(payload_for(tasks, arch, id="cold"))
            warm = await server.submit(payload_for(tasks, arch, id="warm"))
            await server.stop()
            return cold, warm

        cold, warm = asyncio.run(main())
        assert cold.kind == warm.kind == "ok"
        assert not cold.warm and warm.warm
        # The warm envelope is bit-identical to the cold one.
        for f in ("cost", "proven", "status"):
            assert getattr(warm, f) == getattr(cold, f)
        # Identical system: the finished checkpoint re-certified the
        # optimum instead of re-searching.
        assert warm.resumed

    def test_perturbed_request_warm_envelope_matches_cold(self, tmp_path):
        base_tasks, arch = feasible_system()
        pert_tasks, _ = feasible_system(wcet=420)  # same name => scenario
        oracle = solve(pert_tasks, arch,
                       SolveRequest(objective=MinimizeTRT("ring")))

        async def main():
            server = await started_server(tmp_path)
            await server.submit(payload_for(base_tasks, arch, id="base"))
            resp = await server.submit(
                payload_for(pert_tasks, arch, id="perturbed")
            )
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp.kind == "ok"
        assert resp.warm and not resp.resumed
        assert (resp.cost, resp.proven, resp.status) == (
            oracle.cost, oracle.proven, oracle.status
        )

    def test_warm_hit_skips_the_annealing_walk(self, tmp_path,
                                               monkeypatch):
        import repro.core.api as api
        from repro.bounds import RelaxationBoundsProvider

        base_tasks, arch = feasible_system()
        pert_tasks, _ = feasible_system(wcet=420)  # same scenario
        calls = []
        real_solve = api.solve

        def tap(tasks, arch_, req):
            report = real_solve(tasks, arch_, req)
            calls.append((tasks, req, report))
            return report

        monkeypatch.setattr(api, "solve", tap)

        async def main():
            server = await started_server(tmp_path)
            await server.submit(payload_for(base_tasks, arch, id="base"))
            resp = await server.submit(
                payload_for(pert_tasks, arch, id="perturbed")
            )
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp.kind == "ok" and resp.warm
        tasks, req, report = calls[-1]
        outcome = _outcome(report)
        assert [p["provider"] for p in outcome.bounds["providers"]] == [
            "warm-cache", "relaxation:no-anneal",
        ]
        # The same request with the walk probes exactly the same way.
        walk = tuple(
            RelaxationBoundsProvider()
            if isinstance(p, RelaxationBoundsProvider) else p
            for p in req.bounds
        )
        with_walk = real_solve(tasks, arch, req.merged(
            bounds=walk, budget=None, checkpoint=None))
        assert [p["provider"] for p in
                _outcome(with_walk).bounds["providers"]] == [
            "warm-cache", "relaxation",
        ]

        def probes(o):
            return [(p.lo, p.hi, p.sat, p.cost, p.origin) for p in o.probes]

        assert probes(_outcome(with_walk)) == probes(outcome)

    def test_trusted_witness_skips_probing_bit_identical(self):
        # API-level contract behind the server's warm path: a cached
        # allocation that still passes the independent analysis lets the
        # search close with a single UNSAT(cost-1) probe, yet the
        # envelope stays bit-identical to a cold solve.
        from repro.bounds import HintBoundsProvider
        from repro.io import allocation_to_dict

        tasks, arch = feasible_system()
        req = SolveRequest(objective=MinimizeTRT("ring"))
        cold = solve(tasks, arch, req)
        warm = solve(tasks, arch, req.merged(bounds=(
            HintBoundsProvider(
                upper=cold.cost,
                witness=allocation_to_dict(cold.allocation),
                name="warm-cache",
            ),
        )))
        assert (warm.cost, warm.proven, warm.status) == (
            cold.cost, cold.proven, cold.status
        )
        assert len(warm.result.outcome.probes) == 1
        assert not warm.result.outcome.probes[0].sat
        # The served allocation is the audited witness, re-verified.
        assert warm.allocation is not None
        assert warm.result.verification.schedulable

    def test_garbage_witness_is_ignored(self):
        from repro.bounds import HintBoundsProvider

        tasks, arch = feasible_system()
        req = SolveRequest(objective=MinimizeTRT("ring"))
        cold = solve(tasks, arch, req)
        warm = solve(tasks, arch, req.merged(bounds=(
            HintBoundsProvider(
                upper=cold.cost,
                witness={"task_ecu": {"no-such-task": "nowhere"}},
            ),
        )))
        # Malformed witness: no shortcut, but the plain hint still
        # applies and the answer is unchanged.
        assert (warm.cost, warm.proven, warm.status) == (
            cold.cost, cold.proven, cold.status
        )

    def test_certified_warm_witness_keeps_sat_audit(self):
        from repro.bounds import HintBoundsProvider
        from repro.io import allocation_to_dict

        tasks, arch = feasible_system()
        req = SolveRequest(objective=MinimizeTRT("ring"))
        cold = solve(tasks, arch, req)
        warm = solve(tasks, arch, req.merged(certify=True, bounds=(
            HintBoundsProvider(
                upper=cold.cost,
                witness=allocation_to_dict(cold.allocation),
            ),
        )))
        assert warm.cost == cold.cost and warm.proven
        cert = warm.certificate
        assert cert is not None and cert.all_verified
        # The certificate must audit the served model, not just the
        # UNSAT fence: a certified run keeps the [R, R] probe.
        assert any(p.kind == "sat" for p in cert.probes)

    def test_warm_kwargs_removed_with_migration_hint(self):
        # The deprecated warm kwargs are gone: constructing a request
        # with them raises TypeError.
        with pytest.raises(TypeError):
            SolveRequest(warm_start=7)
        with pytest.raises(TypeError):
            SolveRequest(warm_allocation={"task_ecu": {}})

    def test_code_fingerprint_change_defeats_cache(self, tmp_path,
                                                   monkeypatch):
        tasks, arch = feasible_system()

        async def main():
            server = await started_server(tmp_path)
            first = await server.submit(payload_for(tasks, arch, id="a"))
            monkeypatch.setattr(
                "repro.fabric.jobs.code_fingerprint", lambda: "deadbeef"
            )
            second = await server.submit(payload_for(tasks, arch, id="b"))
            await server.stop()
            return first, second

        first, second = asyncio.run(main())
        assert first.kind == second.kind == "ok"
        # New code fingerprint: neither the warm cache nor the
        # checkpoint recorded under the old code may be reused.
        assert not second.warm
        assert not second.resumed
        assert second.cost == first.cost


class TestSharedCheckpoint:
    def test_identical_inflight_requests_share_one_checkpoint(
            self, tmp_path, monkeypatch):
        """Two identical requests in flight at once map to one checkpoint
        path.  One search writes it; the other runs unpersisted; both
        answer the oracle envelope and the file scans undamaged."""
        import threading

        import repro.core.api as api
        from repro.robust import SearchCheckpoint
        from repro.robust.checkpoint import _FORMAT
        from repro.robust.records import scan_file

        tasks, arch = feasible_system()
        oracle = solve(tasks, arch, SolveRequest(objective=MinimizeTRT("ring")))
        both_in = threading.Barrier(2, timeout=30)
        reports = []
        real_solve = api.solve
        real_save = SearchCheckpoint.save

        def tap(tasks_, arch_, req):
            both_in.wait()  # neither search starts before the other
            report = real_solve(tasks_, arch_, req)
            reports.append(report)
            return report

        def slow_save(self, path=None):
            real_save(self, path)
            time.sleep(0.05)  # hold the file while the other saves

        monkeypatch.setattr(api, "solve", tap)
        monkeypatch.setattr(SearchCheckpoint, "save", slow_save)

        async def main():
            server = await started_server(tmp_path, workers=2)
            out = await asyncio.gather(*(
                server.submit(payload_for(tasks, arch, id=f"r{i}"))
                for i in range(2)
            ))
            await server.stop()
            return out, server.checkpoint_dir

        responses, ckpt_dir = asyncio.run(main())
        for resp in responses:
            assert resp.kind == "ok" and not resp.warm
            assert (resp.cost, resp.proven, resp.status) == (
                oracle.cost, oracle.proven, oracle.status)
        outcomes = [_outcome(r) for r in reports]
        assert sorted(o.checkpoint_disabled for o in outcomes) == [
            False, True]
        (name,) = os.listdir(ckpt_dir)
        path = os.path.join(ckpt_dir, name)
        scan = scan_file(path, _FORMAT)
        assert not scan.damaged and scan.records
        back = SearchCheckpoint.load(path)
        assert back.finished and back.right == oracle.cost


class TestForgedCheckpoint:
    def test_refuted_optimum_is_quarantined_not_a_breaker_failure(
            self, tmp_path):
        """A stored checkpoint whose recorded optimum the constraints
        refute is answered with a typed error: the file is quarantined,
        the breaker is not charged, and a resubmission solves afresh."""
        from repro.robust import SearchCheckpoint

        tasks, arch = feasible_system()
        oracle = solve(tasks, arch, SolveRequest(objective=MinimizeTRT("ring")))
        failures = []

        async def main():
            server = await started_server(tmp_path)
            server.breaker.record_failure = (
                lambda reason, backend=None: failures.append(reason))
            first = await server.submit(payload_for(tasks, arch, id="r1"))
            (name,) = os.listdir(server.checkpoint_dir)
            path = os.path.join(server.checkpoint_dir, name)
            forged = SearchCheckpoint.load(path)
            forged.left = forged.right = 100
            forged.save()
            forged.close()
            refused = await server.submit(payload_for(tasks, arch, id="r2"))
            moved = os.path.exists(path + ".quarantined")
            again = await server.submit(payload_for(tasks, arch, id="r3"))
            await server.stop()
            return first, refused, moved, again

        first, refused, moved, again = asyncio.run(main())
        assert first.kind == "ok" and first.cost == oracle.cost == 160
        assert refused.kind == "error"
        assert "quarantined" in refused.detail
        assert "optimum 100" in refused.detail
        assert moved
        assert failures == []
        assert again.kind == "ok"
        assert (again.cost, again.proven, again.status) == (
            oracle.cost, oracle.proven, oracle.status)
        assert not again.resumed


class TestTcpFrontEnd:
    def test_roundtrip_and_pipelining(self, tmp_path):
        tasks, arch = feasible_system()
        p = payload_for(tasks, arch, deadline=30)

        async def main():
            server = await started_server(tmp_path, workers=2)
            host, port = await server.start_tcp("127.0.0.1", 0)
            one = await request(host, port, dict(p, id="one"), timeout=60)
            many = await asyncio.to_thread(
                request_many_sync, host, port,
                [dict(p), dict(p), {"id": "bad"}],
            )
            await server.stop()
            return one, many

        one, many = asyncio.run(main())
        assert one.kind == "ok" and one.id == "one"
        assert [r.kind for r in many] == ["ok", "ok", "error"]

    def test_malformed_line_answered_not_dropped(self, tmp_path):
        async def main():
            server = await started_server(tmp_path)
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 30)
            writer.close()
            await server.stop()
            return json.loads(line)

        resp = asyncio.run(main())
        assert resp["kind"] == "error"
        assert "bad request line" in resp["detail"]

    def test_in_limit_oversized_frame_answered_not_closed(self, tmp_path):
        """A frame over ``max_frame_bytes`` but under the stream limit
        gets a typed error, and the connection keeps serving."""
        async def main():
            server = await started_server(tmp_path, max_frame_bytes=512)
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"x" * 700 + b"\n")
            await writer.drain()
            first = json.loads(await asyncio.wait_for(reader.readline(), 30))
            # Same connection: an in-limit frame is still served (the
            # framing survived, so the handler did not close).
            writer.write(b"still not json\n")
            await writer.drain()
            second = json.loads(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await server.stop()
            return first, second

        first, second = asyncio.run(main())
        assert first["kind"] == "error"
        assert "exceeds the 512-byte limit" in first["detail"]
        assert second["kind"] == "error"
        assert "bad request line" in second["detail"]

    def test_stream_limit_overrun_answered_then_closed(self, tmp_path):
        """A frame that overruns the stream limit itself cannot be
        framed reliably: typed error, then the server closes."""
        async def main():
            server = await started_server(tmp_path, max_frame_bytes=2048)
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"y" * 100_000 + b"\n")
            await writer.drain()
            first = json.loads(await asyncio.wait_for(reader.readline(), 30))
            rest = await asyncio.wait_for(reader.read(), 30)
            writer.close()
            await server.stop()
            return first, rest

        first, rest = asyncio.run(main())
        assert first["kind"] == "error"
        assert "closing connection" in first["detail"]
        assert rest == b""  # EOF: the server hung up after answering

    def test_read_timeout_closes_stalled_connection(self, tmp_path):
        async def main():
            server = await started_server(tmp_path, read_timeout=0.2)
            host, port = await server.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            # Send nothing: the slow-client guard must fire on its own.
            first = json.loads(await asyncio.wait_for(reader.readline(), 30))
            rest = await asyncio.wait_for(reader.read(), 30)
            writer.close()
            await server.stop()
            return first, rest

        first, rest = asyncio.run(main())
        assert first["kind"] == "error"
        assert "stalled connection" in first["detail"]
        assert rest == b""


class TestServeGovernor:
    def test_mem_watermark_sheds_admission_typed(self, tmp_path):
        """Past the shed watermark, new submissions get a typed
        ``overloaded`` (with retry_after), never a queue timeout."""
        tasks, arch = feasible_system()
        p = payload_for(tasks, arch, deadline=30)

        async def main():
            server = await started_server(
                tmp_path, mem_watermark=1_000_000
            )
            # Pin reported memory far past the watermark.
            server.governor.add_memory_source(
                "test-ballast", lambda: 10_000_000
            )
            resp = await server.submit(dict(p, id="shed-me"))
            status = server.status()
            await server.stop()
            return resp, status

        resp, status = asyncio.run(main())
        assert resp.kind == "overloaded"
        assert resp.retry_after is not None
        assert "memory watermark" in resp.detail
        assert status["stats"]["shed"] >= 1
        assert status["governor"]["mem_watermark"] == 1_000_000
        responses = status["governor"]["responses"]
        assert responses.get("shed", 0) + responses.get("cancel", 0) >= 1

    def test_governor_off_by_default(self, tmp_path):
        async def main():
            server = await started_server(tmp_path)
            status = server.status()
            await server.stop()
            return server, status

        server, status = asyncio.run(main())
        assert server.governor is None
        assert status["governor"] is None
