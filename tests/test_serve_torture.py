"""Fault-injection torture of the allocation server.

The contract under test: **every request gets exactly one typed
terminal response**, no matter what the ``serve.*`` chaos sites inject
-- accept faults, queue faults, cache faults, worker faults, drain
faults -- and a drained server's in-flight searches are checkpointed so
a restarted server resumes them to the fault-free optimum.

All schedules are pinned (seeded or profile-based), so failures here
reproduce byte-for-byte; see docs/ROBUSTNESS.md section 8.
"""

import asyncio
import json
import os

import pytest

from repro.chaos import SITES, ChaosSchedule
from repro.core import MinimizeTRT
from repro.core.api import SolveRequest, solve
from repro.io.json_codec import system_to_dict
from repro.serve import AllocationServer, ServeConfig
from repro.serve.responses import TERMINAL_KINDS
from repro.workloads.scaling import ring_architecture, scaling_taskset

SERVE_SITES = tuple(s for s in SITES if s.startswith("serve."))


def tiny_payload(**extra):
    from tests.test_serve import feasible_system

    tasks, arch = feasible_system()
    out = {"system": system_to_dict(tasks, arch), "objective": "trt:ring"}
    out.update(extra)
    return out


class TestTypedResponseInvariant:
    def test_all_serve_sites_are_registered(self):
        assert SERVE_SITES == (
            "serve.accept", "serve.queue", "serve.cache",
            "serve.worker", "serve.drain",
        )

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_pinned_seed_chaos_one_typed_response_each(self, tmp_path, seed):
        sched = ChaosSchedule.from_seed(
            seed, str(tmp_path / "chaos"), sites=SERVE_SITES,
            hang_seconds=0.05,
        )

        async def main():
            server = AllocationServer(ServeConfig(
                state_dir=str(tmp_path / "state"), workers=2, chaos=sched,
            ))
            await server.start()
            payloads = [tiny_payload(id=f"r{i}") for i in range(6)]
            payloads.append(tiny_payload(id="late", deadline=1e-6))
            payloads.append({"id": "broken"})  # no system at all
            resps = await asyncio.wait_for(
                asyncio.gather(*(server.submit(p) for p in payloads)),
                timeout=90,
            )
            await server.stop()
            return resps

        resps = asyncio.run(main())
        assert len(resps) == 8
        by_id = {r.id: r for r in resps}
        assert len(by_id) == 8  # exactly one response per request
        for r in resps:
            assert r.kind in TERMINAL_KINDS, r
        assert by_id["broken"].kind == "error"
        assert by_id["late"].kind in ("deadline_exceeded", "error",
                                      "draining")
        # Any request that got a full answer got the *right* answer.
        oracle = None
        for r in resps:
            if r.kind == "ok" and r.status == "optimal":
                if oracle is None:
                    from tests.test_serve import feasible_system

                    tasks, arch = feasible_system()
                    oracle = solve(
                        tasks, arch,
                        SolveRequest(objective=MinimizeTRT("ring")),
                    ).cost
                assert r.cost == oracle

    def test_serve_profile_faults_fire_and_stay_typed(self, tmp_path):
        sched = ChaosSchedule.from_profile(
            "serve", str(tmp_path / "chaos"), hang_seconds=0.05
        )

        async def main():
            server = AllocationServer(ServeConfig(
                state_dir=str(tmp_path / "state"), workers=1, chaos=sched,
            ))
            await server.start()
            resps = []
            for i in range(5):
                resps.append(await asyncio.wait_for(
                    server.submit(tiny_payload(id=f"p{i}")), timeout=60,
                ))
            await server.stop()
            return resps

        resps = asyncio.run(main())
        assert [r.id for r in resps] == [f"p{i}" for i in range(5)]
        for r in resps:
            assert r.kind in TERMINAL_KINDS, r
        # The profile's early triggers definitely executed: the chaos
        # event log records the injections.
        events = [
            json.loads(line)
            for line in open(sched.event_log_path, encoding="utf-8")
        ]
        fired_sites = {e["site"] for e in events}
        assert fired_sites & set(SERVE_SITES)
        # The injected faults surfaced as typed errors, not as answers
        # silently dropped: every id above resolved exactly once.
        assert any(r.kind == "error" for r in resps)

    def test_server_survives_chaos_and_recovers(self, tmp_path):
        sched = ChaosSchedule.from_profile(
            "serve", str(tmp_path / "chaos"), hang_seconds=0.05
        )

        async def main():
            server = AllocationServer(ServeConfig(
                state_dir=str(tmp_path / "state"), workers=1, chaos=sched,
            ))
            await server.start()
            for i in range(8):  # burn through every scheduled fault
                await server.submit(tiny_payload(id=f"burn{i}"))
            healthy = await server.submit(tiny_payload(id="after"))
            await server.stop()
            return healthy

        healthy = asyncio.run(main())
        assert healthy.kind == "ok"
        assert healthy.status == "optimal"


class TestDrainAndResume:
    def test_budget_interrupt_then_restart_resumes_to_oracle(self, tmp_path):
        from repro.core.template import TemplateSlot

        arch = ring_architecture(4)
        tasks = scaling_taskset(4, 16)
        # Calibrated on the encoding the server runs: parameter mode.
        report = solve(tasks, arch,
                       SolveRequest(objective=MinimizeTRT("ring"),
                                    template=TemplateSlot()))
        probes = report.result.outcome.probes
        cum, cums = 0, []
        for p in probes:
            cum += p.conflicts
            cums.append(cum)
        assert cums[-1] > cums[0], "instance too easy to interrupt"
        budget = (cums[0] + cums[-1]) // 2  # past probe 1, short of done
        payload = {
            "system": system_to_dict(tasks, arch), "objective": "trt:ring",
        }
        state = str(tmp_path / "state")

        # bounds=off throughout: the relaxation sidecar would prove the
        # optimum without SAT work and defeat the interruption setup.
        async def first():
            server = AllocationServer(ServeConfig(state_dir=state,
                                                  workers=1, bounds="off"))
            await server.start()
            r = await server.submit(
                dict(payload, id="cut", conflict_budget=budget)
            )
            await server.stop()
            return r

        async def second():
            server = AllocationServer(ServeConfig(state_dir=state,
                                                  workers=1, bounds="off"))
            await server.start()
            r = await server.submit(dict(payload, id="resume"))
            await server.stop()
            return r

        cut = asyncio.run(first())
        # The interrupted solve is typed: either an honest anytime bound
        # or a clean budget-exhausted verdict -- never a fake optimum.
        if cut.kind == "ok":
            assert cut.status == "upper_bound" and not cut.proven
        else:
            assert cut.kind == "deadline_exceeded"
        ckdir = os.path.join(state, "checkpoints")
        assert os.listdir(ckdir), "interrupted search left no checkpoint"

        resumed = asyncio.run(second())
        assert resumed.kind == "ok"
        assert resumed.status == "optimal" and resumed.proven
        assert resumed.cost == report.cost
        assert resumed.resumed  # continued the recorded search

    def test_wall_drain_types_response_and_restart_finds_oracle(
        self, tmp_path
    ):
        arch = ring_architecture(5)
        tasks = scaling_taskset(5, 20)
        oracle = solve(tasks, arch,
                       SolveRequest(objective=MinimizeTRT("ring")))
        payload = {
            "system": system_to_dict(tasks, arch), "objective": "trt:ring",
        }
        state = str(tmp_path / "state")

        async def drained():
            server = AllocationServer(ServeConfig(state_dir=state,
                                                  workers=1))
            await server.start()
            fut = asyncio.create_task(server.submit(dict(payload, id="d")))
            for _ in range(300):  # wait until the solve is in flight
                if server._inflight:
                    break
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)
            await server.stop()  # SIGTERM path: drain + close
            return await fut

        r = asyncio.run(drained())
        assert r.kind in ("draining", "ok")
        if r.kind == "ok":  # solver won the race: must be the real thing
            assert r.status in ("optimal", "upper_bound")

        async def restarted():
            server = AllocationServer(ServeConfig(state_dir=state,
                                                  workers=1))
            await server.start()
            out = await server.submit(dict(payload, id="d2"))
            await server.stop()
            return out, server.events_path

        out, events_path = asyncio.run(restarted())
        assert out.kind == "ok"
        assert out.status == "optimal" and out.proven
        assert out.cost == oracle.cost

        # The flight recorder on the shared state dir shows the whole
        # story: both server lifecycles, the drain, the final answer.
        events = [
            json.loads(line) for line in open(events_path, encoding="utf-8")
        ]
        names = [e["event"] for e in events]
        assert names.count("server.start") == 2
        assert "drain.start" in names and "drain.end" in names
        done = [e for e in events if e["event"] == "request.done"]
        assert {e["id"] for e in done} == {"d", "d2"}
