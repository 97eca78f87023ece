"""The benchmark's two closed-loop workloads.

Each workload drives the program through its public entry points with
one client and one request in flight.  Its instance pool is fixed, so
every seed does the same work and the exact counts repeat from run to
run; the seed only orders the requests inside each cycle.  That keeps
the spread of the timings down to host noise.

- ``sweep-ring``: inline ``repro.fabric.fabric_sweep`` over random
  task sets on a 3-ECU token ring, uncertified, no bounds providers, no
  time limit.  Chosen as the solver-bound control: CDCL search is most
  of each cell, so encoder and certify changes must leave it unchanged.
- ``serve-replay``: an in-process ``AllocationServer`` with its default
  config, driven over TCP by ``repro.serve.client``: each scenario is
  sent cold, then as WCET-perturbed variants that hit the warm cache,
  and one scenario asks for certification.  Chosen because it exercises
  admission, the JSON codec, the bounds sidecar, warm-cache witness
  audits and checkpoints, and closes warm hits with one confirm probe;
  the certified scenario puts DRUP proof checking of every probe (and
  the certifier's audit probe) under measure.  A certified table-4
  workload was tried and left out: its timings followed host speed too
  closely to hold the benchmark's bounds from one set of runs to the
  next.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import json
import os
import time
from dataclasses import dataclass, field

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned.json")

#: Exact counts recorded per request; they must repeat in every run.
COUNT_KEYS = (
    "cnf_clauses", "probes", "conflicts", "propagations",
    "proof_steps_checked", "warm_hits", "checkpoint_saves",
)


@dataclass
class Answer:
    """One request's outcome as the client saw it."""

    key: str
    latency: float
    problems: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: Solver search seconds (for propagations per second).
    sat_seconds: float = 0.0
    #: Seconds the server reports for the solve (serve-replay only).
    server_seconds: float | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def load_pinned(workload: str) -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)[workload]


def result_counts(res, warm_hits: int = 0, checkpoint_saves: int = 0
                  ) -> dict:
    """Exact counts of one :class:`AllocationResult`."""
    cert = res.certificate
    return {
        "cnf_clauses": res.formula_size.get("clauses", 0),
        "probes": res.outcome.num_probes if res.outcome else 0,
        "conflicts": res.solver_stats.get("conflicts", 0),
        "propagations": res.solver_stats.get("propagations", 0),
        "proof_steps_checked": cert.proof_steps_checked if cert else 0,
        "warm_hits": warm_hits,
        "checkpoint_saves": checkpoint_saves,
    }


def envelope_problems(pinned: dict, key: str, cost, proven, status
                      ) -> list[str]:
    want = pinned.get(key)
    got = {"cost": cost, "proven": proven, "status": status}
    if want is None:
        return [f"{key}: no pinned envelope"]
    if got != want:
        return [f"{key}: envelope {got} != pinned {want}"]
    return []


def audit_problems(key, tasks, arch, alloc, objective, cost) -> list[str]:
    """The independent analysis' verdict on a served allocation."""
    from repro.certify.audit import audit_witness

    report = audit_witness(tasks, arch, alloc, objective=objective,
                           claimed_cost=cost)
    return [f"{key}: audit: {p}" for p in report.problems]


class Workload:
    """A fixed instance pool plus how one cycle of it is requested."""

    name = ""
    #: Wall seconds of one cycle on a 2-CPU x86-64 host; maps the
    #: run length to a whole number of cycles.
    cycle_seconds = 1.0
    certify = False
    bounds_mode = "off"

    def setup(self, run_dir: str):
        """Build the inputs (and start what serves them); timed."""
        raise NotImplementedError

    def groups(self, state) -> list[list[int]]:
        """Request indices grouped so that the seed may permute the
        groups but never reorder inside one."""
        return [[i] for i in range(len(state["keys"]))]

    def warmup(self, state, run_dir: str) -> None:
        raise NotImplementedError

    def run_cycle(self, state, order: list[int], cycle_dir: str, tracer
                  ) -> tuple[list[Answer], dict]:
        raise NotImplementedError


def _request_span(tracer, key: str):
    """The request's root span in the traced pass; nothing otherwise."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.request_id = key
    return tracer.span("request")


class SweepRing(Workload):
    name = "sweep-ring"
    cycle_seconds = 12.5

    #: (total utilization, task-set seed) of the pinned cells: the CLI
    #: sweep's default 3-ECU/6-task shape, 6-10 probes and ~1-2k
    #: conflicts per cell.
    CELLS = ((0.6, 0), (0.6, 1), (0.6, 3), (1.2, 0), (1.2, 3), (1.8, 0),
             (1.8, 2), (1.8, 3))
    ECUS = 3
    TASKS = 6

    def setup(self, run_dir: str):
        from repro.core import SolveRequest
        from repro.core.objectives import objective_from_spec
        from repro.fabric import fabric_sweep
        from repro.workloads import random_taskset, ring_architecture

        arch = ring_architecture(self.ECUS)
        request = SolveRequest(
            objective=objective_from_spec("sum_resp"), time_limit=None,
            bounds=(), bounds_mode="off",
        )

        def cell(util, seed, tasks=self.TASKS):
            return (f"u{util}-s{seed}",
                    random_taskset(arch, tasks, total_util=util, seed=seed))

        pool = [cell(u, s) for u, s in self.CELLS]
        return {"keys": [k for k, _ in pool], "pool": pool, "arch": arch,
                "request": request, "warmup": [cell(0.9, 99, tasks=4)],
                "fabric_sweep": fabric_sweep,
                "pinned": load_pinned(self.name)}

    def _sweep(self, state, pool, order, fabric_dir, tracer, pinned):
        from repro.core import Allocator

        arch, request = state["arch"], state["request"]
        solved: dict[int, tuple] = {}
        gc_seconds = 0.0

        def run_cell(param):
            nonlocal gc_seconds
            i = param[0]
            key, tasks = pool[i]
            g0 = time.perf_counter()
            gc.collect()
            gc_seconds += time.perf_counter() - g0
            with _request_span(tracer, key):
                t0 = time.perf_counter()
                res = Allocator(tasks, arch).minimize(request=request)
                latency = time.perf_counter() - t0
            solved[i] = (res, latency)
            return {"cost": res.cost, "proven": res.proven,
                    "status": res.status}

        t0 = time.perf_counter()
        params = [[i, pool[i][0]] for i in order]
        out = state["fabric_sweep"](run_cell, params, fabric_dir=fabric_dir,
                                    workers=0)
        wall = time.perf_counter() - t0
        answers = []
        for i, sweep_result in zip(order, out.results):
            key, tasks = pool[i]
            if i not in solved:
                answers.append(Answer(key=key, latency=0.0, problems=[
                    f"{key}: cell not run ({sweep_result.error})"]))
                continue
            res, latency = solved[i]
            problems = []
            if pinned is not None:
                value = sweep_result.value or {}
                problems += envelope_problems(
                    pinned, key, value.get("cost"), value.get("proven"),
                    value.get("status"))
                problems += audit_problems(key, tasks, arch, res.allocation,
                                           request.objective, res.cost)
            answers.append(Answer(
                key=key, latency=latency, problems=problems,
                counts=result_counts(res),
                sat_seconds=res.solver_stats.get("solve_seconds", 0.0),
            ))
        overhead = wall - gc_seconds - sum(a.latency for a in answers)
        return answers, {"fabric_overhead_s": overhead,
                         "cells_restored": out.stats.get("restored", 0)}

    def warmup(self, state, run_dir: str) -> None:
        self._sweep(state, state["warmup"], [0],
                    os.path.join(run_dir, "warmup-fabric"), None, None)

    def run_cycle(self, state, order, cycle_dir, tracer):
        return self._sweep(state, state["pool"], order,
                           os.path.join(cycle_dir, "fabric"), tracer,
                           state["pinned"])


def _perturbed(base, i: int):
    """Variant ``i``: the first task's WCETs drift up by ``1 + i``."""
    from repro.model.task import TaskSet

    tasks = [
        dataclasses.replace(t, wcet={k: v + 1 + i for k, v in t.wcet.items()})
        if j == 0 else t
        for j, t in enumerate(base)
    ]
    return TaskSet(tasks, name=base.name)


class ServeReplay(Workload):
    name = "serve-replay"
    cycle_seconds = 16.5
    bounds_mode = "auto"

    #: (ring ECUs, tasks, certify) of each ``trt:ring`` scenario.  Their
    #: requests take about the same time, so ``latency_p50_s`` lands
    #: among requests of every scenario, spread over the whole run,
    #: instead of on the few in the middle of a wide mix.
    SCENARIOS = ((4, 14, False), (5, 16, False), (6, 16, False),
                 (5, 10, True))
    VARIANTS = 2
    OBJECTIVE = "trt:ring"

    @staticmethod
    def _scenario(ecus: int, ntasks: int, certify: bool) -> str:
        return f"ring{ecus}-t{ntasks}" + ("-cert" if certify else "")

    @property
    def certify(self) -> list[str]:
        """The scenarios whose requests ask for certification."""
        return [self._scenario(*s) for s in self.SCENARIOS if s[2]]

    def setup(self, run_dir: str):
        from repro.core.objectives import objective_from_spec
        from repro.io.json_codec import system_to_dict
        from repro.workloads.scaling import ring_architecture, scaling_taskset

        requests = []
        groups = []
        for ecus, ntasks, certify in self.SCENARIOS:
            arch = ring_architecture(ecus)
            base = scaling_taskset(ecus, ntasks)
            scenario = self._scenario(ecus, ntasks, certify)
            systems = [("cold", base)] + [
                (f"v{i}", _perturbed(base, i)) for i in range(self.VARIANTS)
            ]
            group = []
            for label, tasks in systems:
                key = f"{scenario}/{label}"
                group.append(len(requests))
                requests.append({
                    "key": key, "tasks": tasks, "arch": arch,
                    "warm": label != "cold", "certify": certify,
                    "payload": {
                        "scenario": scenario,
                        "system": system_to_dict(tasks, arch),
                        "objective": self.OBJECTIVE,
                        "certify": certify,
                        "return_allocation": True,
                    },
                })
            groups.append(group)
        warm_arch = ring_architecture(2)
        warm_tasks = scaling_taskset(2, 4)
        state = {
            "keys": [r["key"] for r in requests], "requests": requests,
            "groups": groups, "objective": objective_from_spec(
                self.OBJECTIVE),
            "warmup": [{
                "key": "warmup", "tasks": warm_tasks, "arch": warm_arch,
                "warm": False, "certify": True,
                "payload": {"scenario": "warmup",
                            "system": system_to_dict(warm_tasks, warm_arch),
                            "objective": self.OBJECTIVE,
                            "certify": True,
                            "return_allocation": True},
            }],
            "pinned": load_pinned(self.name),
        }
        # Bring one server up to listening and down again: the cost a
        # deployment pays before its first request.
        asyncio.run(self._start_stop(os.path.join(run_dir, "setup-state")))
        return state

    @staticmethod
    async def _start_stop(state_dir: str) -> None:
        from repro.serve import AllocationServer, ServeConfig

        server = AllocationServer(ServeConfig(state_dir=state_dir))
        await server.start()
        await server.start_tcp("127.0.0.1", 0)
        await server.stop()

    def groups(self, state):
        return state["groups"]

    def run_cycle(self, state, order, cycle_dir, tracer):
        return asyncio.run(self._cycle(state, state["requests"], order,
                                       cycle_dir, tracer, state["pinned"]))

    def warmup(self, state, run_dir: str) -> None:
        asyncio.run(self._cycle(state, state["warmup"], [0],
                                os.path.join(run_dir, "warmup"), None, None))

    async def _cycle(self, state, requests, order, state_dir, tracer, pinned):
        import repro.core.api as api
        from repro.io.json_codec import allocation_from_dict
        from repro.serve import AllocationServer, ServeConfig
        from repro.serve.client import request as send

        # Pass-through tap on the server's solve entry point: it keeps
        # the last report so the exact counts can be read afterwards.
        reports = []
        solve = api.solve

        def tapped(tasks, arch, req):
            report = solve(tasks, arch, req)
            reports.append(report)
            return report

        server = AllocationServer(ServeConfig(state_dir=state_dir))
        await server.start()
        host, port = await server.start_tcp("127.0.0.1", 0)
        ckpt_dir = server.checkpoint_dir
        api.solve = tapped
        answers = []
        saves_before = 0
        try:
            for i in order:
                r = requests[i]
                key = r["key"]
                payload = dict(r["payload"], id=key)
                reports.clear()
                gc.collect()
                with _request_span(tracer, key):
                    t0 = time.perf_counter()
                    resp = await send(host, port, payload, timeout=600)
                    latency = time.perf_counter() - t0
                saves = _checkpoint_generations(ckpt_dir)
                saves_delta, saves_before = saves - saves_before, saves
                problems = []
                counts = {k: 0 for k in COUNT_KEYS}
                sat_seconds = 0.0
                res = None
                if reports and reports[-1].result is not None:
                    res = reports[-1].result.result
                if res is not None:
                    counts = result_counts(
                        res, warm_hits=int(resp.warm),
                        checkpoint_saves=saves_delta)
                    sat_seconds = res.solver_stats.get("solve_seconds", 0.0)
                if pinned is not None:
                    if resp.kind != "ok":
                        problems.append(
                            f"{key}: {resp.kind}: {resp.detail}")
                    if r["certify"] and (
                            resp.certified is not True or res is None
                            or res.certificate is None
                            or not res.certificate.all_verified):
                        problems.append(f"{key}: certificate not all "
                                        f"verified")
                    if resp.warm != r["warm"]:
                        problems.append(f"{key}: warm={resp.warm}, "
                                        f"expected {r['warm']}")
                    problems += envelope_problems(
                        pinned, key, resp.cost, resp.proven, resp.status)
                    if resp.allocation is None:
                        problems.append(f"{key}: no allocation returned")
                    else:
                        problems += audit_problems(
                            key, r["tasks"], r["arch"],
                            allocation_from_dict(resp.allocation),
                            state["objective"], resp.cost)
                answers.append(Answer(
                    key=key, latency=latency, problems=problems,
                    counts=counts, sat_seconds=sat_seconds,
                    server_seconds=resp.seconds,
                ))
        finally:
            api.solve = solve
            await server.stop()
        return answers, {}


def _checkpoint_generations(ckpt_dir: str) -> int:
    """Total saves recorded by the checkpoints in ``ckpt_dir``."""
    from repro.robust.checkpoint import SearchCheckpoint

    total = 0
    for name in sorted(os.listdir(ckpt_dir)):
        if name.endswith(".json"):
            total += SearchCheckpoint.load(
                os.path.join(ckpt_dir, name)).generation
    return total


WORKLOADS = {w.name: w for w in (SweepRing(), ServeReplay())}
