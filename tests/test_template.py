"""Encoding templates: parameter-mode encodings recorded once and
replayed for systems of the same shape (:mod:`repro.core.template`).

- replay plus the WCET units leaves exactly the engine state a fresh
  parameter-mode encoding leaves (clause database, variables, tags, PB
  constraints);
- a served warm hit replays and answers what a concrete cold solve
  answers, certified hits included;
- any change beyond the WCET values' bit widths is a new shape, which
  re-encodes and replaces the template;
- templates live on warm-cache entries only: the byte cap and ``shrink``
  drop them first, and they die with their server;
- one template replays into concurrent solves with identical results.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import threading
from types import SimpleNamespace

import pytest

from repro.core import Allocator, MinimizeTRT, SolveRequest
from repro.core.config import EncoderConfig
from repro.core.objectives import (
    MinimizeMaxUtilization,
    MinimizeSumResponseTimes,
    objective_from_spec,
)
from repro.core.template import TemplateSlot, template_shape
from repro.io.json_codec import system_to_dict
from repro.model import Architecture, Ecu, Medium, TOKEN_RING, Task, TaskSet
from repro.model.task import Message
from repro.serve import AllocationServer, ServeConfig
from repro.serve.cache import TEMPLATE_BYTES_CAP, WarmCache
from repro.workloads.scaling import ring_architecture, scaling_taskset

#: The served ``trt:ring`` scenario shapes of the benchmark.
SHAPES = ("ring4-t14", "ring5-t16", "ring6-t16", "ring5-t10")


def _shape(name: str):
    ecus, tasks = name[4:].split("-t")
    return (scaling_taskset(int(ecus), int(tasks)),
            ring_architecture(int(ecus)))


def _with_task(tasks: TaskSet, index: int, **changes) -> TaskSet:
    out = [dataclasses.replace(t, **changes) if j == index else t
           for j, t in enumerate(tasks)]
    return TaskSet(out, name=tasks.name)


def _perturbed(tasks: TaskSet, delta: int) -> TaskSet:
    """The first task's WCETs raised by ``delta`` (a served warm hit)."""
    first = next(iter(tasks))
    return _with_task(tasks, 0, wcet={k: v + delta
                                      for k, v in first.wcet.items()})


def _encode(tasks, arch, objective, slot, config=None):
    alloc = Allocator(tasks, arch, config)
    shape = template_shape(tasks, arch, objective, alloc.config)
    return alloc._encode(objective, slot, shape)


def _engine_state(sat) -> tuple:
    h = hashlib.sha256()
    for arr in (sat.arena, sat.cla_off, sat.watch_head, sat.watch_next,
                sat.order_heap, sat.activity, sat.pb_lits, sat.pb_coefs,
                sat.pb_off, sat.pb_watch_head, sat.pb_watch_next):
        h.update(arr.tobytes())
    h.update(sat.trail[: sat.trail_n].tobytes())
    pbs = [(p.lits, p.coefs, p.bound, p.tag) for p in sat.pbs]
    return (h.hexdigest(), sat.nvars, sat.num_clauses(), sat.ok,
            sat.tag_counts(), sorted(sat.cla_tag.items()), pbs)


def _replays(enc) -> int:
    return enc.encode_stats()["template_replays"]


def _memory_system():
    """Two ECUs with memory capacities and a ring, so the encoding has
    engine-level PB constraints under provenance tags."""
    arch = Architecture(
        ecus=[Ecu("p0", memory=1000), Ecu("p1", memory=900)],
        media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                      bit_rate=1_000_000, frame_overhead_bits=0,
                      min_slot=50, slot_overhead=10)])
    tasks = TaskSet([
        Task("a", 2000, {"p0": 400, "p1": 380}, 2000, memory=600,
             messages=(Message("b", 100, 1000),)),
        Task("b", 2000, {"p0": 300, "p1": 420}, 2000, memory=500),
        Task("c", 1000, {"p0": 90, "p1": 110}, 900, memory=300),
    ], name="memory")
    return tasks, arch


class TestReplayIdentity:
    @pytest.mark.parametrize("name", SHAPES)
    def test_replay_plus_units_is_a_fresh_parametric_encode(self, name):
        tasks, arch = _shape(name)
        objective = MinimizeTRT("ring")
        slot = TemplateSlot()
        cold, *_ = _encode(tasks, arch, objective, slot)
        template = slot.template
        assert template is not None and _replays(cold) == 0
        variant = _perturbed(tasks, 2)
        replayed, cost, lo, hi, _ = _encode(variant, arch, objective, slot)
        assert slot.template is template and _replays(replayed) == 1
        fresh, fcost, flo, fhi, _ = _encode(variant, arch, objective,
                                            TemplateSlot())
        assert (_engine_state(replayed.solver.sat)
                == _engine_state(fresh.solver.sat))
        assert (cost.name, lo, hi) == (fcost.name, flo, fhi)

    def test_tags_and_pb_constraints_replay(self):
        tasks, arch = _memory_system()
        objective = MinimizeTRT("ring")
        config = EncoderConfig(diagnostics=True, pb_mode=True)
        slot = TemplateSlot()
        _encode(tasks, arch, objective, slot, config)
        variant = _with_task(tasks, 2, wcet={"p0": 100, "p1": 120})
        replayed, *_ = _encode(variant, arch, objective, slot, config)
        fresh, *_ = _encode(variant, arch, objective, TemplateSlot(), config)
        assert _replays(replayed) == 1
        state = _engine_state(replayed.solver.sat)
        assert state == _engine_state(fresh.solver.sat)
        assert state[6] and state[4]  # PB constraints and tags exist

    def test_replayed_encoding_solves_like_a_concrete_one(self):
        tasks, arch = _shape("ring5-t10")
        objective = MinimizeTRT("ring")
        slot = TemplateSlot()
        Allocator(tasks, arch).minimize(
            SolveRequest(objective=objective, template=slot))
        variant = _perturbed(tasks, 1)
        res = Allocator(variant, arch).minimize(
            SolveRequest(objective=objective, template=slot, certify=True))
        concrete = Allocator(variant, arch).minimize(
            SolveRequest(objective=objective, certify=True))
        assert res.encode_stats["template_replays"] == 1
        assert ((res.cost, res.proven, res.status)
                == (concrete.cost, concrete.proven, concrete.status))
        assert res.certified and res.verified


class TestShapeMisses:
    """Every change a WCET parameter cannot absorb re-encodes, and the
    new template replaces the old one."""

    @staticmethod
    def _variants(tasks):
        first = next(iter(tasks))
        multi = next(i for i, t in enumerate(tasks) if len(t.wcet) > 1)
        mt = list(tasks)[multi]
        dropped = dict(list(mt.wcet.items())[:-1])
        return {
            "wcet beyond its range": _with_task(
                tasks, 0, wcet={k: 4 * v for k, v in first.wcet.items()}),
            "candidate set": _with_task(
                tasks, multi, wcet=dropped,
                allowed=frozenset(dropped)),
            "deadline": _with_task(tasks, 0, deadline=first.deadline - 1),
        }

    @pytest.mark.parametrize(
        "change", ["wcet beyond its range", "candidate set", "deadline"])
    def test_system_change_re_encodes(self, change):
        tasks, arch = _shape("ring5-t10")
        objective = MinimizeTRT("ring")
        slot = TemplateSlot()
        _encode(tasks, arch, objective, slot)
        old = slot.template
        variant = self._variants(tasks)[change]
        enc, *_ = _encode(variant, arch, objective, slot)
        assert _replays(enc) == 0
        assert slot.template is not old
        assert slot.template.shape != old.shape
        # The new template fits the changed system from now on.
        again, *_ = _encode(variant, arch, objective, slot)
        assert _replays(again) == 1

    def test_every_medium_field_is_part_of_the_shape(self):
        """CAN blocking changes the formula, though the system codec
        drops it."""
        from repro.model.architecture import MediumKind

        tasks = TaskSet([Task("a", 1000, {"p0": 90, "p1": 80}, 900)])

        def arch(blocking):
            return Architecture(
                ecus=[Ecu("p0"), Ecu("p1")],
                media=[Medium("can", MediumKind.CAN, ("p0", "p1"),
                              nonpreemptive_blocking=blocking)])

        config = EncoderConfig()
        objective = MinimizeSumResponseTimes()
        assert (template_shape(tasks, arch(True), objective, config)
                != template_shape(tasks, arch(False), objective, config))

    def test_other_objective_re_encodes(self):
        tasks, arch = _shape("ring5-t10")
        slot = TemplateSlot()
        _encode(tasks, arch, MinimizeTRT("ring"), slot)
        old = slot.template
        enc, *_ = _encode(tasks, arch, MinimizeSumResponseTimes(), slot)
        assert _replays(enc) == 0 and slot.template.shape != old.shape

    def test_wcet_reading_objective_keys_on_the_values(self):
        tasks, arch = _shape("ring5-t10")
        objective = MinimizeMaxUtilization()
        slot = TemplateSlot()
        _encode(tasks, arch, objective, slot)
        enc, *_ = _encode(_perturbed(tasks, 1), arch, objective, slot)
        assert _replays(enc) == 0
        same, *_ = _encode(_perturbed(tasks, 1), arch, objective, slot)
        assert _replays(same) == 1


def _payload(tasks, arch, objective: str, rid: str, certify=False) -> dict:
    return {"id": rid, "scenario": "fleet", "objective": objective,
            "system": system_to_dict(tasks, arch), "certify": certify}


def _served(tmp_path, payloads, workers=1, concurrent=()):
    """Serve ``payloads`` in order, then ``concurrent`` all at once;
    returns the responses and each solve's encode stats."""
    import repro.core.api as api

    stats = []
    solve = api.solve

    def tapped(tasks, arch, request):
        report = solve(tasks, arch, request)
        stats.append(report.result.result.encode_stats)
        return report

    server = AllocationServer(ServeConfig(
        state_dir=str(tmp_path / "state"), workers=workers))

    async def main():
        await server.start()
        try:
            out = [await server.submit(p) for p in payloads]
            out += await asyncio.gather(
                *(server.submit(p) for p in concurrent))
            return out
        finally:
            await server.stop()

    api.solve = tapped
    try:
        return asyncio.run(main()), stats, server
    finally:
        api.solve = solve


class TestServedTemplates:
    @pytest.mark.parametrize("spec,certify,replays", [
        ("trt:ring", False, 1),
        ("trt:ring", True, 1),
        ("sum_resp", False, 1),
        ("max_util", False, 0),
    ])
    def test_warm_hit_answers_like_a_concrete_cold_solve(
            self, tmp_path, spec, certify, replays):
        tasks, arch = _shape("ring4-t8") if spec != "trt:ring" \
            else _shape("ring5-t10")
        variant = _perturbed(tasks, 1)
        (cold, warm), stats, _ = _served(tmp_path, [
            _payload(tasks, arch, spec, "cold", certify),
            _payload(variant, arch, spec, "warm", certify),
        ])
        assert cold.kind == warm.kind == "ok" and warm.warm
        assert [s["template_replays"] for s in stats] == [0, replays]
        concrete = Allocator(variant, arch).minimize(SolveRequest(
            objective=objective_from_spec(spec), certify=certify))
        assert ((warm.cost, warm.proven, warm.status)
                == (concrete.cost, concrete.proven, concrete.status))
        if certify:
            assert warm.certified is True and concrete.certified

    def test_two_workers_replay_one_template(self, tmp_path):
        tasks, arch = _shape("ring5-t10")
        variants = [_perturbed(tasks, d) for d in (1, 1, 2)]
        responses, stats, _ = _served(
            tmp_path, [_payload(tasks, arch, "trt:ring", "cold")],
            workers=2,
            concurrent=[_payload(v, arch, "trt:ring", f"w{i}")
                        for i, v in enumerate(variants)])
        assert [s["template_replays"] for s in stats] == [0, 1, 1, 1]
        warm = responses[1:]
        assert all(r.kind == "ok" and r.warm for r in warm)
        assert ((warm[0].cost, warm[0].proven, warm[0].status)
                == (warm[1].cost, warm[1].proven, warm[1].status))
        for r, v in zip(warm, variants):
            concrete = Allocator(v, arch).minimize(
                SolveRequest(objective=MinimizeTRT("ring")))
            assert (r.cost, r.proven) == (concrete.cost, concrete.proven)

    def test_solves_run_on_one_thread_per_worker(self, tmp_path):
        """The server's own solve threads, one per worker: memory one
        solve frees is reused by the next on the same thread."""
        import repro.core.api as api

        tasks, arch = _shape("ring5-t10")
        names = []
        solve = api.solve

        def tapped(tasks, arch, request):
            names.append(threading.current_thread().name)
            return solve(tasks, arch, request)

        api.solve = tapped
        try:
            _served(tmp_path, [
                _payload(_perturbed(tasks, d), arch, "trt:ring", f"r{d}")
                for d in range(4)])
        finally:
            api.solve = solve
        assert len(names) == 4
        assert set(names) == {"serve-solve_0"}

    def test_threads_replaying_one_template_agree(self):
        tasks, arch = _shape("ring5-t10")
        objective = MinimizeTRT("ring")
        slot = TemplateSlot()
        _encode(tasks, arch, objective, slot)
        variant = _perturbed(tasks, 2)
        out = [None, None]

        def run(i):
            res = Allocator(variant, arch).minimize(SolveRequest(
                objective=objective, template=TemplateSlot(slot.template)))
            out[i] = (res.cost, res.proven, res.encode_stats[
                "template_replays"], res.solver_stats["conflicts"])

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert out[0] == out[1] and out[0][2] == 1

    def test_templates_die_with_their_server(self, tmp_path):
        tasks, arch = _shape("ring5-t10")
        server_box = {}

        async def main():
            server = AllocationServer(ServeConfig(
                state_dir=str(tmp_path / "state"), workers=1))
            server_box["s"] = server
            await server.start()
            resp = await server.submit(
                _payload(tasks, arch, "trt:ring", "cold"))
            assert resp.kind == "ok"
            held = server.cache.stats()
            await server.stop()
            return held

        held = asyncio.run(main())
        after = server_box["s"].cache.stats()
        assert held["templates"] == 1
        assert after["templates"] == 0 and after["size"] == 1
        assert after["approx_bytes"] < held["approx_bytes"]


def _fake_template(nbytes: int):
    return SimpleNamespace(nbytes=nbytes, shape="s")


class TestCacheTemplates:
    def test_byte_cap_drops_lru_templates_first(self):
        cache = WarmCache(size=8)
        half = TEMPLATE_BYTES_CAP // 2
        for i in range(3):
            cache.store(f"s{i}", "fp", 10 + i, {"cost": 10 + i}, code_fp="c",
                        template=_fake_template(half))
        entries = [cache.lookup(f"s{i}", "fp", "c") for i in range(3)]
        assert [e.template is not None for e in entries] == [
            False, True, True]
        assert [e.optimum for e in entries] == [10, 11, 12]
        assert entries[1].approx_bytes - entries[0].approx_bytes > half - 64

    def test_shrink_drops_every_template(self):
        cache = WarmCache(size=8)
        for i in range(4):
            cache.store(f"s{i}", "fp", i, {"cost": i}, code_fp="c",
                        template=_fake_template(1000))
        before = cache.memory_bytes()
        released = cache.shrink()
        assert cache.stats()["templates"] == 0
        assert cache.stats()["size"] == 2
        assert released == before - cache.memory_bytes()
        assert released >= 4000
