"""Serving benchmark: perturbed-request replay (warm) vs cold solves.

Production allocation traffic re-solves the same scenario after small
perturbations (a task's WCET drifts upward between firmware drops).
The serve layer exploits that: the last proven optimum of a scenario is
cached together with its allocation, and a later request in the same
scenario re-audits the cached allocation with the *independent*
analysis -- if it still passes, its recomputed cost is a sound,
known-achievable upper bound and the binary search collapses to a
single ``UNSAT(cost - 1)`` fence probe (see ``docs/SERVING.md``).

This benchmark drives both paths through the real
:class:`repro.serve.AllocationServer`:

- **cold**: every perturbed variant submitted under its own scenario
  label, so the warm cache never hits;
- **warm**: the base scenario solved once, then the same variants
  submitted under the shared label, so each rides the cached witness.

Each pass runs on its own server with its own state directory, so the
warm pass cannot resume the cold pass's finished checkpoints and
measures the witness mechanism alone; every warm answer is asserted
bit-identical to its cold counterpart before any timing is trusted.  Results land in
``benchmarks/out/BENCH_serve.json``; the serve acceptance bar is a
>= 2x median latency improvement.
"""

import asyncio
import dataclasses
import statistics

from repro.io.json_codec import system_to_dict
from repro.model.task import TaskSet
from repro.serve import AllocationServer, ServeConfig
from repro.workloads.scaling import ring_architecture, scaling_taskset

SPEEDUP_FLOOR = 2.0
N_VARIANTS = 4


def _perturbed(base: TaskSet, i: int) -> TaskSet:
    """Variant i: the first task's WCETs drift up by 1 + i ticks."""
    tasks = [
        dataclasses.replace(
            t, wcet={k: v + 1 + i for k, v in t.wcet.items()}
        )
        if j == 0 else t
        for j, t in enumerate(base)
    ]
    return TaskSet(tasks, name=base.name)


def _payload(tasks, arch, scenario: str, rid: str) -> dict:
    return {
        "id": rid,
        "scenario": scenario,
        "system": system_to_dict(tasks, arch),
        "objective": "trt:ring",
    }


def test_warm_replay_halves_median_latency(profile, tmp_path, record_json):
    n_tasks = 24 if profile.name == "paper" else 20
    arch = ring_architecture(5)
    base = scaling_taskset(5, n_tasks)
    variants = [_perturbed(base, i) for i in range(N_VARIANTS)]

    async def run_pass(name, payloads):
        server = AllocationServer(ServeConfig(
            state_dir=str(tmp_path / name), workers=1,
        ))
        await server.start()
        out = [await server.submit(p) for p in payloads]
        await server.stop()
        return out

    async def main():
        # Cold: one scenario label per variant => the cache never hits.
        cold = await run_pass("cold", [
            _payload(v, arch, scenario=f"cold-{i}", rid=f"c{i}")
            for i, v in enumerate(variants)
        ])
        # Warm: seed the shared scenario, then replay the variants.
        warm = await run_pass("warm", [
            _payload(base, arch, "fleet", "seed"),
            *(_payload(v, arch, scenario="fleet", rid=f"w{i}")
              for i, v in enumerate(variants)),
        ])
        return cold, warm[1:]

    cold, warm = asyncio.run(main())

    cells = []
    for i, (c, w) in enumerate(zip(cold, warm)):
        assert c.kind == w.kind == "ok"
        assert not c.warm and w.warm
        assert not w.resumed  # witness replay, not checkpoint replay
        # Warm answers are bit-identical, or the timings mean nothing.
        assert (w.cost, w.proven, w.status) == (c.cost, c.proven, c.status)
        cells.append({
            "variant": i,
            "cost": c.cost,
            "proven": c.proven,
            "status": c.status,
            "cold_seconds": round(c.seconds, 4),
            "warm_seconds": round(w.seconds, 4),
        })

    median_cold = statistics.median(c.seconds for c in cold)
    median_warm = statistics.median(w.seconds for w in warm)
    speedup = median_cold / median_warm
    record_json("serve", {
        "instance": {"ecus": 5, "tasks": n_tasks, "profile": profile.name},
        "variants": cells,
        "median_cold_seconds": round(median_cold, 4),
        "median_warm_seconds": round(median_warm, 4),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
    })
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm replay only {speedup:.2f}x faster "
        f"(cold {median_cold:.2f}s vs warm {median_warm:.2f}s)"
    )
