"""Serving benchmark: perturbed-request replay (warm) vs cold solves.

Production allocation traffic re-solves the same scenario after small
perturbations (a task's WCET drifts upward between firmware drops).
The serve layer exploits that: the last proven optimum of a scenario is
cached together with its allocation, and a later request in the same
scenario re-audits the cached allocation with the *independent*
analysis -- if it still passes, its recomputed cost is a sound,
known-achievable upper bound and the binary search collapses to a
single ``UNSAT(cost - 1)`` fence probe (see ``docs/SERVING.md``).
The warm request also skips encoding: it replays the scenario's
encoding template and fixes the raised WCETs with unit clauses.

This benchmark drives both paths through the real
:class:`repro.serve.AllocationServer`:

- **cold**: every perturbed variant submitted under its own scenario
  label, so the warm cache never hits;
- **warm**: the base scenario solved once, then the same variants
  submitted under the shared label, so each rides the cached witness.

Both passes run a second time with certification asked for: every
UNSAT probe's DRUP proof is checked and every SAT probe's witness
audited (``docs/ROBUSTNESS.md`` section 7).  Each pass runs on its own
server with its own state directory, so the warm pass cannot resume the
cold pass's finished checkpoints and measures the witness mechanism
alone; every warm and every certified answer is asserted bit-identical
to its uncertified cold counterpart, and every certificate verified,
before any timing is trusted.  Results land in
``benchmarks/out/BENCH_serve.json``, the certified medians with the
split of a certified request's certify time (``start_proof``, ingestion
of the input block, RUP checks, the SAT probes' model check, and the
part of it ``finalize`` spends on trailing proof steps) and the checker
core that ran (``checker_core``: ``fast`` compiled, ``pure`` list-based,
chosen by ``REPRO_SAT_BACKEND``); the serve acceptance bar is a >= 2x
median latency improvement of the uncertified warm pass.
"""

import asyncio
import dataclasses
import gc
import statistics
import time

from repro.certify.certifier import ProbeCertifier
from repro.certify.drup import RupChecker
from repro.io.json_codec import system_to_dict
from repro.model.task import TaskSet
from repro.sat.core import backend_status
from repro.sat.solver import Solver
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


def _payload(tasks, arch, scenario: str, rid: str,
             certify: bool = False) -> dict:
    return {
        "id": rid,
        "scenario": scenario,
        "system": system_to_dict(tasks, arch),
        "objective": "trt:ring",
        "certify": certify,
    }


#: Methods timed for the certify split: (owner, name, key).  The RUP
#: checker settles level 0 (attaching the input batch) inside its first
#: check, so ingestion is ``add_inputs`` plus ``_settle`` and the RUP
#: checks are ``_refutes`` minus ``_settle``.  ``finalize`` checks the
#: proof steps logged after the last UNSAT probe.
TIMED = (
    (Solver, "start_proof", "start_proof"),
    (RupChecker, "add_inputs", "add_inputs"),
    (RupChecker, "_settle", "settle"),
    (RupChecker, "_refutes", "refutes"),
    (RupChecker, "check_model", "check_model"),
    (ProbeCertifier, "finalize", "finalize"),
)


def _time_certify(monkeypatch) -> dict:
    """Wrap the :data:`TIMED` methods; returns their running seconds."""
    acc = dict.fromkeys((key for _, _, key in TIMED), 0.0)
    for owner, name, key in TIMED:
        fn = getattr(owner, name)

        def timed(*args, _fn=fn, _key=key, **kwargs):
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                acc[_key] += time.perf_counter() - t0

        monkeypatch.setattr(owner, name, timed)
    return acc


def _split(acc: dict) -> dict:
    return {
        "start_proof": acc["start_proof"],
        "ingestion": acc["add_inputs"] + acc["settle"],
        "rup_checks": max(0.0, acc["refutes"] - acc["settle"]),
        "check_model": acc["check_model"],
        "finalize": acc["finalize"],
    }


def test_warm_replay_halves_median_latency(profile, tmp_path, record_json,
                                           monkeypatch):
    n_tasks = 24 if profile.name == "paper" else 20
    arch = ring_architecture(5)
    base = scaling_taskset(5, n_tasks)
    variants = [_perturbed(base, i) for i in range(N_VARIANTS)]

    acc = _time_certify(monkeypatch)
    splits = {}

    async def run_pass(name, payloads):
        server = AllocationServer(ServeConfig(
            state_dir=str(tmp_path / name), workers=1,
        ))
        await server.start()
        out = []
        for p in payloads:
            for key in acc:
                acc[key] = 0.0
            gen0 = gc.get_stats()[0]["collections"]
            out.append(await server.submit(p))
            splits[(name, p["id"])] = {
                **_split(acc),
                "gc_gen0": gc.get_stats()[0]["collections"] - gen0,
            }
        await server.stop()
        return out

    async def main(certify):
        tag = "-cert" if certify else ""
        # Cold: one scenario label per variant => the cache never hits.
        cold = await run_pass("cold" + tag, [
            _payload(v, arch, scenario=f"cold-{i}", rid=f"c{i}",
                     certify=certify)
            for i, v in enumerate(variants)
        ])
        # Warm: seed the shared scenario, then replay the variants.
        warm = await run_pass("warm" + tag, [
            _payload(base, arch, "fleet", "seed", certify=certify),
            *(_payload(v, arch, scenario="fleet", rid=f"w{i}",
                       certify=certify)
              for i, v in enumerate(variants)),
        ])
        return cold, warm[1:]

    cold, warm = asyncio.run(main(certify=False))
    cold_cert, warm_cert = asyncio.run(main(certify=True))

    cells = []
    for i, (c, w) in enumerate(zip(cold, warm)):
        assert c.kind == w.kind == "ok"
        assert not c.warm and w.warm
        assert not w.resumed  # witness replay, not checkpoint replay
        # Warm answers are bit-identical, or the timings mean nothing.
        assert (w.cost, w.proven, w.status) == (c.cost, c.proven, c.status)
        # So are the certified ones, and every certificate verifies.
        cc, wc = cold_cert[i], warm_cert[i]
        assert cc.kind == wc.kind == "ok"
        assert not cc.warm and wc.warm and not wc.resumed
        assert cc.certified is True and wc.certified is True
        assert ((cc.cost, cc.proven, cc.status)
                == (wc.cost, wc.proven, wc.status)
                == (c.cost, c.proven, c.status))
        assert c.certified is None and w.certified is None
        cells.append({
            "variant": i,
            "cost": c.cost,
            "proven": c.proven,
            "status": c.status,
            "cold_seconds": round(c.seconds, 4),
            "warm_seconds": round(w.seconds, 4),
            "cold_certified_seconds": round(cc.seconds, 4),
            "warm_certified_seconds": round(wc.seconds, 4),
        })

    median_cold = statistics.median(c.seconds for c in cold)
    median_warm = statistics.median(w.seconds for w in warm)
    speedup = median_cold / median_warm

    def median_split(name, prefix):
        runs = [v for (pass_, rid), v in splits.items()
                if pass_ == name and rid.startswith(prefix)]
        return {key: round(statistics.median(r[key] for r in runs), 4)
                for key in runs[0]}

    record_json("serve", {
        "instance": {"ecus": 5, "tasks": n_tasks, "profile": profile.name},
        "checker_core": RupChecker().core_name,
        # Why the compiled core is unavailable (None when it loaded).
        "checker_core_fallback": backend_status()["checker"]["reason"],
        "variants": cells,
        "median_cold_seconds": round(median_cold, 4),
        "median_warm_seconds": round(median_warm, 4),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "median_cold_certified_seconds": round(
            statistics.median(c.seconds for c in cold_cert), 4),
        "median_warm_certified_seconds": round(
            statistics.median(w.seconds for w in warm_cert), 4),
        # Median seconds per request in each piece of certification,
        # and generation-0 collections per request (all layers; the
        # uncertified warm pass for comparison).
        "certify_split_cold": median_split("cold-cert", "c"),
        "certify_split_warm": median_split("warm-cert", "w"),
        "gc_gen0_warm_uncertified": median_split("warm", "w")["gc_gen0"],
    })
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm replay only {speedup:.2f}x faster "
        f"(cold {median_cold:.2f}s vs warm {median_warm:.2f}s)"
    )
