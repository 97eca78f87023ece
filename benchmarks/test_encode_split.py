"""Encode-stage split: where one encoding's wall time goes.

Shapes: the four ``serve-replay`` scenarios (``trt:ring`` on 4-6 ECU
rings), table 1 (43 tasks on the 8-ECU token ring) and table 4's
Arch B (43 tasks, sum of TRTs).  Each shape is encoded ``REPEATS``
times and the fastest repeat is kept.  Its wall time runs from
``Allocator._encode`` (``ProblemEncoding`` plus the objective) until
every buffered clause is in the SAT engine, and is split into the
``EncodeStats`` stages -- simplify, triplet, bit-blast, clause load --
and the model-building rest.  Each shape also records its
``Solver.add_clauses`` calls, clauses and variables; the file records
the git sha and the SAT backend.  Results land in
``benchmarks/out/BENCH_encode.json``.

The four served shapes also record the ``replay`` stage of an
encoding template (:mod:`repro.core.template`): the fastest of
``REPEATS`` parameter-mode encodings of the shape, the bytes of the
template it records, and the fastest of ``REPEATS`` replays of that
template for the shape with its first task's WCETs raised by one (the
served warm hit), WCET units included, until the engine holds the
formula.

Clause counts and clause databases are asserted: each shape's count
equals its pin, and its database hashes (``_db_digest`` of
``tests/test_encode_regression.py``) to the pinned digest, so a change
that reorders or rewrites clauses at paper scale fails here too.  The
load counts and timings are recorded, never asserted.  The load bound
is checked once, in
``tests/test_encode_regression.py::TestDeferredLoading``.
Table 1 and Arch B build paper-size formulas (about 450k and 680k
clauses); a run takes about 40 s.

``python benchmarks/test_encode_split.py BEFORE.json AFTER.json``
renders two such files as the markdown tables EXPERIMENTS.md quotes.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 5

#: Arch B's encode-time target (ROADMAP item 1), in seconds.
ARCH_B_TARGET_S = 1.0

#: shape -> clauses: the encodings' exact sizes.
PINS = {
    "ring4-t14": 77506,
    "ring5-t16": 97919,
    "ring6-t16": 95606,
    "ring5-t10": 40522,
    "table1": 446707,
    "arch-b": 678581,
}

#: shape -> SHA-256 of its clause database; the served shapes' digests
#: are ``ENCODING_DIGESTS`` of ``tests/test_encode_regression.py``.
DB_DIGESTS = {
    "table1":
        "7d0388a8fe20e66fb73c038d4edf9d6a0129004d4011141043b177c2c40e4a69",
    "arch-b":
        "f71bd0e0e73de9047b7a06139d60e975faddc923a31dfc4eeb9e30c669c3a7b8",
}

#: served shape -> clauses of its parameter-mode encoding.
PARAM_PINS = {
    "ring4-t14": 81575,
    "ring5-t16": 102502,
    "ring6-t16": 99862,
    "ring5-t10": 42368,
}

STAGES = ("simplify", "triplet", "blast", "load", "rest")


def _shape(name: str):
    from repro.core import MinimizeTRT
    from repro.core.objectives import MinimizeSumTRT
    from repro.workloads import (
        architecture_b,
        tindell_architecture,
        tindell_partition,
    )
    from repro.workloads.scaling import ring_architecture, scaling_taskset

    if name == "table1":
        return tindell_partition(43), tindell_architecture(), \
            MinimizeTRT("ring")
    if name == "arch-b":
        return tindell_partition(43), architecture_b(), MinimizeSumTRT()
    ecus, tasks = name[4:].split("-t")
    return (scaling_taskset(int(ecus), int(tasks)),
            ring_architecture(int(ecus)), MinimizeTRT("ring"))


def _encode_once(name: str, loads: list) -> dict:
    from repro.core import Allocator
    from tests.test_encode_regression import _db_digest

    tasks, arch, objective = _shape(name)
    gc.collect()
    del loads[:]
    t0 = time.perf_counter()
    enc, *_ = Allocator(tasks, arch)._encode(objective)
    sat = enc.solver.sat  # loads whatever the blaster still buffers
    wall = time.perf_counter() - t0
    st = enc.solver.encode_stats()
    seconds = {
        "simplify": st.t_simplify, "triplet": st.t_triplet,
        "blast": st.t_blast, "load": st.t_load,
        "rest": wall - st.t_total,
    }
    return {
        "wall_s": round(wall, 4),
        "stages_s": {k: round(v, 4) for k, v in seconds.items()},
        "add_clauses_calls": len(loads),
        "clauses": sat.num_clauses(),
        "vars": sat.nvars,
        "gates": st.gates,
        "db_digest": _db_digest(sat),
        "backend": sat.core.name,
    }


def _warm_variant(tasks):
    """The shape with its first task's WCETs raised by one."""
    from repro.model.task import TaskSet

    out = [dataclasses.replace(t, wcet={k: v + 1 for k, v in t.wcet.items()})
           if j == 0 else t for j, t in enumerate(tasks)]
    return TaskSet(out, name=tasks.name)


def _replay_stage(name: str) -> dict:
    """Parameter-mode encode, template bytes, and template replay."""
    from repro.core import Allocator
    from repro.core.template import TemplateSlot, template_shape

    tasks, arch, objective = _shape(name)
    variant = _warm_variant(tasks)
    alloc, warm = Allocator(tasks, arch), Allocator(variant, arch)
    shape = template_shape(tasks, arch, objective, alloc.config)
    assert shape == template_shape(variant, arch, objective, warm.config)

    def timed(allocator, slot):
        gc.collect()
        t0 = time.perf_counter()
        enc, *_ = allocator._encode(objective, slot, shape)
        sat = enc.solver.sat
        return time.perf_counter() - t0, enc, sat

    encodes = [timed(alloc, TemplateSlot()) for _ in range(REPEATS)]
    slot = TemplateSlot()
    timed(alloc, slot)
    replays = [timed(warm, slot) for _ in range(REPEATS)]
    assert all(enc.encode_stats()["template_replays"] == 1
               for _, enc, _ in replays)
    return {
        "param_wall_s": round(min(w for w, _, _ in encodes), 4),
        "param_clauses": encodes[0][2].num_clauses(),
        "param_vars": encodes[0][2].nvars,
        "template_bytes": slot.template.nbytes,
        "replay_wall_s": round(min(w for w, _, _ in replays), 4),
    }


def _git_sha() -> str | None:
    """HEAD's sha, with ``-dirty`` when tracked files under ``src/``
    differ from it (the measured code is not HEAD's)."""
    root = Path(__file__).resolve().parent.parent
    if not (root / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        diff = subprocess.run(["git", "status", "--porcelain",
                               "--untracked-files=no", "src"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    if head.returncode != 0:
        return None
    return head.stdout.strip() + ("-dirty" if diff.stdout.strip() else "")


def test_encode_split(record_json, monkeypatch):
    from repro.sat.solver import Solver
    from tests.test_encode_regression import ENCODING_DIGESTS

    loads: list = []
    load = Solver.add_clauses

    def counting(self, buf, new_vars=0):
        loads.append(len(buf))
        return load(self, buf, new_vars)

    monkeypatch.setattr(Solver, "add_clauses", counting)
    shapes = {}
    for name in PINS:
        runs = [_encode_once(name, loads) for _ in range(REPEATS)]
        shapes[name] = min(runs, key=lambda r: r["wall_s"])
    for name in PARAM_PINS:
        shapes[name]["replay"] = _replay_stage(name)
    backends = {r.pop("backend") for r in shapes.values()}
    arch_b = shapes["arch-b"]["wall_s"]
    record_json("encode", {
        "git_sha": _git_sha(),
        "backend": backends.pop() if len(backends) == 1 else None,
        "repeats": REPEATS,
        "shapes": shapes,
        "arch_b_target_s": ARCH_B_TARGET_S,
        "arch_b_meets_target": arch_b <= ARCH_B_TARGET_S,
    })
    for name, clauses in PINS.items():
        assert shapes[name]["clauses"] == clauses, (
            name, shapes[name]["clauses"])
    for name in PINS:
        digest = DB_DIGESTS.get(name) or ENCODING_DIGESTS[name]
        assert shapes[name]["db_digest"] == digest, name
    for name, clauses in PARAM_PINS.items():
        assert shapes[name]["replay"]["param_clauses"] == clauses, (
            name, shapes[name]["replay"]["param_clauses"])


def render(before: dict, after: dict) -> str:
    """Markdown table of two ``BENCH_encode.json`` payloads, stage by
    stage (seconds of the fastest repeat) with the load counts."""
    head = ("| shape | run | wall | " + " | ".join(STAGES)
            + " | loads | clauses |")
    rows = [head, "|" + "---|" * (len(STAGES) + 5)]
    for name in after["shapes"]:
        for label, doc in (("before", before), ("after", after)):
            cell = doc["shapes"].get(name)
            if cell is None:
                continue
            sha = doc.get("git_sha") or "?"
            sha = sha[:7] + ("-dirty" if sha.endswith("-dirty") else "")
            stages = " | ".join(f"{cell['stages_s'][k]:.3f}"
                                for k in STAGES)
            rows.append(
                f"| {name} | {label} `{sha}` | {cell['wall_s']:.3f} | "
                f"{stages} | {cell['add_clauses_calls']} | "
                f"{cell['clauses']} |")
    return "\n".join(rows)


def render_replay(doc: dict) -> str:
    """Markdown table of one payload's template stage: concrete and
    parameter-mode encode, template bytes and replay, per served
    shape."""
    sha = doc.get("git_sha") or "?"
    sha = sha[:7] + ("-dirty" if sha.endswith("-dirty") else "")
    rows = [f"| shape (`{sha}`) | encode | parameter-mode encode | "
            "template | replay | clauses, concrete → parameter mode |",
            "|---|---|---|---|---|---|"]
    for name, cell in doc["shapes"].items():
        rep = cell.get("replay")
        if rep is None:
            continue
        rows.append(
            f"| {name} | {cell['wall_s']:.3f} s | "
            f"{rep['param_wall_s']:.3f} s | "
            f"{rep['template_bytes'] / 2**20:.2f} MiB | "
            f"{rep['replay_wall_s']:.3f} s | "
            f"{cell['clauses']} → {rep['param_clauses']} |")
    return "\n".join(rows)


if __name__ == "__main__":
    docs = [json.loads(Path(p).read_text()) for p in sys.argv[1:3]]
    print(render(*docs))
    print()
    print(render_replay(docs[-1]))
