"""Propagation-core microbenchmark: pure vs compiled backend.

Measures end-to-end solve time, propagation and conflict throughput on the
deterministic instances of ``_prop_instances.py`` under both backends,
asserts they stay in bit-identical lockstep, and records the results in
``benchmarks/out/BENCH_propagation.json`` next to the frozen pre-arena
baseline (the PR-6 object-per-clause engine, measured on the same
instances before the refactor).

Run with ``pytest benchmarks/test_propagation.py``; CI uploads the JSON
as an artifact.
"""

from __future__ import annotations

import time

from _prop_instances import INSTANCES

from repro.sat.core import backend_status
from repro.sat.solver import Solver

# The object-per-clause engine (PR 6, commit 0c4b09c) on the same
# instances and hardware class; frozen here so the JSON always carries
# the before/after comparison the refactor is judged against.
PRE_ARENA_BASELINE = {
    "php_8_7": {"solve_seconds": 1.5013, "propagations": 50849,
                "props_per_sec": 33871},
    "random3_140": {"solve_seconds": 0.4728, "propagations": 80071,
                    "props_per_sec": 169339},
    "php_pb_8_7": {"solve_seconds": 1.2539, "propagations": 47316,
                   "props_per_sec": 37734},
}


def _measure(backend: str, builder) -> dict:
    s = Solver(backend=backend)
    builder(s)
    t0 = time.perf_counter()
    result = s.solve()
    seconds = time.perf_counter() - t0
    return {
        "backend": s.stats.backend,
        "result": result,
        "solve_seconds": round(seconds, 4),
        "propagations": s.stats.propagations,
        "conflicts": s.stats.conflicts,
        "decisions": s.stats.decisions,
        "props_per_sec": round(s.stats.propagations / seconds, 1),
        "conflicts_per_sec": round(s.stats.conflicts / seconds, 1),
        "trail_digest": hash(tuple(s.trail[: s.trail_n])),
    }


def test_propagation_microbench(record_json):
    status = backend_status()
    cells: dict = {}
    for name, builder in INSTANCES.items():
        pure = _measure("pure", builder)
        cells[name] = {"pure": pure,
                       "pre_arena_baseline": PRE_ARENA_BASELINE[name]}
        if status["fast"]["available"]:
            fast = _measure("fast", builder)
            cells[name]["fast"] = fast
            # Lockstep guarantee, cheap form: same answer, same search.
            for key in ("result", "propagations", "conflicts",
                        "decisions", "trail_digest"):
                assert pure[key] == fast[key], (name, key)
            cells[name]["speedup_fast_vs_pure"] = round(
                pure["solve_seconds"] / max(fast["solve_seconds"], 1e-9), 2
            )
            cells[name]["speedup_fast_vs_pre_arena"] = round(
                PRE_ARENA_BASELINE[name]["solve_seconds"]
                / max(fast["solve_seconds"], 1e-9), 2
            )
    record_json("propagation", {
        "backends": status,
        "cells": cells,
    })
    if status["fast"]["available"]:
        # The refactor's reason to exist: compiled propagation must beat
        # the pre-arena engine clearly on every instance.
        for name, cell in cells.items():
            assert cell["speedup_fast_vs_pre_arena"] >= 1.5, (
                name, cell["speedup_fast_vs_pre_arena"])
