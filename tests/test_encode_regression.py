"""Encoder-size regression guard.

Pins the exact CNF output of the default pipeline on a fixed fig. 1
workload.  The encode path is deterministic, so any drift in these
numbers is a real change to the generated formula: an intentional
encoder improvement should update the pins (and the expected direction
is *down*), an accidental one should fail here before it reaches the
benchmarks.
"""

import hashlib

import pytest

from repro.core import EncoderConfig
from repro.core.encoder import ProblemEncoding
from repro.model import (
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)
from tests.test_blast_core import OnLibrary

# Exact output of the current default encoder on the fig. 1 workload.
PINNED_VARS = 5966
PINNED_CLAUSES = 19493

# Pre-refactor encoder output on the 10-task table-4 Arch A workload
# (measured at the growth seed).  The hash-consed pipeline must keep at
# least a 20% clause reduction against it -- the PR's acceptance bar.
SEED_ARCH_A_CLAUSES = 107982


def _fig1_system():
    kw = dict(bit_rate=1_000_000, frame_overhead_bits=0,
              min_slot=50, slot_overhead=10, gateway_service=25)
    arch = Architecture(
        ecus=[Ecu(f"p{i}") for i in range(1, 6)],
        media=[
            Medium("k1", TOKEN_RING, ("p1", "p2", "p3"), **kw),
            Medium("k2", TOKEN_RING, ("p2", "p4"), **kw),
            Medium("k3", TOKEN_RING, ("p3", "p5"), **kw),
        ],
    )
    every = {f"p{i}": 400 for i in range(1, 6)}
    tasks = TaskSet([
        Task("src", 10_000, dict(every), 10_000,
             messages=(Message("dst", 200, 8_000),)),
        Task("dst", 10_000, dict(every), 10_000,
             allowed=frozenset({"p4", "p5"})),
        Task("load1", 5_000, dict(every), 5_000),
        Task("load2", 5_000, dict(every), 5_000,
             separated_from=frozenset({"load1"})),
    ])
    return tasks, arch


class TestPinnedFormulaSize:
    def test_fig1_workload_is_pinned(self):
        tasks, arch = _fig1_system()
        size = ProblemEncoding(tasks, arch, EncoderConfig()).formula_size()
        assert size["bool_vars"] == PINNED_VARS, size
        assert size["clauses"] == PINNED_CLAUSES, size

    def test_fig1_encoding_is_deterministic(self):
        tasks, arch = _fig1_system()
        a = ProblemEncoding(tasks, arch, EncoderConfig()).formula_size()
        b = ProblemEncoding(tasks, arch, EncoderConfig()).formula_size()
        assert a == b

    def test_passes_never_grow_the_formula(self):
        tasks, arch = _fig1_system()
        new = ProblemEncoding(tasks, arch, EncoderConfig()).formula_size()
        plain = ProblemEncoding(
            tasks, arch, EncoderConfig(simplify=False, narrow_bits=False)
        ).formula_size()
        assert new["clauses"] < plain["clauses"]
        assert new["bool_vars"] < plain["bool_vars"]


class TestSeedReductionGuard:
    def test_arch_a_keeps_20_percent_reduction_vs_seed(self):
        from repro.workloads import architecture_a, tindell_partition

        enc = ProblemEncoding(
            tindell_partition(10), architecture_a(), EncoderConfig()
        )
        clauses = enc.formula_size()["clauses"]
        assert clauses <= 0.8 * SEED_ARCH_A_CLAUSES, clauses


# SHA-256 of the clause database each encoding leaves in the SAT engine
# (see ``_db_digest``), recorded before the bit-blaster emitted into a
# flat clause buffer: buffered emission and the bulk loader must
# reproduce the one-call-per-clause database byte for byte, so search,
# conflicts, envelopes and DRUP verdicts cannot move.  ``/minimized``
# digests are taken after a full binary search (probe bounds added
# between solves), ``/pb`` ones with the PB-mode full adder.
ENCODING_DIGESTS = {
    "table4-arch-a":
        "5953c6f081a9d4fb76033d03c24844a3549d38b0c242744e1e2fda35efc5d593",
    "ring4-t14":
        "65e184fed1c6e5e325b32be8e64a32cc0dc094fa5432a180b8f168ba19ccb850",
    "ring5-t16":
        "e376b6e951599375dbb1794fd1e0dcafa5c67c8cfc523b9fe9e1cb678ee40836",
    "ring6-t16":
        "7d47f919f32a37900e5502b71b25b88c76f4c7dc448b04b6c4c8bf15c282fd16",
    "ring5-t10":
        "19906a274dd9b11ad1e7904bc2125e88f5255017808a3239e395412b165208de",
    "ring5-t10/minimized":
        "8192172eec1f5a95d0af178bd7a19bcbc98afc96e43b733b5067e918617b247a",
    "ring5-t10/pb":
        "0d331fd6fe5f666cc51f4315b6ba835b0db96f10333ac79da58744248ac87198",
    "ring5-t10/pb/minimized":
        "ff36f9d86444685595482549759bb050748c4b12c71f40caa4bc4e2ae8200b18",
}


def _db_digest(sat) -> str:
    h = hashlib.sha256()
    for arr in (sat.arena, sat.cla_off, sat.watch_head, sat.watch_next,
                sat.order_heap, sat.pb_lits, sat.pb_coefs, sat.pb_off,
                sat.pb_watch_head, sat.pb_watch_next):
        h.update(arr.tobytes())
    h.update(sat.trail[: sat.trail_n].tobytes())
    return h.hexdigest()


def _digest_system(name: str):
    """Table-4 Arch A (sum of TRTs) and the served ``trt:ring``
    scenario shapes."""
    from repro.core import MinimizeTRT
    from repro.core.objectives import MinimizeSumTRT
    from repro.workloads import architecture_a, tindell_partition
    from repro.workloads.scaling import ring_architecture, scaling_taskset

    if name == "table4-arch-a":
        return tindell_partition(10), architecture_a(), MinimizeSumTRT()
    ecus, tasks = name[4:].split("-t")
    return (scaling_taskset(int(ecus), int(tasks)),
            ring_architecture(int(ecus)), MinimizeTRT("ring"))


class TestEncodingIdentity:
    @pytest.mark.parametrize(
        "name", [k for k in ENCODING_DIGESTS if "/" not in k]
    )
    def test_encoding_database_is_pinned(self, name):
        from repro.core import Allocator

        tasks, arch, objective = _digest_system(name)
        enc, *_ = Allocator(tasks, arch)._encode(objective)
        assert _db_digest(enc.solver.sat) == ENCODING_DIGESTS[name]

    @pytest.mark.parametrize("pb_mode", [False, True])
    def test_binary_search_database_is_pinned(self, pb_mode):
        from repro.core import Allocator

        key = "ring5-t10/pb" if pb_mode else "ring5-t10"
        tasks, arch, objective = _digest_system("ring5-t10")
        enc, cost_var, *_ = Allocator(
            tasks, arch, EncoderConfig(pb_mode=pb_mode)
        )._encode(objective)
        assert _db_digest(enc.solver.sat) == ENCODING_DIGESTS[key]
        outcome = enc.solver.minimize(cost_var)
        assert outcome.optimum == 30 and outcome.proven
        assert (_db_digest(enc.solver.sat)
                == ENCODING_DIGESTS[key + "/minimized"])



class TestEncodingIdentityReference(OnLibrary, TestEncodingIdentity):
    library = "pure"


class TestEncodingIdentityCompiled(OnLibrary, TestEncodingIdentity):
    library = "fast"

# SHA-256 of one full binary search on the cheapest ``sweep-ring``
# benchmark cell (3-ECU ring, 6 tasks, utilization 0.6, seed 1,
# ``sum_resp``, no bounds providers): every learnt clause with its
# backjump level in conflict order, then the final VSIDS activity bytes.
# Recorded while conflict analysis still ran in the solver's Python
# code; both backends' ``analyze`` must reproduce it exactly.
SEARCH_DIGEST = (
    "20dfe9324f64e9622144fdadd1ecbb84b4823def051d6d34ccccfd6722cbea9e"
)
SEARCH_CONFLICTS = 1085


class TestSearchIdentity:
    @pytest.mark.parametrize("backend", ["pure", "fast"])
    def test_sweep_cell_search_is_pinned(self, backend, monkeypatch):
        import repro.sat.core as core_mod
        from repro.core import Allocator
        from repro.core.objectives import objective_from_spec
        from repro.core.optimize import bin_search
        from repro.workloads import random_taskset, ring_architecture

        if backend == "fast" and not core_mod.backend_status()["fast"][
                "available"]:
            pytest.skip("compiled backend unavailable")
        monkeypatch.setattr(core_mod, "_default", backend)
        arch = ring_architecture(3)
        tasks = random_taskset(arch, 6, total_util=0.6, seed=1)
        enc, cost_var, lo, hi, _ = Allocator(tasks, arch)._encode(
            objective_from_spec("sum_resp"))
        sat = enc.solver.sat
        assert sat.core.name == backend
        assert enc.solver.blaster.library == backend
        h = hashlib.sha256()

        def hook(learnt, bt):
            h.update(repr((list(learnt), bt)).encode())

        sat.learn_hook = hook
        outcome = bin_search(enc.solver, cost_var, lo, hi)
        h.update(sat.activity.tobytes())
        assert outcome.optimum == 246 and outcome.proven
        assert sat.stats.conflicts == SEARCH_CONFLICTS
        assert h.hexdigest() == SEARCH_DIGEST


# SHA-256 of the provenance tag map (``Solver.cla_tag``: clause id ->
# label) an encoding leaves in the engine, recorded while every
# ``IntSolver`` operation still loaded its own clauses.  Deferring the
# loads to one per encoding must keep every clause's tag: a labelled
# ``require`` loads its own records inside its tag.
TAG_DIGESTS = {
    ("table4-arch-a", False): (
        27135,
        "bfbaf5a3b1849c2d998737d5ab28d4e4b0072a8b2bf8d1e49663103609725b35"),
    ("table4-arch-a", True): (
        27178,
        "77cd66032447fd083c7cf1b4fa2c6b7710bdc4a81499aa294fa4012d7f116c55"),
    ("ring5-t10", False): (
        18723,
        "eff4d630e8a6a13bb1f40339eb979c6bfe6edaee43feaf462033bff8241328ed"),
    ("ring5-t10", True): (
        18754,
        "d9de4de482694ac81b1993cb1dfb54b910c6c43240e9e73bda99b3177348e454"),
}

#: ``Solver.add_clauses`` calls of one ring6-t16 encoding: 889 while
#: every ``IntSolver`` operation loaded its own clauses, 107 with one
#: load per encoding plus about two per labelled ``require`` (what was
#: pending before its tag opened, then its own records).
RING6_T16_MAX_LOADS = 110


class TestDeferredLoading:
    @pytest.mark.parametrize("name,diagnostics", sorted(TAG_DIGESTS))
    def test_provenance_tags_are_pinned(self, name, diagnostics):
        import json

        from repro.core import Allocator

        tasks, arch, objective = _digest_system(name)
        enc, *_ = Allocator(
            tasks, arch, EncoderConfig(diagnostics=diagnostics)
        )._encode(objective)
        tags = enc.solver.sat.cla_tag
        digest = hashlib.sha256(
            json.dumps(sorted(tags.items())).encode()).hexdigest()
        assert (len(tags), digest) == TAG_DIGESTS[name, diagnostics]

    def test_one_encoding_loads_in_few_calls(self, monkeypatch):
        from repro.core import Allocator
        from repro.sat.solver import Solver

        calls = []
        load = Solver.add_clauses

        def counting(self, buf, new_vars=0):
            calls.append(len(buf))
            return load(self, buf, new_vars)

        monkeypatch.setattr(Solver, "add_clauses", counting)
        tasks, arch, objective = _digest_system("ring6-t16")
        enc, *_ = Allocator(tasks, arch)._encode(objective)
        assert _db_digest(enc.solver.sat) == ENCODING_DIGESTS["ring6-t16"]
        assert len(calls) <= RING6_T16_MAX_LOADS, len(calls)
        assert not enc.solver.blaster.pending


class TestDeferredLoadingReference(OnLibrary, TestDeferredLoading):
    library = "pure"


class TestDeferredLoadingCompiled(OnLibrary, TestDeferredLoading):
    library = "fast"
