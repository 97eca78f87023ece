"""The unified solve API (:mod:`repro.core.api`).

1. Every public entry point accepts only a :class:`SolveRequest`; the
   legacy per-entry-point kwargs raise :class:`TypeError`.
2. A request is validated when it is built: an unknown ``bounds_mode``
   raises :class:`ValueError` naming the allowed values instead of
   silently solving as ``auto``, an unknown heuristic name raises
   instead of failing as a last fallback stage, and
   ``reuse_learned=False`` with a ``proof_log`` raises instead of
   silently writing no artifact.
3. ``reuse_learned`` is the only probe-mode selector: both modes run
   the one binary search to the same certified envelope.
"""

import warnings

import pytest

from repro.core import Allocator, EncoderConfig, MinimizeSumTRT, SolveRequest
from repro.workloads import random_taskset, ring_architecture


@pytest.fixture(scope="module")
def small_system():
    arch = ring_architecture(3)
    tasks = random_taskset(arch, 8, 1.2, seed=3)
    return tasks, arch, MinimizeSumTRT()


@pytest.fixture(scope="module")
def sequential_result(small_system):
    tasks, arch, obj = small_system
    return Allocator(tasks, arch).minimize(
        request=SolveRequest(objective=obj)
    )


class TestLegacyShim:
    def test_minimize_legacy_kwargs_raise(self, small_system):
        tasks, arch, obj = small_system
        with pytest.raises(TypeError):
            Allocator(tasks, arch).minimize(obj, time_limit=300.0)

    def test_minimize_request_only_is_silent(self, small_system):
        tasks, arch, obj = small_system
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = Allocator(tasks, arch).minimize(
                request=SolveRequest(objective=obj)
            )
        assert res.feasible

    def test_minimize_accepts_request_positionally(self, small_system,
                                                   sequential_result):
        tasks, arch, obj = small_system
        res = Allocator(tasks, arch).minimize(SolveRequest(objective=obj))
        assert res.cost == sequential_result.cost

    def test_minimize_rejects_request_twice(self, small_system):
        tasks, arch, obj = small_system
        req = SolveRequest(objective=obj)
        with pytest.raises(TypeError):
            Allocator(tasks, arch).minimize(req, request=req)

    def test_find_feasible_legacy_kwarg_raises(self, small_system):
        tasks, arch, _ = small_system
        with pytest.raises(TypeError):
            Allocator(tasks, arch).find_feasible(verify=False)

    def test_supervisor_legacy_kwargs_raise(self, small_system):
        from repro.robust import Budget, SolveSupervisor

        tasks, arch, obj = small_system
        with pytest.raises(TypeError):
            SolveSupervisor(
                tasks, arch, obj, budget=Budget(wall_seconds=300.0)
            )
        sup = SolveSupervisor(
            tasks, arch,
            request=SolveRequest(
                objective=obj, budget=Budget(wall_seconds=300.0)
            ),
        )
        assert sup.budget is not None
        assert sup.request.objective is obj

    def test_unknown_legacy_kwarg_raises(self, small_system):
        tasks, arch, obj = small_system
        with pytest.raises(TypeError):
            Allocator(tasks, arch).minimize(obj, bogus=1)
        with pytest.raises(TypeError):
            SolveRequest(bogus=1)

    def test_solve_entry_point_matches_minimize(self, small_system,
                                                sequential_result):
        from repro.core import solve

        tasks, arch, obj = small_system
        report = solve(tasks, arch, SolveRequest(objective=obj))
        assert report.cost == sequential_result.cost
        assert int(report.exit_code) == 0


class TestRequestValidation:
    @pytest.mark.parametrize("value", ["of", "race"])
    def test_unknown_bounds_mode_rejected(self, value):
        with pytest.raises(ValueError, match=f"bounds_mode must be one of "
                                             f"auto, off; got '{value}'"):
            SolveRequest(objective=MinimizeSumTRT(), bounds_mode=value)
        with pytest.raises(ValueError, match="bounds_mode"):
            SolveRequest().merged(bounds_mode=value)

    @pytest.mark.parametrize("value", [("anealing",),
                                       ("greedy", "genetic")])
    def test_unknown_heuristic_rejected(self, value):
        with pytest.raises(ValueError, match=f"heuristics names must be "
                                             f"among greedy, annealing; "
                                             f"got '{value[-1]}'"):
            SolveRequest(objective=MinimizeSumTRT(), heuristics=value)
        with pytest.raises(ValueError, match="heuristics"):
            SolveRequest().merged(heuristics=value)
        # Every known name, and none at all, is fine.
        SolveRequest(heuristics=("annealing", "greedy"))
        SolveRequest(heuristics=())

    def test_fresh_encodings_reject_a_proof_log(self):
        with pytest.raises(ValueError, match="proof_log needs "
                                             "reuse_learned=True"):
            SolveRequest(objective=MinimizeSumTRT(), reuse_learned=False,
                         certify=True, proof_log="run.proof")
        with pytest.raises(ValueError, match="proof_log"):
            SolveRequest(proof_log="run.proof").merged(reuse_learned=False)
        # Either one alone is fine.
        SolveRequest(reuse_learned=False)
        SolveRequest(proof_log="run.proof")

    def test_no_reuse_with_proof_log_is_a_usage_error(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        from repro.io import save_system
        from tests.test_chaos_sites import tiny_system

        system = str(tmp_path / "system.json")
        save_system(*tiny_system(), system)
        proof = tmp_path / "x.proof"
        with pytest.raises(SystemExit) as exc:
            main(["solve", system, "--objective", "trt:ring", "--certify",
                  "--no-reuse", "--proof-log", str(proof)])
        assert exc.value.code not in (0, None, 2)
        assert "proof_log" in str(exc.value.code)
        assert not proof.exists()


class TestRemovedKnobs:
    """The parallel engine's and the portfolio's knobs, and the request,
    encoder and server knobs no caller needed, are gone without a shim: an old
    keyword fails with the dataclass's own TypeError, an old CLI flag
    with argparse's usage error."""

    @pytest.mark.parametrize("field, value", [
        ("processes", 2),
        ("speculate", 2),
        ("race", 2),
        ("share_max_len", 8),
        ("strategy", "rebuild"),
        ("strategy", "auto"),
        ("cell_timeout", 5.0),
        ("retries", 3),
        ("verify", False),
    ])
    def test_removed_request_field_raises_type_error(self, field, value):
        with pytest.raises(TypeError, match=field):
            SolveRequest(objective=MinimizeSumTRT(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_path_hops", 2),
        ("slot_upper", 75),
        ("pin_unused", False),
        ("enforce_priority_transitivity", False),
    ])
    def test_removed_encoder_knob_raises_type_error(self, field, value):
        # The encoder always does what these knobs' defaults did.
        with pytest.raises(TypeError, match=field):
            EncoderConfig(**{field: value})

    def test_removed_serve_knob_raises_type_error(self, tmp_path):
        # The server always persists checkpoints: drain and resume
        # need them.
        from repro.serve import ServeConfig

        with pytest.raises(TypeError, match="keep_checkpoints"):
            ServeConfig(state_dir=str(tmp_path), keep_checkpoints=False)

    @pytest.mark.parametrize("argv", [
        ["--speculate", "2"],
        ["--no-share-clauses"],
        ["--bounds", "race"],
    ])
    def test_removed_cli_flag_is_a_usage_error(self, argv, tmp_path,
                                               capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["solve", str(tmp_path / "system.json"), *argv])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err


class TestProbeModes:
    """Both probe modes of the one search (``reuse_learned``) reach the
    same certified envelope."""

    @pytest.mark.parametrize("reuse", [True, False],
                             ids=["incremental", "rebuild"])
    def test_probe_mode_matches_default(self, small_system,
                                        sequential_result, reuse):
        tasks, arch, obj = small_system
        res = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=obj, reuse_learned=reuse)
        )
        envelope = ("cost", "proven", "feasible")
        assert {k: getattr(res, k) for k in envelope} == {
            k: getattr(sequential_result, k) for k in envelope
        }
        assert res.verified

    @pytest.mark.parametrize("reuse", [True, False],
                             ids=["incremental", "rebuild"])
    def test_infeasible_is_certified_infeasible(self, reuse):
        from repro.model import (
            TOKEN_RING,
            Architecture,
            Ecu,
            Medium,
            Task,
            TaskSet,
        )

        arch = Architecture(
            ecus=[Ecu("p0"), Ecu("p1")],
            media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                          bit_rate=1_000_000, frame_overhead_bits=0,
                          min_slot=50, slot_overhead=10)],
        )
        tasks = TaskSet([  # 3 x 60% load on 2 ECUs: overloaded
            Task(f"t{i}", 100, {"p0": 60, "p1": 60}, 100) for i in range(3)
        ])
        res = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=MinimizeSumTRT(),
                                 reuse_learned=reuse)
        )
        assert (res.feasible, res.proven, res.status) == (
            False, True, "infeasible"
        )

    @pytest.mark.parametrize("reuse", [True, False],
                             ids=["incremental", "rebuild"])
    def test_certify_all_verified(self, reuse):
        from repro.core import MinimizeSumResponseTimes

        arch = ring_architecture(3)
        tasks = random_taskset(arch, 4, 1.2, seed=1)
        obj = MinimizeSumResponseTimes()
        plain = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=obj)
        )
        res = Allocator(tasks, arch).minimize(
            request=SolveRequest(objective=obj, reuse_learned=reuse,
                                 certify=True)
        )
        assert res.cost == plain.cost
        assert res.certified and res.certificate.all_verified
        # the run had UNSAT probes, so real DRUP proofs were checked
        assert any(
            p.kind == "unsat" and p.ok for p in res.certificate.probes
        )

    @pytest.mark.parametrize("objective", [
        "sum_trt", "trt:ring", "sum_resp", "max_util",
    ])
    def test_probe_modes_agree_on_every_objective(self, small_system,
                                                  objective):
        from repro.core.objectives import objective_from_spec

        tasks, arch, _ = small_system
        if objective == "sum_resp":
            # On the 8-task system fresh-encoding probes need ~24k
            # conflicts against ~5.6k incremental (nothing learnt
            # carries over), ~100 s on the pure core; 6 tasks keep the
            # search non-trivial at ~15 s.
            tasks = random_taskset(arch, 6, 1.2, seed=1)
        obj = objective_from_spec(objective)
        inc, reb = (
            Allocator(tasks, arch).minimize(
                request=SolveRequest(objective=obj, reuse_learned=reuse)
            )
            for reuse in (True, False)
        )
        assert (inc.cost, inc.proven, inc.status) == (
            reb.cost, reb.proven, reb.status
        )
        assert inc.verified and reb.verified
        if objective == "sum_resp":
            assert len(inc.outcome.probes) >= 4
            assert len(reb.outcome.probes) >= 4


class TestFingerprint:
    """Only answer-relevant fields address a request: the probe mode
    and the persistence/serving knobs never change the certified
    answer, so they never change the fingerprint."""

    @pytest.mark.parametrize("field, value", [
        ("reuse_learned", False),
        ("bounds_mode", "off"),
        ("flight_log", "flight.jsonl"),
    ])
    def test_answer_neutral_field_keeps_fingerprint(self, field, value):
        base = SolveRequest(objective=MinimizeSumTRT())
        assert base.merged(**{field: value}).fingerprint() == \
            base.fingerprint()

    def test_certify_changes_fingerprint(self):
        base = SolveRequest(objective=MinimizeSumTRT())
        assert base.merged(certify=True).fingerprint() != \
            base.fingerprint()
