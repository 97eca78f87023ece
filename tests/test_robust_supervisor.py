"""Tests of graceful degradation (repro.robust.supervisor) and its
surfacing through the CLI."""

import json

from repro.core import Allocator, MinimizeTRT, SolveRequest
from repro.model import (
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)
from repro.robust import Budget, SolveSupervisor


def feasible_system():
    arch = Architecture(
        ecus=[Ecu("p0"), Ecu("p1")],
        media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                      bit_rate=1_000_000, frame_overhead_bits=0,
                      min_slot=50, slot_overhead=10)],
    )
    tasks = TaskSet([
        Task("a", 2000, {"p0": 400, "p1": 400}, 2000,
             messages=(Message("b", 100, 1000),),
             separated_from=frozenset({"b"})),
        Task("b", 2000, {"p0": 400, "p1": 400}, 2000),
    ])
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
    ])
    return tasks, arch


class TestEscalationChain:
    def test_healthy_solve_is_optimal_first_try(self):
        tasks, arch = feasible_system()
        out = SolveSupervisor(tasks, arch, MinimizeTRT("ring")).solve()
        assert out.status == "optimal"
        assert out.proven and out.usable
        assert out.result is not None and out.result.verified
        assert [s.stage for s in out.stages] == ["incremental"]

    def test_budget_starved_solve_degrades_to_heuristic(self):
        tasks, arch = feasible_system()
        out = SolveSupervisor(
            tasks, arch,
            request=SolveRequest(
                objective=MinimizeTRT("ring"),
                budget=Budget(max_decisions=1),
            ),
        ).solve()
        assert out.usable
        assert out.status in ("upper_bound", "heuristic")
        assert not out.proven
        stages = {s.stage: s.status for s in out.stages}
        # The rebuild stage must NOT burn a dead budget.
        assert stages.get("rebuild") == "skipped"

    def test_incremental_stage_keeps_the_callers_request(self, tmp_path):
        tasks, arch = feasible_system()
        ck = str(tmp_path / "ck.json")
        sup = SolveSupervisor(tasks, arch, request=SolveRequest(
            objective=MinimizeTRT("ring"), checkpoint=ck,
        ))
        req = sup._stage_request("incremental")
        assert req == sup.request
        assert req.reuse_learned and req.checkpoint == ck

    def test_rebuild_stage_drops_reuse_and_checkpoint(self, tmp_path):
        tasks, arch = feasible_system()
        sup = SolveSupervisor(tasks, arch, request=SolveRequest(
            objective=MinimizeTRT("ring"),
            checkpoint=str(tmp_path / "ck.json"), certify=True,
            proof_log=str(tmp_path / "run.proof"),
        ))
        req = sup._stage_request("rebuild")
        assert not req.reuse_learned and req.checkpoint is None
        assert req.proof_log is None  # fresh encodings take no spool
        assert req.certify  # everything else carries over

    def test_incremental_crash_escalates_to_rebuild(self, monkeypatch):
        tasks, arch = feasible_system()
        real = Allocator._minimize

        def crash_incremental(self, objective, request):
            if request.reuse_learned:
                raise RuntimeError("injected incremental crash")
            return real(self, objective, request)

        monkeypatch.setattr(Allocator, "_minimize", crash_incremental)
        out = SolveSupervisor(tasks, arch, MinimizeTRT("ring")).solve()
        assert out.status == "optimal"  # the rebuild stage recovered
        assert out.proven
        stages = {s.stage: s.status for s in out.stages}
        assert stages["incremental"] == "failed"
        assert stages["rebuild"] == "optimal"
        failed = [s for s in out.stages if s.status == "failed"]
        assert "injected incremental crash" in failed[0].detail
        assert "Traceback" in failed[0].detail

    def test_total_exact_failure_falls_back_to_heuristic(self, monkeypatch):
        tasks, arch = feasible_system()
        monkeypatch.setattr(
            Allocator, "minimize",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("injected exact failure")),
        )
        out = SolveSupervisor(tasks, arch, MinimizeTRT("ring")).solve()
        assert out.status == "heuristic"
        assert out.usable and not out.proven
        assert out.cost is not None
        stages = [s.stage for s in out.stages]
        assert stages[:2] == ["incremental", "rebuild"]
        assert stages[2].startswith("heuristic:")

    def test_no_heuristics_means_honest_unknown(self, monkeypatch):
        tasks, arch = feasible_system()
        monkeypatch.setattr(
            Allocator, "minimize",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("injected exact failure")),
        )
        out = SolveSupervisor(
            tasks, arch,
            request=SolveRequest(
                objective=MinimizeTRT("ring"), heuristics=()
            ),
        ).solve()
        assert out.status == "unknown"
        assert not out.usable

    def test_infeasible_is_certified_not_degraded(self):
        tasks, arch = infeasible_system()
        out = SolveSupervisor(tasks, arch, MinimizeTRT("ring")).solve()
        assert out.status == "infeasible"
        assert out.proven
        assert not out.usable
        # No heuristic stage ran: a certificate is a final answer.
        assert all(not s.stage.startswith("heuristic")
                   for s in out.stages)

    def test_heuristic_failure_tries_next_in_chain(self, monkeypatch):
        tasks, arch = feasible_system()
        monkeypatch.setattr(
            Allocator, "minimize",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("injected exact failure")),
        )
        import repro.baselines.greedy as greedy_mod

        monkeypatch.setattr(
            greedy_mod, "greedy_first_fit",
            lambda *a, **k: (_ for _ in ()).throw(
                RuntimeError("injected greedy failure")),
        )
        out = SolveSupervisor(
            tasks, arch,
            request=SolveRequest(
                objective=MinimizeTRT("ring"),
                heuristics=("greedy", "annealing"),
            ),
        ).solve()
        assert out.status == "heuristic"  # annealing caught the ball
        stages = {s.stage: s.status for s in out.stages}
        assert stages["heuristic:greedy"] == "failed"
        assert stages["heuristic:annealing"] == "heuristic"


class TestCliSupervision:
    def _write_system(self, tmp_path, builder):
        from repro.io import save_system

        tasks, arch = builder()
        path = tmp_path / "system.json"
        save_system(tasks, arch, path)
        return str(path)

    def test_budget_flag_reports_proven_optimum(self, tmp_path, capsys):
        from repro.cli import main

        sysf = self._write_system(tmp_path, feasible_system)
        out_file = tmp_path / "alloc.json"
        rc = main(["solve", sysf, "--objective", "trt:ring",
                   "--budget", "60", "-o", str(out_file)])
        assert rc == 0
        assert "proven optimum" in capsys.readouterr().out
        data = json.loads(out_file.read_text())
        assert data["proven"] is True
        assert data["status"] == "optimal"

    def test_starved_budget_degrades_but_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        sysf = self._write_system(tmp_path, feasible_system)
        out_file = tmp_path / "alloc.json"
        rc = main(["solve", sysf, "--objective", "trt:ring",
                   "--budget-conflicts", "0", "-o", str(out_file)])
        assert rc == 0  # usable allocation, honest status
        out = capsys.readouterr().out
        assert "unproven" in out
        data = json.loads(out_file.read_text())
        assert data["proven"] is False
        assert data["status"] in ("upper_bound", "heuristic")

    def test_infeasible_under_budget_exit_code(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core import ExitCode

        sysf = self._write_system(tmp_path, infeasible_system)
        rc = main(["solve", sysf, "--objective", "trt:ring",
                   "--budget", "60"])
        assert rc == int(ExitCode.INFEASIBLE)

    def test_checkpointed_cli_resume(self, tmp_path, capsys):
        from repro.cli import main

        sysf = self._write_system(tmp_path, feasible_system)
        ck = tmp_path / "search.ckpt.json"
        rc = main(["solve", sysf, "--objective", "trt:ring",
                   "--checkpoint", str(ck)])
        assert rc == 0
        assert ck.exists()
        first = capsys.readouterr().out
        rc = main(["solve", sysf, "--objective", "trt:ring",
                   "--checkpoint", str(ck), "--resume"])
        assert rc == 0
        second = capsys.readouterr().out
        # Both certified the same optimum (the resume from a finished
        # checkpoint merely re-certifies it).
        line = [ln for ln in first.splitlines() if "cost =" in ln][0]
        assert line in second


class TestFlightRecorder:
    """Stage transitions land in the JSONL flight recorder, in order,
    with timestamps and reasons -- an operator can reconstruct *why* a
    solve degraded without re-running it."""

    @staticmethod
    def _events(path):
        from repro.robust import read_events

        return list(read_events(path))

    def _request(self, tmp_path, **kw):
        from repro.core.api import SolveRequest

        kw.setdefault("objective", MinimizeTRT("ring"))
        kw.setdefault("flight_log", str(tmp_path / "flight.jsonl"))
        return SolveRequest(**kw)

    def test_healthy_solve_sequence(self, tmp_path):
        tasks, arch = feasible_system()
        req = self._request(tmp_path)
        SolveSupervisor(tasks, arch, request=req).solve()
        events = self._events(req.flight_log)
        assert [e["event"] for e in events] == [
            "solve.start", "stage.start", "stage.end", "solve.end",
        ]
        assert events[0]["chain"] == ["incremental", "rebuild"]
        assert events[1]["stage"] == "incremental"
        assert events[2]["status"] == "optimal"
        assert events[3]["status"] == "optimal" and events[3]["proven"]
        assert all(e["actor"] == "supervisor" for e in events)
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_crash_escalation_records_reasons(self, tmp_path, monkeypatch):
        tasks, arch = feasible_system()
        monkeypatch.setattr(
            Allocator, "minimize",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("injected exact failure")),
        )
        req = self._request(tmp_path)
        out = SolveSupervisor(tasks, arch, request=req).solve()
        assert out.status == "heuristic"
        events = self._events(req.flight_log)
        names = [e["event"] for e in events]
        # Both exact stages fail with the recorded reason, then the
        # first heuristic answers.
        assert names == [
            "solve.start",
            "stage.start", "stage.end",   # incremental: failed
            "stage.start", "stage.end",   # rebuild: failed
            "stage.start", "stage.end",   # heuristic:greedy
            "solve.end",
        ]
        incremental_end = events[2]
        assert incremental_end["status"] == "failed"
        assert "injected exact failure" in incremental_end["reason"]
        assert events[5]["stage"] == "heuristic:greedy"
        assert events[7]["status"] == "heuristic"

    def test_budget_starved_solve_records_skip(self, tmp_path):
        tasks, arch = feasible_system()
        req = self._request(tmp_path, budget=Budget(max_decisions=1))
        out = SolveSupervisor(tasks, arch, request=req).solve()
        assert out.status in ("upper_bound", "heuristic")
        events = self._events(req.flight_log)
        skipped = [e for e in events if e["event"] == "stage.skipped"]
        assert skipped and skipped[0]["stage"] == "rebuild"
        assert skipped[0]["reason"] == "budget exhausted"

    def test_recorder_off_by_default(self, tmp_path):
        tasks, arch = feasible_system()
        sup_dir = list(tmp_path.iterdir())
        out = SolveSupervisor(tasks, arch, MinimizeTRT("ring")).solve()
        assert out.status == "optimal"
        assert list(tmp_path.iterdir()) == sup_dir  # nothing written
