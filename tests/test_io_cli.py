"""Tests for JSON serialization and the command-line interface."""

import json
import os

import pytest

from repro.analysis.allocation import Allocation, MsgRef
from repro.cli import main
from repro.core import ExitCode
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    load_system,
    save_system,
    system_from_dict,
    system_to_dict,
)
from repro.model import (
    CAN,
    TOKEN_RING,
    Architecture,
    Ecu,
    Medium,
    Message,
    Task,
    TaskSet,
)


def sample_system():
    arch = Architecture(
        ecus=[Ecu("p0", memory=512), Ecu("p1"),
              Ecu("gw", allow_tasks=False)],
        media=[
            Medium("ring", TOKEN_RING, ("p0", "gw"), bit_rate=1_000_000,
                   frame_overhead_bits=0, min_slot=50, slot_overhead=10),
            Medium("can", CAN, ("gw", "p1"), bit_rate=500_000),
        ],
    )
    tasks = TaskSet(
        [
            Task("a", 5000, {"p0": 400}, 2000,
                 messages=(Message("b", 128, 2500),),
                 allowed=frozenset({"p0"}), memory=64),
            Task("b", 5000, {"p0": 300, "p1": 300}, 5000,
                 separated_from=frozenset({"a"}), release_jitter=10),
        ],
        name="sample",
    )
    return tasks, arch


class TestSystemCodec:
    def test_roundtrip_preserves_everything(self):
        tasks, arch = sample_system()
        data = system_to_dict(tasks, arch)
        tasks2, arch2 = system_from_dict(json.loads(json.dumps(data)))
        assert tasks2.names() == tasks.names()
        for n in tasks.names():
            t1, t2 = tasks[n], tasks2[n]
            assert t1.period == t2.period
            assert t1.wcet == t2.wcet
            assert t1.deadline == t2.deadline
            assert t1.messages == t2.messages
            assert t1.allowed == t2.allowed
            assert t1.separated_from == t2.separated_from
            assert t1.release_jitter == t2.release_jitter
            assert t1.memory == t2.memory
        assert arch2.ecu_names() == arch.ecu_names()
        assert arch2.ecus["p0"].memory == 512
        assert not arch2.ecus["gw"].allow_tasks
        for k in arch.medium_names():
            m1, m2 = arch.media[k], arch2.media[k]
            assert m1.kind == m2.kind
            assert m1.ecus == m2.ecus
            assert m1.bit_rate == m2.bit_rate

    def test_file_roundtrip(self, tmp_path):
        tasks, arch = sample_system()
        path = tmp_path / "system.json"
        save_system(tasks, arch, path)
        tasks2, arch2 = load_system(path)
        assert tasks2.names() == tasks.names()

    def test_invalid_system_rejected(self):
        data = system_to_dict(*sample_system())
        data["tasks"][0]["period"] = -5
        with pytest.raises(ValueError):
            system_from_dict(data)


class TestAllocationCodec:
    def test_roundtrip(self):
        ref = MsgRef("a", 0)
        alloc = Allocation(
            task_ecu={"a": "p0", "b": "p1"},
            task_prio={"a": 0, "b": 1},
            message_path={ref: ("ring", "can")},
            slot_ticks={("ring", "p0"): 60},
            local_deadline={(ref, "ring"): 100, (ref, "can"): 200},
            msg_prio={ref: 0},
        )
        data = json.loads(json.dumps(allocation_to_dict(alloc)))
        alloc2 = allocation_from_dict(data)
        assert alloc2.task_ecu == alloc.task_ecu
        assert alloc2.task_prio == alloc.task_prio
        assert alloc2.message_path == alloc.message_path
        assert alloc2.slot_ticks == alloc.slot_ticks
        assert alloc2.local_deadline == alloc.local_deadline
        assert alloc2.msg_prio == alloc.msg_prio

    def test_bad_ref_rejected(self):
        with pytest.raises(ValueError):
            allocation_from_dict(
                {"task_ecu": {}, "task_prio": {},
                 "message_path": {"nonsense": []}}
            )


@pytest.fixture
def system_file(tmp_path):
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
    path = tmp_path / "system.json"
    save_system(tasks, arch, path)
    return path


@pytest.fixture
def infeasible_file(tmp_path):
    arch = Architecture(
        ecus=[Ecu("p0"), Ecu("p1")],
        media=[Medium("ring", TOKEN_RING, ("p0", "p1"),
                      bit_rate=1_000_000, frame_overhead_bits=0,
                      min_slot=50, slot_overhead=10)],
    )
    tasks = TaskSet([
        Task(f"t{i}", 100, {"p0": 60, "p1": 60}, 100) for i in range(3)
    ])
    path = tmp_path / "bad.json"
    save_system(tasks, arch, path)
    return path


class TestCli:
    def test_info(self, system_file, capsys):
        assert main(["info", str(system_file)]) == 0
        out = capsys.readouterr().out
        assert "tasks: 2" in out
        assert "path closures" in out

    def test_solve_with_objective(self, system_file, tmp_path, capsys):
        out_file = tmp_path / "alloc.json"
        rc = main([
            "solve", str(system_file), "--objective", "trt:ring",
            "-o", str(out_file),
        ])
        assert rc == 0
        data = json.loads(out_file.read_text())
        assert data["cost"] == 160  # sender slot 110 + min slot 50
        out = capsys.readouterr().out
        assert "independently verified: True" in out

    def test_solve_feasibility_only(self, system_file, capsys):
        assert main(["solve", str(system_file)]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_solve_infeasible_exit_code(self, infeasible_file):
        assert main(["solve", str(infeasible_file)]) == int(
            ExitCode.INFEASIBLE
        )

    def test_solve_stats_prints_encode_stats_json(self, system_file,
                                                  capsys):
        rc = main(["solve", str(system_file), "--objective", "trt:ring",
                   "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        # Stats are the first JSON object on stdout (the allocation
        # dump follows when no -o path is given).
        stats, _ = json.JSONDecoder().raw_decode(out[out.index("{"):])
        for key in ("cnf_vars", "cnf_clauses", "triplet_defs", "gates",
                    "t_blast", "t_load", "t_total"):
            assert key in stats, key
        assert stats["t_load"] > 0
        assert stats["cnf_clauses"] > 0
        # SAT-engine counters ride along as a "solver" block.
        solver = stats["solver"]
        for key in ("propagations", "props_per_sec", "backend",
                    "conflicts", "decisions"):
            assert key in solver, key
        assert solver["propagations"] > 0
        assert solver["backend"] in ("pure", "fast")

    def test_solve_backend_flag_selects_core(self, system_file, capsys,
                                             monkeypatch):
        from repro.sat.core import BACKEND_ENV, set_default_backend

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        try:
            rc = main(["solve", str(system_file), "--objective",
                       "trt:ring", "--stats", "--backend", "pure"])
            assert rc == 0
            out = capsys.readouterr().out
            stats, _ = json.JSONDecoder().raw_decode(out[out.index("{"):])
            assert stats["solver"]["backend"] == "pure"
            # The flag exports the choice for spawned workers too.
            assert os.environ[BACKEND_ENV] == "pure"
        finally:
            # delenv recorded nothing when the variable was unset, so
            # drop the export here or the rest of the session runs on
            # the pure core; monkeypatch restores a preset value.
            os.environ.pop(BACKEND_ENV, None)
            set_default_backend(None)

    def test_solve_no_simplify_matches_default_cost(self, system_file,
                                                    capsys):
        assert main(["solve", str(system_file), "--objective",
                     "trt:ring"]) == 0
        default_out = capsys.readouterr().out
        assert main(["solve", str(system_file), "--objective", "trt:ring",
                     "--no-simplify", "--no-narrow-bits"]) == 0
        plain_out = capsys.readouterr().out
        pick = (lambda s: [ln for ln in s.splitlines() if "cost" in ln])
        assert pick(default_out) == pick(plain_out)

    def test_solve_no_reuse_matches_default(self, system_file, tmp_path):
        inc_file = tmp_path / "inc.json"
        reb_file = tmp_path / "reb.json"
        assert main(["solve", str(system_file), "--objective", "trt:ring",
                     "-o", str(inc_file)]) == 0
        assert main(["solve", str(system_file), "--objective", "trt:ring",
                     "--no-reuse", "-o", str(reb_file)]) == 0
        inc = json.loads(inc_file.read_text())
        reb = json.loads(reb_file.read_text())
        assert reb["cost"] == inc["cost"] == 160

    def test_solve_no_reuse_infeasible_exit_code(self, infeasible_file):
        assert main(["solve", str(infeasible_file), "--objective",
                     "sum_trt", "--no-reuse"]) == int(ExitCode.INFEASIBLE)

    def test_check_roundtrip(self, system_file, tmp_path, capsys):
        out_file = tmp_path / "alloc.json"
        main(["solve", str(system_file), "--objective", "trt:ring",
              "-o", str(out_file)])
        capsys.readouterr()
        assert main(["check", str(system_file), str(out_file)]) == 0
        assert "SCHEDULABLE" in capsys.readouterr().out

    def test_check_detects_bad_allocation(self, system_file, tmp_path,
                                          capsys):
        # Co-locate the separated pair on purpose.
        alloc = Allocation(
            task_ecu={"a": "p0", "b": "p0"},
            task_prio={"a": 0, "b": 1},
            message_path={MsgRef("a", 0): ()},
        )
        bad = tmp_path / "bad_alloc.json"
        bad.write_text(json.dumps(allocation_to_dict(alloc)))
        assert main(["check", str(system_file), str(bad)]) == int(
            ExitCode.INFEASIBLE
        )
        assert "NOT SCHEDULABLE" in capsys.readouterr().out

    def test_diagnose_feasible(self, system_file, capsys):
        assert main(["diagnose", str(system_file)]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_diagnose_infeasible(self, infeasible_file, capsys):
        assert main(["diagnose", str(infeasible_file)]) == int(
            ExitCode.INFEASIBLE
        )
        out = capsys.readouterr().out
        assert "deadline" in out

    def test_export_opb(self, system_file, tmp_path):
        out_file = tmp_path / "instance.opb"
        assert main(["export", str(system_file), "--format", "opb",
                     "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert text.startswith("*")
        assert ">=" in text

    def test_export_dimacs(self, system_file, tmp_path):
        out_file = tmp_path / "instance.cnf"
        assert main(["export", str(system_file), "--format", "dimacs",
                     "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith("p cnf")

    def test_solve_certify_prints_verdict(self, system_file, capsys):
        rc = main(["solve", str(system_file), "--objective", "trt:ring",
                   "--certify"])
        assert rc == 0
        out = capsys.readouterr().out
        cert_lines = [ln for ln in out.splitlines()
                      if ln.startswith("certified:")]
        assert cert_lines and "all verified" in cert_lines[0]

    def test_solve_certify_feasibility_only(self, system_file, capsys):
        assert main(["solve", str(system_file), "--certify"]) == 0
        assert "certified: all verified" in capsys.readouterr().out

    def test_solve_certify_infeasible_keeps_exit_code(self, infeasible_file,
                                                      capsys):
        # The infeasibility itself is proof-checked; the verified
        # certificate must not mask the infeasible exit code.
        assert main(["solve", str(infeasible_file), "--certify"]) == int(
            ExitCode.INFEASIBLE
        )
        out = capsys.readouterr().out
        assert "certified: all verified" in out
        assert "unsat proof-checked" in out

    def test_solve_certify_stats_block(self, system_file, capsys):
        rc = main(["solve", str(system_file), "--objective", "trt:ring",
                   "--certify", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        stats, _ = json.JSONDecoder().raw_decode(out[out.index("{"):])
        assert "certify" in stats
        cert = stats["certify"]
        for key in ("probes", "sat_probes", "unsat_probes", "verified",
                    "proof_lines", "proof_steps_checked", "check_seconds",
                    "audit_seconds", "probe_verdicts"):
            assert key in cert, key
        assert cert["verified"] is True
        assert cert["probes"] >= 1
        assert len(cert["probe_verdicts"]) == cert["probes"]

    def test_solve_stats_without_certify_has_no_block(self, system_file,
                                                      capsys):
        rc = main(["solve", str(system_file), "--objective", "trt:ring",
                   "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        stats, _ = json.JSONDecoder().raw_decode(out[out.index("{"):])
        assert "certify" not in stats

    def test_bad_objective_spec(self, system_file):
        with pytest.raises(SystemExit):
            main(["solve", str(system_file), "--objective", "bogus"])
        with pytest.raises(SystemExit):
            main(["solve", str(system_file), "--objective", "trt"])


class TestExitCodes:
    """Satellite (b): the one ExitCode enum, used everywhere."""

    def test_values_are_the_documented_contract(self):
        assert int(ExitCode.OK) == 0
        assert int(ExitCode.ERROR) == 1
        assert int(ExitCode.INFEASIBLE) == 2
        assert int(ExitCode.CERTIFICATE_FAILED) == 3
        assert int(ExitCode.BUDGET_EXHAUSTED) == 4

    def test_is_int_enum(self):
        # argparse/sys.exit interop requires plain-int behaviour.
        assert ExitCode.OK == 0
        assert isinstance(ExitCode.INFEASIBLE, int)

    def test_budget_exhausted_exit_code(self, system_file, capsys):
        # A conflict budget of zero expires before the solver can settle
        # anything: no model, no proof -> exit code 4, not "infeasible".
        rc = main(["solve", str(system_file), "--budget-conflicts", "0"])
        assert rc == int(ExitCode.BUDGET_EXHAUSTED)
        assert "UNKNOWN" in capsys.readouterr().err


class TestCliAnalyze:
    def test_analyze_solved_allocation(self, system_file, tmp_path,
                                       capsys):
        out_file = tmp_path / "alloc.json"
        main(["solve", str(system_file), "--objective", "trt:ring",
              "-o", str(out_file)])
        capsys.readouterr()
        rc = main(["analyze", str(system_file), str(out_file),
                   "--simulate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "WCET scaling margin" in out
        assert "simulation cross-check: OK" in out
        assert "TRT=" in out

    def test_analyze_rejects_broken_allocation(self, system_file,
                                               tmp_path, capsys):
        alloc = Allocation(
            task_ecu={"a": "p0", "b": "p0"},  # violates separation
            task_prio={"a": 0, "b": 1},
            message_path={MsgRef("a", 0): ()},
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(allocation_to_dict(alloc)))
        assert main(["analyze", str(system_file), str(bad)]) == int(
            ExitCode.INFEASIBLE
        )
        assert "NOT SCHEDULABLE" in capsys.readouterr().out


_SWEEP = ["sweep", "--utils", "0.5,0.8", "--seeds", "0-1", "--ecus", "3",
          "--tasks", "4", "--time-limit", "60"]


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    """Route ``tempfile`` into a fresh directory and return a probe
    listing the private fabric stores left in it."""
    import tempfile

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    return lambda: sorted(scratch.glob("repro-fabric-*"))


class TestCliSweep:
    def test_plain_sweep_writes_summary_and_drops_its_store(
            self, tmp_path, private_tmp, capsys):
        out_file = tmp_path / "summary.json"
        rc = main(_SWEEP + ["--workers", "2", "--cell-timeout", "60",
                            "-o", str(out_file)])
        assert rc == int(ExitCode.OK)
        summary = json.loads(out_file.read_text())
        assert len(summary["cells"]) == 4
        assert all(c["error"] is None and c["value"]["feasible"]
                   for c in summary["cells"])
        assert summary["fabric"]["completed"] == 4
        assert summary["fabric"]["events_path"] is None
        assert private_tmp() == []  # the store is gone
        assert "4 completed" in capsys.readouterr().err

    def test_checkpoint_flag_is_an_argparse_usage_error(self, tmp_path,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            main(_SWEEP + ["--checkpoint", str(tmp_path / "ck.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "unrecognized arguments: --checkpoint" in err

    def test_chaos_profile_runs_without_fabric_dir(self, tmp_path,
                                                   private_tmp):
        out_file = tmp_path / "summary.json"
        chaos_dir = tmp_path / "chaos"
        rc = main(_SWEEP + ["--workers", "2", "--lease-ttl", "0.5",
                            "--retries", "4",
                            "--chaos-profile", "fabric",
                            "--chaos-dir", str(chaos_dir),
                            "-o", str(out_file)])
        assert rc == int(ExitCode.OK)
        summary = json.loads(out_file.read_text())
        assert all(c["error"] is None for c in summary["cells"])
        events = (chaos_dir / "chaos-events.jsonl").read_text()
        assert "fabric.worker.claim" in events  # the crash fired
        assert private_tmp() == []

    def test_inline_sweep_rejects_a_crash_schedule(self, tmp_path):
        chaos_dir = tmp_path / "chaos"
        with pytest.raises(SystemExit, match="crash fault"):
            main(_SWEEP + ["--workers", "0", "--chaos-profile", "fabric",
                           "--chaos-dir", str(chaos_dir)])
        assert not (chaos_dir / "chaos-events.jsonl").exists()

    def test_inline_sweep_rejects_a_cell_timeout(self):
        with pytest.raises(SystemExit, match="job_timeout"):
            main(_SWEEP + ["--workers", "0", "--cell-timeout", "5"])

    def test_private_store_returns_the_kept_store_values(self, tmp_path,
                                                         private_tmp):
        from repro.cli import _sweep_cell
        from repro.fabric import ResultStore, fabric_sweep

        cells = [[u, s, 3, 4, "sum_resp", 60.0]
                 for u in (0.5, 0.8) for s in (0, 1)]
        kept_dir = str(tmp_path / "kept")
        kept = fabric_sweep(_sweep_cell, cells, fabric_dir=kept_dir,
                            workers=0)
        private = fabric_sweep(_sweep_cell, cells, workers=0)

        def answers(outcome):  # everything but the wall-clock field
            return [{k: v for k, v in r.value.items() if k != "seconds"}
                    for r in outcome.results]

        assert kept.complete and private.complete
        assert answers(private) == answers(kept)
        assert len(ResultStore(kept_dir).scan().records) == 4
        assert private_tmp() == []
