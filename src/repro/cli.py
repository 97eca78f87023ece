"""Command-line interface: ``python -m repro <command>``.

Commands
--------

- ``info <system.json>`` -- summarize a system (tasks, utilization,
  media, path closures),
- ``solve <system.json> --objective trt:ring`` -- find the optimal
  allocation and print (or ``-o`` write) it as JSON; ``--budget`` /
  ``--budget-conflicts`` bound the search (supervised, with heuristic
  fallback), ``--checkpoint``/``--resume`` persist and continue an
  interrupted binary search,
- ``check <system.json> <allocation.json>`` -- re-run the independent
  schedulability analysis on a stored allocation,
- ``diagnose <system.json>`` -- explain an infeasible system by a
  minimal conflicting set of requirements,
- ``export <system.json> --format opb|dimacs`` -- dump the bit-blasted
  constraint system for external solvers,
- ``sweep --utils 0.6,1.2 --seeds 0-3 --fabric-dir DIR --workers 4`` --
  run a random-workload sweep through the crash-surviving experiment
  fabric: cells are content-addressed jobs under lease-based work
  stealing; ``--fabric-dir`` keeps the store (dedupe and resume across
  runs/machines), without it a private temporary store is used and
  deleted (see ``docs/FABRIC.md``).

Objectives: ``trt:<medium>``, ``sum_trt``, ``can:<medium>``,
``sum_resp``, ``max_util``.

``solve`` builds one :class:`repro.core.SolveRequest` from argv, so the
CLI and the library cannot drift apart.  Exit codes follow
:class:`repro.core.ExitCode`: 0 answer produced, 1 usage/internal
error, 2 certified infeasibility / failed schedulability, 3 certificate
failure under ``--certify``, 4 budget exhausted before anything usable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.feasibility import check_allocation
from repro.core import (
    Allocator,
    EncoderConfig,
    ExitCode,
    ProblemEncoding,
    SolveRequest,
    objective_from_spec,
)
from repro.core.diagnose import diagnose
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    load_system,
)
from repro.model.paths import enumerate_path_closures

__all__ = ["main", "build_parser"]


def _objective_from_spec(spec: str):
    try:
        return objective_from_spec(spec)
    except ValueError as exc:
        raise SystemExit(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAT-based optimal task allocation "
        "(Metzner et al., IPPS 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="summarize a system file")
    p_info.add_argument("system")

    p_solve = sub.add_parser("solve", help="find an optimal allocation")
    p_solve.add_argument("system")
    p_solve.add_argument(
        "--objective", default=None,
        help="trt:<medium> | sum_trt | can:<medium> | sum_resp | max_util "
        "(omit for a plain feasibility check)",
    )
    p_solve.add_argument("--time-limit", type=float, default=None)
    p_solve.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-time budget; the solve is supervised and degrades "
        "gracefully (anytime bound or heuristic) when it expires",
    )
    p_solve.add_argument(
        "--budget-conflicts", type=int, default=None, metavar="N",
        help="conflict budget for the SAT search (combinable with --budget)",
    )
    p_solve.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write binary-search progress to this JSON file",
    )
    p_solve.add_argument(
        "--resume", action="store_true",
        help="resume the binary search from --checkpoint if it exists",
    )
    p_solve.add_argument(
        "--no-reuse", action="store_true",
        help="run every binary-search probe after the first on a fresh "
        "encoding (the paper's section-7 baseline, no learnt-clause "
        "reuse); honours --bounds and --checkpoint, rejects --proof-log",
    )
    p_solve.add_argument(
        "--certify", action="store_true",
        help="certify every answer: UNSAT probes log a DRUP-style proof "
        "replayed by an independent checker, SAT probes are re-audited "
        "against the analysis; exit code 3 on any certificate failure",
    )
    p_solve.add_argument(
        "--bounds", choices=("off", "auto"), default="auto",
        help="certified dual-bounds sidecar (relaxation lower bounds "
        "with audited certificates + repaired heuristic upper bounds): "
        "auto resolves before the search, off disables it; the "
        "certified answer is bit-identical either way (see "
        "docs/BOUNDS.md)",
    )
    p_solve.add_argument(
        "--proof-log", default=None, metavar="PATH",
        help="with --certify, spool the DRUP proof to this crash-safe "
        "length-prefixed artifact (torn tails are detected on reload)",
    )
    p_solve.add_argument(
        "--chaos-seed", type=int, default=None, metavar="N",
        help="inject a deterministic randomized fault schedule "
        "(testing/drills; see docs/ROBUSTNESS.md)",
    )
    p_solve.add_argument(
        "--chaos-profile", default=None, metavar="NAME",
        help="inject a named fault profile instead of a seeded one "
        "(checkpoint-torture, proof-tamper, fabric, serve, full-stack, "
        "resource)",
    )
    p_solve.add_argument(
        "--chaos-dir", default=None, metavar="DIR",
        help="state directory for chaos trigger counts and the event "
        "log (default: a fresh temporary directory)",
    )
    p_solve.add_argument(
        "--disk-quota", default=None, metavar="BYTES",
        help="bound the summed size of this solve's state files "
        "(checkpoint generations evicted first, flight log rotated; "
        "proof spools are condemned typed, never truncated); accepts "
        "k/M/G suffixes (see docs/GOVERNOR.md)",
    )
    p_solve.add_argument(
        "--mem-watermark", default=None, metavar="BYTES",
        help="memory watermark: graduated degradation (learnt-DB "
        "reduction, cache shrink, budget cancellation) as usage "
        "approaches this many bytes; k/M/G suffixes",
    )
    p_solve.add_argument("--pb", action="store_true",
                         help="pseudo-Boolean adder axioms (GOBLIN mode)")
    p_solve.add_argument(
        "--backend", choices=("auto", "pure", "fast"), default=None,
        help="SAT propagation core: pure Python reference, compiled C "
        "core, or auto (fast when buildable; see docs/SOLVER.md)",
    )
    p_solve.add_argument(
        "--stats", action="store_true",
        help="print the EncodeStats JSON (hash-consing, simplification, "
        "triplet, bit-blast counters and per-stage times) plus the "
        "SAT-engine counters (propagations, props_per_sec, backend)",
    )
    p_solve.add_argument(
        "--no-simplify", action="store_true",
        help="disable the algebraic simplification pass (ablation)",
    )
    p_solve.add_argument(
        "--no-narrow-bits", action="store_true",
        help="disable bit-width narrowing of non-negative variables "
        "(ablation)",
    )
    p_solve.add_argument("-o", "--output", default=None,
                         help="write the allocation JSON here")

    p_check = sub.add_parser("check", help="verify a stored allocation")
    p_check.add_argument("system")
    p_check.add_argument("allocation")

    p_diag = sub.add_parser("diagnose", help="explain infeasibility")
    p_diag.add_argument("system")
    p_diag.add_argument("--no-minimize", action="store_true")

    p_exp = sub.add_parser("export", help="dump the constraint system")
    p_exp.add_argument("system")
    p_exp.add_argument("--format", choices=("opb", "dimacs"),
                       default="opb")
    p_exp.add_argument(
        "--stats", action="store_true",
        help="print the EncodeStats JSON to stderr after the dump",
    )
    p_exp.add_argument("-o", "--output", default=None)

    p_an = sub.add_parser(
        "analyze",
        help="render an allocation with sensitivity and chain latencies",
    )
    p_an.add_argument("system")
    p_an.add_argument("allocation")
    p_an.add_argument("--simulate", action="store_true",
                      help="also simulate and cross-check the bounds")

    p_sw = sub.add_parser(
        "sweep",
        help="random-workload sweep through the crash-surviving "
        "experiment fabric",
    )
    p_sw.add_argument(
        "--utils", default="0.6,1.2,1.8", metavar="U1,U2,...",
        help="total-utilization grid (comma separated)",
    )
    p_sw.add_argument(
        "--seeds", default="0-1", metavar="A-B|S1,S2,...",
        help="workload seeds: an inclusive range (0-3) or a comma list",
    )
    p_sw.add_argument("--ecus", type=int, default=3,
                      help="ring ECUs per generated architecture")
    p_sw.add_argument("--tasks", type=int, default=6,
                      help="tasks per generated workload")
    p_sw.add_argument("--objective", default="sum_resp",
                      help="cell objective (same specs as solve)")
    p_sw.add_argument(
        "--backend", choices=("auto", "pure", "fast"), default=None,
        help="SAT propagation core for every cell (workers inherit it "
        "through the environment)",
    )
    p_sw.add_argument("--time-limit", type=float, default=30.0,
                      help="per-cell solve time limit (seconds)")
    p_sw.add_argument(
        "--fabric-dir", default=None, metavar="DIR",
        help="keep the experiment fabric's store here: content-addressed "
        "jobs, append-only dedupe store, resume across runs and machines "
        "(docs/FABRIC.md); omit for a private temporary store",
    )
    p_sw.add_argument("--workers", type=int, default=2, metavar="N",
                      help="worker processes (0 = inline in this process; "
                      "inline rejects --cell-timeout and crash faults)")
    p_sw.add_argument(
        "--steal", action=argparse.BooleanOptionalAction, default=True,
        help="let idle workers claim any pending job, not just their "
        "own slice",
    )
    p_sw.add_argument("--lease-ttl", type=float, default=3.0,
                      metavar="SECONDS",
                      help="job lease time-to-live between heartbeats")
    p_sw.add_argument("--retries", type=int, default=2, metavar="N",
                      help="attempts per cell beyond the first before "
                      "poison quarantine")
    p_sw.add_argument("--cell-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="per-cell watchdog: the lease stops renewing "
                      "past this, so a peer steals the cell")
    p_sw.add_argument("--run-timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="overall wall bound; the fabric returns an "
                      "honest partial report at expiry")
    p_sw.add_argument("--compact", action="store_true",
                      help="compact the --fabric-dir store after the sweep")
    p_sw.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                      help="inject a deterministic randomized fault "
                      "schedule into the sweep workers")
    p_sw.add_argument("--chaos-profile", default=None, metavar="NAME",
                      help="inject a named fault profile (e.g. fabric)")
    p_sw.add_argument(
        "--disk-quota", default=None, metavar="BYTES",
        help="bound the sweep's tracked state files (fabric store "
        "growth surfaces as typed per-cell errors, never silent "
        "truncation); k/M/G suffixes (see docs/GOVERNOR.md)",
    )
    p_sw.add_argument(
        "--mem-watermark", default=None, metavar="BYTES",
        help="memory watermark for the coordinator process; k/M/G "
        "suffixes",
    )
    p_sw.add_argument("--chaos-dir", default=None, metavar="DIR",
                      help="state directory for chaos trigger counts "
                      "and the event log")
    p_sw.add_argument("-o", "--output", default=None,
                      help="write the summary JSON here")

    p_srv = sub.add_parser(
        "serve",
        help="run the long-lived allocation server (JSON lines over "
        "TCP; see docs/SERVING.md)",
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8571,
                       help="TCP port (0 = pick a free one and print it)")
    p_srv.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="durable state: search checkpoints (drain/resume), the "
        "serve-events.jsonl flight recorder",
    )
    p_srv.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrent solver threads")
    p_srv.add_argument("--queue-depth", type=int, default=8, metavar="N",
                       help="per-tenant admission queue bound; a full "
                       "queue sheds with a typed overloaded response")
    p_srv.add_argument(
        "--tenant-weight", action="append", default=[], metavar="NAME=W",
        help="weighted-fair share for a tenant (repeatable; default 1)",
    )
    p_srv.add_argument("--default-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="deadline applied to requests that name none")
    p_srv.add_argument("--max-tasks", type=int, default=None, metavar="N",
                       help="reject systems larger than this at admission")
    p_srv.add_argument("--certify", action="store_true",
                       help="audit every served answer even when the "
                       "request does not ask for it")
    p_srv.add_argument("--breaker-threshold", type=int, default=3,
                       metavar="N",
                       help="consecutive compiled-core faults before "
                       "tripping to the pure core")
    p_srv.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="SECONDS",
                       help="seconds between half-open compiled-core "
                       "probes once tripped")
    p_srv.add_argument("--cache-size", type=int, default=64, metavar="N",
                       help="warm-start cache entries (LRU)")
    p_srv.add_argument(
        "--bounds", choices=("off", "auto"), default="auto",
        help="compose the relaxation bounds sidecar with warm-cache "
        "hints on every solve (tightest audited bound wins); off "
        "serves warm-cache hints only",
    )
    p_srv.add_argument(
        "--backend", choices=("auto", "pure", "fast"), default=None,
        help="SAT propagation core (the circuit breaker may override "
        "it to pure at runtime)",
    )
    p_srv.add_argument(
        "--disk-quota", default=None, metavar="BYTES",
        help="quota over the server's state directory: checkpoint "
        "generations are evicted first, the flight recorder rotated "
        "to a marker; k/M/G suffixes (see docs/GOVERNOR.md)",
    )
    p_srv.add_argument(
        "--mem-watermark", default=None, metavar="BYTES",
        help="memory watermark: learnt-DB reduction, warm-cache "
        "shrink, 'overloaded' shedding and cooperative cancellation "
        "as usage approaches this many bytes; k/M/G suffixes",
    )
    p_srv.add_argument(
        "--max-frame-bytes", default=None, metavar="BYTES",
        help="largest accepted JSON-lines request frame (default 1M); "
        "oversized frames get a typed error response",
    )
    p_srv.add_argument(
        "--read-timeout", type=float, default=None, metavar="SECONDS",
        help="close a TCP connection that stalls mid-frame for this "
        "long (default: never), so slow clients cannot pin handlers",
    )
    p_srv.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                       help="inject a deterministic randomized fault "
                       "schedule (torture drills)")
    p_srv.add_argument("--chaos-profile", default=None, metavar="NAME",
                       help="inject a named fault profile (e.g. serve)")
    p_srv.add_argument("--chaos-dir", default=None, metavar="DIR",
                       help="state directory for chaos trigger counts "
                       "and the event log")
    return parser


def _cmd_info(args) -> int:
    tasks, arch = load_system(args.system)
    print(f"system: {tasks.name}")
    print(f"  tasks: {len(tasks)}  messages: {len(tasks.all_messages())}  "
          f"chains: {len(tasks.chains())}")
    print(f"  ECUs: {len(arch.ecus)}  media: {len(arch.media)}  "
          f"gateways: {arch.gateways() or '-'}")
    print(f"  total utilization (best case): "
          f"{tasks.total_utilization(arch):.2f}")
    closures = enumerate_path_closures(arch)
    print(f"  path closures: {len(closures)}")
    for ph in closures:
        print(f"    {ph}")
    return 0


def _solve_budget(args):
    if args.budget is None and args.budget_conflicts is None:
        return None
    from repro.robust import Budget

    return Budget(wall_seconds=args.budget,
                  max_conflicts=args.budget_conflicts)


def _solve_checkpoint(args):
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume needs --checkpoint PATH")
    if not args.checkpoint:
        return None
    import os

    from repro.robust import SearchCheckpoint

    if args.resume and os.path.exists(args.checkpoint):
        try:
            return SearchCheckpoint.load(args.checkpoint)
        except (ValueError, OSError) as exc:
            raise SystemExit(
                f"cannot resume from {args.checkpoint}: {exc}"
            )
    # Fresh run: start over even when the file exists.
    out = SearchCheckpoint()
    out.path = args.checkpoint
    return out


def _emit_allocation(args, alloc, cost, proven, status) -> None:
    payload = allocation_to_dict(alloc)
    payload["cost"] = cost
    payload["proven"] = proven
    payload["status"] = status
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"allocation written to {args.output}")
    else:
        print(text)


_STATUS_NOTE = {
    "optimal": "proven optimum",
    "upper_bound": "anytime upper bound, unproven",
    "heuristic": "heuristic bound, unproven",
}


def _print_stats(res) -> None:
    """Print an AllocationResult's EncodeStats JSON (when present), with
    the SAT-engine counters as a ``solver`` block and the certification
    verdicts merged in as a ``certify`` block."""
    stats = getattr(res, "encode_stats", None)
    solver_stats = getattr(res, "solver_stats", None)
    cert = getattr(res, "certificate", None)
    bounds = dict(
        getattr(getattr(res, "outcome", None), "bounds", None) or {}
    )
    if stats or solver_stats or cert is not None or bounds:
        payload = dict(stats or {})
        if solver_stats:
            solver_stats = dict(solver_stats)
            governor = solver_stats.pop("governor", None)
            payload["solver"] = solver_stats
            if governor:
                payload["governor"] = governor
        if cert is not None:
            payload["certify"] = cert.to_dict()
        if bounds:
            payload["bounds"] = bounds
        print(json.dumps(payload, indent=2))
    else:
        print("no encode stats available for this solve path",
              file=sys.stderr)


def _report_certificate(res) -> int:
    """Print the certification verdict; non-zero on failure."""
    cert = getattr(res, "certificate", None)
    if cert is None:
        return int(ExitCode.OK)
    print(f"certified: {cert.summary()}")
    if cert.all_verified:
        return int(ExitCode.OK)
    for p in cert.failures:
        print(f"certificate FAILED (probe {p.index}, {p.kind}): "
              f"{p.detail}", file=sys.stderr)
    return int(ExitCode.CERTIFICATE_FAILED)


def _chaos_from_args(args):
    """Build the :class:`~repro.chaos.ChaosSchedule` requested on argv."""
    if args.chaos_seed is None and args.chaos_profile is None:
        return None
    import tempfile

    from repro.chaos import PROFILES, ChaosSchedule

    state_dir = args.chaos_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    if args.chaos_profile is not None:
        if args.chaos_profile not in PROFILES:
            raise SystemExit(
                f"unknown chaos profile {args.chaos_profile!r} "
                f"(choose from: {', '.join(sorted(PROFILES))})"
            )
        schedule = ChaosSchedule.from_profile(args.chaos_profile, state_dir)
    else:
        schedule = ChaosSchedule.from_seed(args.chaos_seed, state_dir)
    print(f"chaos: {schedule.describe()}", file=sys.stderr)
    print(f"chaos event log: {schedule.event_log_path}", file=sys.stderr)
    return schedule


def _parse_bytes(text):
    """Parse a byte size with optional k/M/G (or kB/MB/GB) suffix."""
    if text is None:
        return None
    s = str(text).strip().lower()
    mult = 1
    for suffix, m in (("k", 1024), ("m", 1024 ** 2), ("g", 1024 ** 3)):
        if s.endswith(suffix + "b"):
            s, mult = s[:-2], m
            break
        if s.endswith(suffix):
            s, mult = s[:-1], m
            break
    try:
        return int(float(s) * mult)
    except ValueError:
        raise SystemExit(
            f"bad byte size {text!r} (want e.g. 262144, 512k, 64M, 2G)"
        ) from None


def _governor_from_args(args):
    """Build the :class:`~repro.governor.GovernorConfig` from argv."""
    quota = _parse_bytes(getattr(args, "disk_quota", None))
    watermark = _parse_bytes(getattr(args, "mem_watermark", None))
    if quota is None and watermark is None:
        return None
    from repro.governor import GovernorConfig

    return GovernorConfig(disk_quota=quota, mem_watermark=watermark)


def _request_from_args(args, cfg, objective, budget, checkpoint
                       ) -> SolveRequest:
    """Build the unified :class:`SolveRequest` from solve argv."""
    bounds_mode = getattr(args, "bounds", "auto")
    bounds = ()
    if bounds_mode != "off" and objective is not None:
        from repro.bounds import RelaxationBoundsProvider

        bounds = (RelaxationBoundsProvider(),)
    try:
        return SolveRequest(
            bounds=bounds,
            bounds_mode=bounds_mode,
            objective=objective,
            config=cfg,
            time_limit=args.time_limit,
            reuse_learned=not args.no_reuse,
            budget=budget,
            checkpoint=checkpoint,
            certify=args.certify,
            chaos=_chaos_from_args(args),
            proof_log=args.proof_log,
            governor=_governor_from_args(args),
        )
    except ValueError as exc:  # e.g. --no-reuse with --proof-log
        raise SystemExit(f"solve: {exc}") from None


def _cmd_solve_supervised(args, tasks, arch, request) -> int:
    from repro.reporting import fmt_cost
    from repro.robust import SolveSupervisor

    sup = SolveSupervisor(tasks, arch, request=request).solve()
    for st in sup.stages:
        print(f"stage {st.stage}: {st.status} ({st.seconds:.1f}s)",
              file=sys.stderr)
    cert_rc = _report_certificate(sup.result) if sup.result else 0
    if sup.status == "infeasible":
        print("INFEASIBLE (try: repro diagnose)", file=sys.stderr)
        return cert_rc or int(ExitCode.INFEASIBLE)
    if not sup.usable:
        print("UNKNOWN: budget exhausted before any allocation was found",
              file=sys.stderr)
        return cert_rc or int(ExitCode.BUDGET_EXHAUSTED)
    print(f"feasible; cost = {fmt_cost(sup.cost, sup.proven)} "
          f"({_STATUS_NOTE[sup.status]})")
    if args.stats:
        _print_stats(sup.result)
    _emit_allocation(args, sup.allocation, sup.cost, sup.proven, sup.status)
    return cert_rc


def _cmd_solve(args) -> int:
    tasks, arch = load_system(args.system)
    cfg = EncoderConfig(
        pb_mode=args.pb,
        simplify=not args.no_simplify,
        narrow_bits=not args.no_narrow_bits,
    )
    budget = _solve_budget(args)
    checkpoint = _solve_checkpoint(args)
    objective = (
        _objective_from_spec(args.objective) if args.objective else None
    )
    request = _request_from_args(args, cfg, objective, budget, checkpoint)
    if budget is not None and objective is not None:
        return _cmd_solve_supervised(args, tasks, arch, request)
    allocator = Allocator(tasks, arch, cfg)
    if objective is not None:
        try:
            res = allocator.minimize(request=request)
        except ValueError as exc:
            # A checkpoint recorded for a different system/objective.
            if "checkpoint" not in str(exc):
                raise
            raise SystemExit(f"cannot resume: {exc}")
    else:
        res = allocator.find_feasible(request=request)
    cert_rc = _report_certificate(res)
    if not res.feasible:
        if res.status == "unknown":
            print("UNKNOWN: interrupted before an answer "
                  f"({res.outcome.interrupt_reason})", file=sys.stderr)
            return cert_rc or int(ExitCode.BUDGET_EXHAUSTED)
        print("INFEASIBLE (try: repro diagnose)", file=sys.stderr)
        return cert_rc or int(ExitCode.INFEASIBLE)
    from repro.reporting import fmt_cost

    note = "" if objective is None else (
        f" ({_STATUS_NOTE.get(res.status, res.status)})"
    )
    print(f"feasible; cost = {fmt_cost(res.cost, res.proven)}{note}")
    print(f"probes = {res.outcome.num_probes}, "
          f"solve = {res.solve_seconds:.1f}s, "
          f"vars = {res.formula_size['bool_vars']}, "
          f"literals = {res.formula_size['literals']}")
    print(f"independently verified: {res.verified}")
    if args.stats:
        _print_stats(res)
    status = res.status if objective is not None else "feasible"
    _emit_allocation(args, res.allocation, res.cost, res.proven, status)
    return cert_rc


def _cmd_check(args) -> int:
    tasks, arch = load_system(args.system)
    with open(args.allocation) as fh:
        alloc = allocation_from_dict(json.load(fh))
    report = check_allocation(tasks, arch, alloc)
    if report.schedulable:
        print("SCHEDULABLE")
        for name, r in sorted(report.task_response.items()):
            print(f"  r({name}) = {r}")
        return 0
    print("NOT SCHEDULABLE:")
    for p in report.problems:
        print(f"  - {p}")
    return int(ExitCode.INFEASIBLE)


def _cmd_diagnose(args) -> int:
    tasks, arch = load_system(args.system)
    d = diagnose(tasks, arch, minimize=not args.no_minimize)
    if d.feasible:
        print("system is feasible; nothing to diagnose")
        return 0
    if not d.core:
        print("infeasible due to structural constraints alone "
              "(placement domains / routing / frame sizes)")
        return int(ExitCode.INFEASIBLE)
    print(f"infeasible; minimal conflicting requirement set "
          f"({d.solve_calls} solver calls):")
    for kind, items in sorted(d.by_kind().items()):
        for item in items:
            label = f"{kind}:{item}"
            print(f"  - {kind}: {item}")
            detail = d.details.get(label)
            if detail and detail != label:
                print(f"      {detail}")
    return int(ExitCode.INFEASIBLE)


def _cmd_export(args) -> int:
    tasks, arch = load_system(args.system)
    enc = ProblemEncoding(tasks, arch)
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        if args.format == "opb":
            enc.to_opb(out)
        else:
            enc.to_dimacs(out)
    finally:
        if args.output:
            out.close()
            print(f"{args.format} written to {args.output}",
                  file=sys.stderr)
    if args.stats:
        # The dump owns stdout; stats go to stderr so piping stays clean.
        print(json.dumps(enc.encode_stats(), indent=2), file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (
        chain_latencies,
        task_wcet_slack,
        wcet_scaling_margin,
    )
    from repro.reporting import render_allocation

    tasks, arch = load_system(args.system)
    with open(args.allocation) as fh:
        alloc = allocation_from_dict(json.load(fh))
    report = check_allocation(tasks, arch, alloc)
    if not report.schedulable:
        print("NOT SCHEDULABLE:")
        for p in report.problems:
            print(f"  - {p}")
        return int(ExitCode.INFEASIBLE)
    print(render_allocation(tasks, arch, alloc, report=report))
    print(f"\nWCET scaling margin: "
          f"{wcet_scaling_margin(tasks, arch, alloc)}%")
    print("Per-task WCET slack (ticks):")
    for t in tasks:
        print(f"  {t.name}: {task_wcet_slack(tasks, arch, alloc, t.name)}")
    chains = chain_latencies(tasks, arch, alloc, report)
    if chains:
        print("Chain latencies:")
        for lat in chains:
            print(f"  {' -> '.join(lat.chain)}: {lat.total} "
                  f"({lat.bus_share:.0%} bus)")
    if args.simulate:
        from repro.sim import validate_against_analysis

        out = validate_against_analysis(tasks, arch, alloc, report)
        print(f"simulation cross-check: "
              f"{'OK' if out.ok else 'VIOLATIONS'}")
        for v in out.violations:
            print(f"  - {v}")
        if not out.ok:
            return int(ExitCode.INFEASIBLE)
    return 0


def _parse_grid(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise SystemExit(f"bad --{what} grid {text!r}: expected "
                         "comma-separated numbers")


def _parse_seeds(text: str) -> list[int]:
    try:
        if "-" in text and "," not in text:
            lo, _, hi = text.partition("-")
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise SystemExit(f"bad --seeds {text!r}: expected A-B or S1,S2,...")


# Fabric workers import the cell by qualified name, so it must be a
# module-level function taking the whole parameter tuple.
def _sweep_cell(param):
    import time

    util, seed, ecus, ntasks, objective_spec, time_limit = param
    from repro.workloads import random_taskset, ring_architecture

    arch = ring_architecture(ecus)
    tasks = random_taskset(arch, ntasks, total_util=util, seed=seed)
    t0 = time.perf_counter()
    res = Allocator(tasks, arch).minimize(request=SolveRequest(
        objective=_objective_from_spec(objective_spec),
        time_limit=time_limit,
    ))
    return {
        "feasible": res.feasible,
        "cost": res.cost,
        "proven": res.proven,
        "seconds": round(time.perf_counter() - t0, 4),
        "conflicts": res.solver_stats["conflicts"],
    }


def _cmd_sweep(args) -> int:
    utils = _parse_grid(args.utils, "utils")
    seeds = _parse_seeds(args.seeds)
    _objective_from_spec(args.objective)  # fail fast on a bad spec
    cells = [
        [u, s, args.ecus, args.tasks, args.objective, args.time_limit]
        for u in utils for s in seeds
    ]
    chaos = _chaos_from_args(args)
    # A governor over the coordinator process: fabric store appends run
    # here, so the quota bites where the bytes land; governed(None) is a
    # cheap no-op.
    from repro.fabric import ResultStore, fabric_sweep
    from repro.governor import governed

    with governed(_governor_from_args(args)) as gov:
        try:
            outcome = fabric_sweep(
                _sweep_cell, cells,
                fabric_dir=args.fabric_dir,
                workers=args.workers,
                steal=args.steal,
                lease_ttl=args.lease_ttl,
                max_attempts=args.retries + 1,
                job_timeout=args.cell_timeout,
                run_timeout=args.run_timeout,
                chaos=chaos,
            )
        except ValueError as exc:  # --workers 0 with a timeout / crash
            raise SystemExit(f"sweep: {exc}") from None
        results, stats = outcome.results, dict(outcome.stats)
        stats["degraded"] = outcome.degraded
        if args.compact and args.fabric_dir:
            stats["compaction"] = ResultStore(args.fabric_dir).compact()
        if gov is not None:
            print("governor: "
                  + json.dumps(gov.stats_dict(), sort_keys=True),
                  file=sys.stderr)
    done = [r for r in results if r.ok]
    failed = [r for r in results if not r.ok]
    for util in utils:
        vals = [r.value for r in done if r.param[0] == util]
        feas = sum(1 for v in vals if v["feasible"])
        secs = sum(v["seconds"] for v in vals) / len(vals) if vals else 0.0
        print(f"U = {util:.2f}: {feas}/{len(vals)} feasible, "
              f"avg {secs:.1f}s per cell")
    if failed:
        print(f"{len(failed)} cell(s) failed:", file=sys.stderr)
        for r in failed:
            first = (r.error or "").strip().splitlines()
            print(f"  - util={r.param[0]} seed={r.param[1]}: "
                  f"{first[-1] if first else 'unknown error'}",
                  file=sys.stderr)
    print(f"fabric: {stats['completed']} completed, "
          f"{stats['errors']} errors, {stats['poisoned']} poisoned, "
          f"{stats['restored']} restored from prior runs",
          file=sys.stderr)
    if args.output:
        payload = {
            "cells": [
                {"util": r.param[0], "seed": r.param[1],
                 "value": r.value if r.ok else None,
                 "error": None if r.ok else r.error}
                for r in results
            ],
            "fabric": stats,
        }
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"summary written to {args.output}", file=sys.stderr)
    return int(ExitCode.OK) if not failed else int(ExitCode.ERROR)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import AllocationServer, ServeConfig

    weights = {}
    for spec in args.tenant_weight:
        name, _, value = spec.partition("=")
        if not name or not value:
            raise SystemExit(f"bad --tenant-weight {spec!r} (want NAME=W)")
        weights[name] = float(value)
    config = ServeConfig(
        state_dir=args.state_dir,
        workers=args.workers,
        queue_depth=args.queue_depth,
        tenant_weights=weights,
        default_deadline=args.default_deadline,
        max_tasks=args.max_tasks,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        cache_size=args.cache_size,
        certify_default=args.certify,
        bounds=args.bounds,
        chaos=_chaos_from_args(args),
        disk_quota=_parse_bytes(args.disk_quota),
        mem_watermark=_parse_bytes(args.mem_watermark),
        max_frame_bytes=_parse_bytes(args.max_frame_bytes) or (1 << 20),
        read_timeout=args.read_timeout,
    )

    async def run() -> int:
        server = AllocationServer(config)
        await server.start()
        host, port = await server.start_tcp(args.host, args.port)
        # The smoke harness and operators wait for this exact line.
        print(f"serving on {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms without loop signal support
        await stop.wait()
        print("draining...", file=sys.stderr, flush=True)
        await server.stop()
        print("drained.", file=sys.stderr, flush=True)
        return 0

    return asyncio.run(run())


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None) is not None:
        from repro.sat.core import BACKEND_ENV, set_default_backend

        # Process default for in-process solves; environment for worker
        # processes (sweep and fabric cells) spawned later.
        set_default_backend(args.backend)
        os.environ[BACKEND_ENV] = args.backend
    handler = {
        "info": _cmd_info,
        "solve": _cmd_solve,
        "check": _cmd_check,
        "diagnose": _cmd_diagnose,
        "export": _cmd_export,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
