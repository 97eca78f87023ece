#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload serve-replay --seed 1 \\
        --seconds 50 --trace 0

Without ``--workload`` every workload runs, each in its own process,
and every metric is printed as a table row with its unit.

``--trace 0`` is the timed run: it prints the end-to-end metrics
(``throughput_rps``, ``latency_p50_s``, ``setup_s``, ``peak_rss_mb``).
``--trace 1`` runs about as many cycles in pairs -- each cycle
untraced, then again in the same order with the spans of
``perfbench/tracing.py`` on -- checks that both passes reproduce the
same envelopes and exact counts, and prints the per-layer metrics.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it record the run's configuration and its exact-count
fingerprint.  The exit code is 0 only when every answer matched its
pinned envelope and passed the independent audit.

Noise control: a run issues a fixed number of whole cycles of its
workload's instance pool (``--seconds`` only picks how many), each
cycle gets fresh state and fabric directories, the compiled SAT core
and the bytecode cache are built before anything is timed, one
untimed warm-up request runs first on an instance outside the pool,
and ``gc.collect()`` runs between requests outside the timed span.
``setup_s`` is the median of set-up probes -- a fresh interpreter
importing the program and setting the workload up -- taken once before
the first cycle and once after every cycle of the timed run, so they
sample the host across the run.  Everything the run writes goes under
``.bench_build/`` in the checkout.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

#: Iterations of the fixed pure-Python loop behind ``host.calib_s``.
CALIB_ITERATIONS = 300_000

#: Set-up probes taken at each sampling point of the timed run.
SETUP_PROBES = 1

#: Percentile reported as ``latency.tail_s``, over every request of the
#: traced run (both passes).
TAIL_PCT = 90


def _prepare_environment() -> None:
    """Point every cache at ``.bench_build`` and make ``repro``
    importable from the checkout's ``src``; fail without a result when
    the program is not there."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    tmp = os.path.join(BUILD, "tmp")
    pycache = os.path.join(BUILD, "pycache")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPYCACHEPREFIX"] = pycache
    sys.pycache_prefix = pycache
    import tempfile

    tempfile.tempdir = tmp
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def _build_program() -> dict:
    """Compile the bytecode and build (or load) the compiled SAT core,
    before any timer starts."""
    import compileall

    compileall.compile_dir(SRC, quiet=1)
    from repro.sat.core import backend_status, get_backend

    cache = os.path.join(os.environ["TMPDIR"],
                         f"repro-sat-core-{os.getuid()}")
    before = set(os.listdir(cache)) if os.path.isdir(cache) else set()
    backend = get_backend()
    library = getattr(backend, "library_path", None)
    if library is None:
        core = "unavailable"
    else:
        core = "loaded" if os.path.basename(library) in before else "built"
    return {"backend": backend.name, "backend_status": backend_status(),
            "sat_core": core}


def _calibrate() -> float:
    """Seconds of a fixed pure-Python loop: a slow host shows here."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def _setup_probes(workload) -> list[float]:
    """Time, in fresh interpreters, importing the program and setting
    the workload up: the cost a user pays before the first request."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload.name, "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _git_sha() -> str | None:
    """The checkout's commit, when it is a git work tree (git is not
    asked to search above the checkout)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``inf`` entries are failed requests)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _cycle_orders(workload, state, seed: int, cycles: int) -> list[list]:
    rng = random.Random(seed)
    groups = workload.groups(state)
    orders = []
    for _ in range(cycles):
        picked = rng.sample(groups, len(groups))
        orders.append([i for group in picked for i in group])
    return orders


def _run_cycle(workload, state, order, run_dir, tracer, tag):
    """Run one whole cycle in a fresh directory."""
    cycle_dir = os.path.join(run_dir, tag)
    os.makedirs(cycle_dir)
    try:
        got, extra = workload.run_cycle(state, order, cycle_dir, tracer)
    finally:
        shutil.rmtree(cycle_dir, ignore_errors=True)
    return got, dict(extra, requests=len(got))


def _counts_by_key(answers) -> tuple[dict, list[str]]:
    """First counts seen per instance, plus every instance whose counts
    differed between its requests."""
    first: dict = {}
    unstable = []
    for a in answers:
        if a.key not in first:
            first[a.key] = a.counts
        elif a.counts != first[a.key] and a.key not in unstable:
            unstable.append(a.key)
    return first, unstable


def _end_to_end(answers, extras, setup_s: float) -> dict:
    busy = sum(a.latency for a in answers)
    busy += sum(e.get("fabric_overhead_s", 0.0) for e in extras)
    correct = sum(1 for a in answers if a.ok)
    latencies = [a.latency if a.ok else float("inf") for a in answers]
    p50 = statistics.median(latencies)
    if p50 == float("inf"):
        p50 = busy  # a failed request misses any latency limit
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "throughput_rps": (correct / busy, "1/s"),
        "latency_p50_s": (p50, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _per_layer(plain, traced, traced_extras, spans, calib: float) -> dict:
    from tracing import LAYERS, self_times

    everything = plain + traced
    n = len(traced)
    cells = sum(e["requests"] for e in traced_extras)
    fabric = sum(e.get("fabric_overhead_s", 0.0) for e in traced_extras)
    serve = sum(a.latency - a.server_seconds for a in traced
                if a.server_seconds is not None)
    wall = sum(a.latency for a in traced) + fabric
    layer = {name: 0.0 for name in LAYERS}
    for per_request in self_times(spans).values():
        for name, secs in per_request.items():
            if name in layer:
                layer[name] += secs

    def mean_count(key: str) -> float:
        return sum(a.counts.get(key, 0) for a in everything) / len(everything)

    sat_seconds = sum(a.sat_seconds for a in everything)
    propagations = sum(a.counts.get("propagations", 0) for a in everything)
    latencies = [a.latency if a.ok else float("inf") for a in everything]
    tail = _percentile(latencies, TAIL_PCT)
    # Each traced request against the untraced request of the same
    # instance in the neighbouring cycle of its pair.
    overhead = statistics.median(
        t.latency / p.latency for p, t in zip(plain, traced)) - 1.0
    failed = sum(1 for a in everything if not a.ok)
    shares = {name: layer[name] / wall for name in LAYERS}
    shares["serve"] = serve / wall
    shares["fabric"] = fabric / wall
    metrics = {
        "encoder.s_per_req": (layer["encoder"] / n, "s"),
        "encoder.share": (shares["encoder"], "ratio"),
        "encoder.cnf_clauses": (mean_count("cnf_clauses"), "count"),
        "certify.s_per_req": (layer["certify"] / n, "s"),
        "certify.share": (shares["certify"], "ratio"),
        "certify.proof_steps_checked": (
            mean_count("proof_steps_checked"), "count"),
        "optimize.s_per_req": (layer["optimize"] / n, "s"),
        "optimize.share": (shares["optimize"], "ratio"),
        "optimize.probes": (mean_count("probes"), "count"),
        "sat.conflicts": (mean_count("conflicts"), "count"),
        "sat.propagations": (mean_count("propagations"), "count"),
        "sat.props_per_s": (
            propagations / sat_seconds if sat_seconds else 0.0, "1/s"),
        "bounds.s_per_req": (layer["bounds"] / n, "s"),
        "bounds.share": (shares["bounds"], "ratio"),
        "analysis.verify_s_per_req": (layer["analysis"] / n, "s"),
        "analysis.share": (shares["analysis"], "ratio"),
        "robust.checkpoint_s_per_req": (layer["robust"] / n, "s"),
        "robust.checkpoint_saves": (mean_count("checkpoint_saves"),
                                    "count"),
        "robust.share": (shares["robust"], "ratio"),
        "serve.overhead_s": (serve / n, "s"),
        "serve.share": (shares["serve"], "ratio"),
        "serve.warm_hit_ratio": (mean_count("warm_hits"), "ratio"),
        "serve.warm_hit_base": (len(everything), "count"),
        "fabric.overhead_s_per_cell": (fabric / cells, "s"),
        "fabric.share": (shares["fabric"], "ratio"),
        "fabric.cells_restored": (
            sum(e.get("cells_restored", 0) for e in traced_extras), "count"),
        "other.share": (1.0 - sum(shares.values()), "ratio"),
        "host.calib_s": (calib, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "latency.tail_s": (tail, "s"),
        "latency.tail_pct": (TAIL_PCT, "%"),
        "latency.tail_samples": (len(latencies), "count"),
        "error_ratio": (failed / len(everything), "ratio"),
    }
    if metrics["latency.tail_s"][0] == float("inf"):
        metrics["latency.tail_s"] = (sum(a.latency for a in everything),
                                     "s")
    return metrics


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=None,
                   help="workload to run (default: every workload, each "
                   "in its own process, printed as a table)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _run_all(args, names) -> int:
    """Run every workload in its own process and print each metric by
    name with its unit; non-zero when any run failed."""
    status = 0
    for name in names:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0:
            status = 1
            print(f"{name}: FAILED (exit {out.returncode})")
            sys.stderr.write(out.stderr)
        if not lines:
            continue
        result = json.loads(lines[-1])
        for metric, got in result["metrics"].items():
            print(f"{name:<18} {metric:<30} {got['value']:>14.6g} "
                  f"{got['unit']}")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    _prepare_environment()
    from workloads import WORKLOADS

    if args.workload is None:
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(BUILD, "runs", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if args.setup_probe:
        try:
            workload.setup(run_dir)
            print(time.perf_counter() - _T_START)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return 0

    config = _build_program()
    plain, plain_extras, traced, traced_extras, spans = [], [], [], [], []
    setup_samples = []
    try:
        calib = [_calibrate()]
        if not args.trace:
            setup_samples += _setup_probes(workload)
        state = workload.setup(run_dir)
        workload.warmup(state, run_dir)
        cycles = max(1, round(args.seconds / workload.cycle_seconds))
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            for n, order in enumerate(_cycle_orders(
                    workload, state, args.seed, max(1, round(cycles / 2)))):
                # Alternate which pass of the pair runs first, so steady
                # host drift does not bias trace.overhead_ratio.
                for traced_pass in ((False, True) if n % 2 == 0
                                    else (True, False)):
                    if traced_pass:
                        with tracer:
                            got, extra = _run_cycle(
                                workload, state, order, run_dir, tracer,
                                f"traced{n}")
                        traced += got
                        traced_extras.append(extra)
                    else:
                        got, extra = _run_cycle(workload, state, order,
                                                run_dir, None, f"plain{n}")
                        plain += got
                        plain_extras.append(extra)
                    calib.append(_calibrate())
            spans = tracer.spans
        else:
            for n, order in enumerate(_cycle_orders(
                    workload, state, args.seed, cycles)):
                got, extra = _run_cycle(workload, state, order, run_dir,
                                        None, f"cycle{n}")
                plain += got
                plain_extras.append(extra)
                setup_samples += _setup_probes(workload)
            calib.append(_calibrate())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = plain + traced
    counts, unstable = _counts_by_key(everything)
    problems = [p for a in everything for p in a.problems]
    restored = sum(e.get("cells_restored", 0)
                   for e in plain_extras + traced_extras)
    if restored:
        problems.append(f"fabric restored {restored} cell(s) from an "
                        f"earlier run: the cycle did no work for them")
    if unstable:
        problems.append("exact counts differ between requests of the same "
                        "instance: " + ", ".join(unstable))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    host_calib = statistics.mean(calib)
    fingerprint = hashlib.sha256(
        json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
    from repro.fabric.jobs import code_fingerprint

    config.update({
        "workload": workload.name, "seed": args.seed,
        "trace": args.trace, "certify": workload.certify,
        "bounds_mode": workload.bounds_mode, "processes": 1,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": _git_sha(), "code_fingerprint": code_fingerprint(),
        "cycles": len(plain_extras) + len(traced_extras),
        "requests": len(everything), "host_calib_s": host_calib,
        "calib_samples_s": calib, "setup_samples_s": setup_samples,
    })
    print(json.dumps({"config": config}, sort_keys=True))
    print(json.dumps({"fingerprint": fingerprint, "counts": counts,
                      "counts_stable": not unstable}, sort_keys=True))
    print(json.dumps({"requests": [
        [a.key, a.latency, a.ok, i >= len(plain)]
        for i, a in enumerate(everything)]}))
    if args.trace:
        metrics = _per_layer(plain, traced, traced_extras, spans,
                             host_calib)
    else:
        metrics = _end_to_end(plain, plain_extras,
                              statistics.median(setup_samples))
    failed = sum(1 for a in everything if not a.ok)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
