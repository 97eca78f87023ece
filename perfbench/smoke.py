#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` for one cycle with
``--trace 0`` and with ``--trace 1`` (one untraced and one traced
cycle), and checks that each run exits 0, that its last line has
exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, and that it reports every metric the benchmark declares,
each with its declared unit.  Run from the root of a checkout::

    python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}: {out.stderr.strip()}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} missing")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit "
                            f"{got.get('unit')!r} != {metric['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {metric['name']} is not a number")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            status = "FAIL" if found else "ok"
            print(f"{status}  {workload['name']} --trace {trace}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
