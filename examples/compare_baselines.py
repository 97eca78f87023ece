"""Head-to-head: SAT-optimal vs simulated annealing vs branch-and-bound
vs greedy on a slice of the Tindell-style case study.

Run:  python examples/compare_baselines.py

Reproduces the paper's core argument in miniature: heuristics are fast
but give no optimality guarantee (table 1's SA found 8.7 ms where
8.55 ms was optimal); exhaustive search is optimal but explodes; the
SAT route is optimal *and* scales to realistic sizes.
"""

import time

from repro.baselines import (
    branch_and_bound,
    evaluate_cost,
    greedy_first_fit,
    simulated_annealing,
)
from repro.core import Allocator, MinimizeTRT
from repro.workloads import (
    tindell_architecture,
    tindell_partition,
    ticks_to_ms,
)


def main() -> None:
    arch = tindell_architecture()
    tasks = tindell_partition(9)  # one long chain + one short
    print(f"System: {len(tasks)} tasks, 8 ECUs, token ring "
          f"(minimizing the Token Rotation Time)\n")
    rows = []

    t0 = time.perf_counter()
    sat = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
    rows.append(("SAT (this paper)", sat.cost, time.perf_counter() - t0,
                 "optimal, proven"))

    t0 = time.perf_counter()
    bb = branch_and_bound(tasks, arch, objective="trt", medium="ring")
    rows.append(("branch & bound", bb.cost, time.perf_counter() - t0,
                 f"optimal, {bb.explored} nodes"))

    t0 = time.perf_counter()
    sa = simulated_annealing(tasks, arch, objective="trt", medium="ring",
                             iterations=300, seed=2)
    rows.append(("simulated annealing", sa.cost, time.perf_counter() - t0,
                 "no guarantee"))

    t0 = time.perf_counter()
    greedy = greedy_first_fit(tasks, arch)
    g_cost = (
        evaluate_cost(tasks, arch, greedy.allocation, "trt", "ring")
        if greedy.feasible
        else None
    )
    rows.append(("greedy first-fit", g_cost, time.perf_counter() - t0,
                 "no guarantee"))

    print(f"{'method':22s} {'TRT':>10s} {'time':>8s}  notes")
    print("-" * 60)
    for name, cost, secs, note in rows:
        trt = f"{ticks_to_ms(cost):.1f} ms" if cost is not None else "---"
        print(f"{name:22s} {trt:>10s} {secs:7.2f}s  {note}")

    # Sanity: both complete methods agree; heuristics never win.
    assert sat.cost == bb.cost, "complete methods must agree"
    for _, cost, _, _ in rows[2:]:
        if cost is not None:
            assert cost >= sat.cost


if __name__ == "__main__":
    main()
