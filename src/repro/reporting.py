"""Paper-style result tables and allocation pretty-printing.

Renders the reproduction's measurements in the same shape as the paper's
tables 1-4 (result, runtime, Boolean variables, Boolean literals), so
EXPERIMENTS.md and the benchmark output can be compared side by side
with the original numbers; plus a human-readable rendering of a concrete
allocation (per-ECU load bars, slot tables, message routes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ExperimentRow",
    "format_table",
    "fmt_cost",
    "fmt_seconds",
    "fmt_thousands",
    "render_allocation",
]


def fmt_cost(cost: int | None, proven: bool = True) -> str:
    """Render a cost honestly: ``42`` when certified optimal, ``<=42*``
    when it is only an anytime upper bound (budget or time limit expired
    before the binary search closed), ``-`` when there is no bound."""
    if cost is None:
        return "-"
    return str(cost) if proven else f"<={cost}*"


def fmt_seconds(seconds: float) -> str:
    """h:mm:ss / m:ss rendering like the paper's Time rows."""
    total = int(round(seconds))
    h, rem = divmod(total, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}:{m:02d}:{s:02d}"
    return f"{m}:{s:02d}"


def fmt_thousands(n: int) -> str:
    """Counts in thousands, like the paper's Var.(10^3) rows."""
    return f"{n / 1000:.0f}k"


@dataclass
class ExperimentRow:
    """One row/column of a reproduction table."""

    label: str
    result: str
    seconds: float
    bool_vars: int
    literals: int
    extra: dict = field(default_factory=dict)


def format_table(title: str, rows: list[ExperimentRow]) -> str:
    """Fixed-width table matching the paper's layout."""
    headers = ["Experiment", "Result", "Time", "Var.", "Lit."]
    extra_keys: list[str] = []
    for r in rows:
        for k in r.extra:
            if k not in extra_keys:
                extra_keys.append(k)
    headers += extra_keys
    body = []
    for r in rows:
        line = [
            r.label,
            r.result,
            fmt_seconds(r.seconds),
            fmt_thousands(r.bool_vars),
            fmt_thousands(r.literals),
        ]
        line += [str(r.extra.get(k, "")) for k in extra_keys]
        body.append(line)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body)) if body
        else len(headers[i])
        for i in range(len(headers))
    ]
    out = [title]
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for row in body:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def render_allocation(tasks, arch, alloc, report=None, width: int = 30) -> str:
    """Human-readable allocation summary.

    Shows each ECU with a utilization bar and its tasks, every message
    route, and the slot table / TRT of each token-ring medium.  Pass the
    :class:`repro.analysis.FeasibilityReport` for response-time columns.
    """
    from repro.model.architecture import MediumKind

    lines: list[str] = []
    lines.append(f"Allocation of {len(tasks)} tasks on "
                 f"{len(arch.ecus)} ECUs")
    for ecu in arch.ecu_names():
        names = sorted(
            t for t in alloc.tasks_on(ecu) if t in tasks.tasks
        )
        util = sum(
            tasks[t].utilization_on(ecu)
            for t in names
            if ecu in tasks[t].wcet
        )
        filled = min(width, int(round(util * width)))
        bar = "#" * filled + "." * (width - filled)
        lines.append(f"  {ecu:8s} [{bar}] {util:6.1%}  {', '.join(names)}")
        if report is not None:
            for t in names:
                r = report.task_response.get(t)
                shown = "MISS" if r is None else str(r)
                lines.append(
                    f"      {t}: r={shown} d={tasks[t].deadline} "
                    f"T={tasks[t].period}"
                )
    routed = sorted(alloc.message_path.items(), key=lambda kv: str(kv[0]))
    if routed:
        lines.append("  messages:")
        for ref, path in routed:
            route = " -> ".join(path) if path else "(local)"
            lines.append(f"    {ref}: {route}")
    for kname in arch.medium_names():
        k = arch.media[kname]
        if k.kind is not MediumKind.TOKEN_RING:
            continue
        try:
            trt = alloc.trt(arch, kname)
        except ValueError:
            continue
        slots = ", ".join(
            f"{p}:{alloc.slot_ticks.get((kname, p), k.min_slot)}"
            for p in k.ecus
        )
        lines.append(f"  {kname}: TRT={trt} ticks  slots[{slots}]")
    return "\n".join(lines)
