"""Cost functions for the optimization loop.

Each objective contributes an integer cost expression over the encoding's
variables plus a static lower bound; :mod:`repro.core.optimize` then
minimizes the cost variable by binary search.

- :class:`MinimizeTRT`: the Token Rotation Time of one token-ring medium
  (the objective of [5] and of the paper's table 1, first row),
- :class:`MinimizeSumTRT`: sum of the TRTs of all token-ring media (the
  paper's table 4 objective for the hierarchical architectures),
- :class:`MinimizeCanUtilization`: bus load of a CAN medium in per-mille
  (the ``U_CAN`` objective of table 1, second row),
- :class:`MinimizeSumResponseTimes`: a simple utilization-style objective
  over task response times, handy for flat architectures without
  messages.
"""

from __future__ import annotations

from repro.arith.ast import Implies, IntConst, IntExpr, Not
from repro.core.encoder import ProblemEncoding, _sum_exprs
from repro.model.architecture import MediumKind

__all__ = [
    "Objective",
    "MinimizeTRT",
    "MinimizeSumTRT",
    "MinimizeCanUtilization",
    "MinimizeSumResponseTimes",
    "objective_spec",
    "objective_from_spec",
]


def objective_spec(objective: "Objective") -> tuple[str, str | None]:
    """Map an objective to the ``(name, medium)`` pair understood by
    :func:`repro.baselines.common.evaluate_cost`, so heuristic baselines
    score allocations on the same scale as the exact optimizer."""
    if isinstance(objective, MinimizeTRT):
        return "trt", objective.medium
    if isinstance(objective, MinimizeSumTRT):
        return "sum_trt", None
    if isinstance(objective, MinimizeCanUtilization):
        return "can_util", objective.medium
    return "sum_resp", None


def objective_from_spec(spec: str) -> "Objective":
    """Parse a textual objective spec (``trt:<medium>``, ``sum_trt``,
    ``can:<medium>``, ``sum_resp``, ``max_util``) into an objective.

    The inverse of :func:`objective_spec` for the specs the CLI and the
    allocation server accept over the wire; raises :class:`ValueError`
    on malformed input (callers map it to their own error surface)."""
    kind, _, arg = spec.partition(":")
    if kind == "trt":
        if not arg:
            raise ValueError("objective trt needs a medium: trt:<medium>")
        return MinimizeTRT(arg)
    if kind == "sum_trt":
        return MinimizeSumTRT()
    if kind == "can":
        if not arg:
            raise ValueError("objective can needs a medium: can:<medium>")
        return MinimizeCanUtilization(arg)
    if kind == "sum_resp":
        return MinimizeSumResponseTimes()
    if kind == "max_util":
        return MinimizeMaxUtilization()
    raise ValueError(f"unknown objective {spec!r}")


#: Scale of utilization objectives: per-mille of the bus bandwidth.
U_SCALE = 1000


class Objective:
    """Base class; subclasses build the cost expression."""

    name = "objective"
    #: Whether :meth:`build` reads WCET values into the formula; such an
    #: objective makes them part of an encoding template's shape
    #: (:func:`repro.core.template.template_shape`).
    reads_wcet = False

    def build(self, enc: ProblemEncoding) -> tuple[IntExpr, int, int]:
        """Return ``(cost expression, static lower bound, upper bound)``."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class MinimizeTRT(Objective):
    """Minimize the TDMA round (Token Rotation Time) of one medium."""

    def __init__(self, medium: str):
        self.medium = medium
        self.name = f"min TRT({medium})"

    def build(self, enc: ProblemEncoding) -> tuple[IntExpr, int, int]:
        if self.medium not in enc.trt:
            raise ValueError(
                f"{self.medium} is not a token-ring medium of the encoding"
            )
        var = enc.trt[self.medium]
        return var, var.lo, var.hi


class MinimizeSumTRT(Objective):
    """Minimize the sum of TRTs over all token-ring media (table 4)."""

    name = "min sum TRT"

    def build(self, enc: ProblemEncoding) -> tuple[IntExpr, int, int]:
        if not enc.trt:
            raise ValueError("architecture has no token-ring media")
        exprs = [enc.trt[k] for k in sorted(enc.trt)]
        lo = sum(v.lo for v in exprs)
        hi = sum(v.hi for v in exprs)
        return _sum_exprs(list(exprs)), lo, hi


class MinimizeCanUtilization(Objective):
    """Minimize the load of a CAN medium, in per-mille (U_CAN of table 1).

    The contribution of message m is ``ceil(rho_m * 1000 / t_m)`` when m
    uses the medium and 0 otherwise; auxiliary {0, w} variables tie the
    contributions to the media-usage bits ``K^k_m``.
    """

    def __init__(self, medium: str):
        self.medium = medium
        self.name = f"min U_CAN({medium})"

    def build(self, enc: ProblemEncoding) -> tuple[IntExpr, int, int]:
        k = enc.arch.media[self.medium]
        if k.kind is not MediumKind.CAN:
            raise ValueError(f"{self.medium} is not a CAN medium")
        s = enc.solver
        terms: list[IntExpr] = []
        hi = 0
        for ref in enc.msg_refs:
            if self.medium not in enc._media_of.get(ref, []):
                continue
            task, msg = ref.resolve(enc.tasks)
            rho = k.transmission_ticks(msg.size_bits)
            w = -((-rho * U_SCALE) // task.period)  # ceil per-mille
            u = s.int_var(f"u[{ref},{self.medium}]", 0, w)
            enc.u_contrib[(ref, self.medium)] = u
            ku = enc.k_use[(ref, self.medium)]
            s.require(Implies(ku, u == w))
            s.require(Implies(Not(ku), u == 0))
            terms.append(u)
            hi += w
        if not terms:
            return IntConst(0), 0, 0
        return _sum_exprs(terms), 0, hi


class MinimizeSumResponseTimes(Objective):
    """Minimize the sum of all task response times."""

    name = "min sum r_i"

    def build(self, enc: ProblemEncoding) -> tuple[IntExpr, int, int]:
        exprs = [enc.resp[t.name] for t in enc.tasks]
        lo = sum(v.lo for v in exprs)
        hi = sum(v.hi for v in exprs)
        return _sum_exprs(list(exprs)), lo, hi


class MinimizeMaxUtilization(Objective):
    """Load balancing: minimize the maximum per-ECU CPU utilization.

    The closing remark of the paper's section 4 suggests utilization
    optimization ("an in-equation is added which encodes that the
    difference to the average utilization is below some limit").  This
    objective encodes the equivalent min-max form: per-(task, ECU)
    contribution variables ``u_{i,p} in {0, w_{i,p}}`` tied to the
    allocation, per-ECU sums, and a cost variable dominating every sum.

    ``scale`` sets the integer resolution (1000 = per-mille).
    """

    reads_wcet = True

    def __init__(self, scale: int = 1000):
        self.scale = scale
        self.name = f"min max utilization (x{scale})"

    def build(self, enc: ProblemEncoding) -> tuple[IntExpr, int, int]:
        s = enc.solver
        per_ecu_hi: dict[int, int] = {}
        per_ecu_terms: dict[int, list[IntExpr]] = {}
        for t in enc.tasks:
            for idx in enc._candidates(t):
                w = -(
                    (-t.wcet[enc.ecu_names[idx]] * self.scale) // t.period
                )
                u = s.int_var(f"util[{t.name},{idx}]", 0, w)
                placed = enc.a[t.name] == idx
                s.require(Implies(placed, u == w))
                s.require(Implies(Not(placed), u == 0))
                per_ecu_terms.setdefault(idx, []).append(u)
                per_ecu_hi[idx] = per_ecu_hi.get(idx, 0) + w
        hi = max(per_ecu_hi.values(), default=0)
        # Lower bound: the total demand must land somewhere, so the max
        # is at least the average over the candidate ECUs; and at least
        # the largest single mandatory contribution.
        total_min = sum(
            min(
                -((-t.wcet[enc.ecu_names[i]] * self.scale) // t.period)
                for i in enc._candidates(t)
            )
            for t in enc.tasks
        )
        lo = -((-total_min) // max(len(per_ecu_terms), 1))
        cost = s.int_var("$maxutil", 0, hi)
        for idx, terms in per_ecu_terms.items():
            s.require(_sum_exprs(list(terms)) <= cost)
        return cost, max(lo, 0), hi
