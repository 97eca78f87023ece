"""Transformation of the allocation problem into integer formulae.

Implements sections 3 and 4 of the paper:

- eq. (4):  placement restrictions pi_i and separation delta_i,
- eq. (5):  per-ECU WCET selection,
- eq. (6):  response time = WCET + sum of preemption costs,
- eqs. (7)/(8): preemption cost ``pc^j_i = I^j_i * wcet_j`` for
  higher-priority co-located tasks, 0 otherwise,
- eqs. (9)/(10): deadline-monotonic priorities with free, antisymmetric
  tie-breaks for equal deadlines, plus transitivity over equal-deadline
  triples (a soundness fix: a cyclic tie-break matches no priority order),
- eqs. (11)/(12): the ceiling function of eq. (1) as the integer pair
  ``I*t_j >= r_i  AND  (I-1)*t_j < r_i``,
- eq. (13): deadlines,
- section 4: path-closure selection ``Pf_m``, media-usage bits ``K^k_m``
  with the one-sub-path disjunction of eq. (14) and the endpoint
  condition v(h), per-medium local deadlines with gateway service cost,
  jitter inheritance along the chosen path, and per-medium message
  response times (eq. 2 for CAN media, eq. 3 with the non-linear
  ``Imb * (Lambda - osl)`` blocking term for TDMA media -- the term that
  makes the overall problem a *non-linear* integer program).

The encoder is pure constraint generation on top of
:class:`repro.arith.IntSolver`; the paper's triplet transformation and
2's-complement bit-blasting happen underneath.

*Parameter mode* (``parametric=True``) makes eq. 5's WCETs variables:
one parameter ``p[t,i]`` per task and candidate ECU, with range
``[0, 2^k - 1]`` for ``k`` the bit length of the task's largest
candidate WCET, so the formula reads no WCET value until
:meth:`ProblemEncoding.fix_wcets` fixes the parameters with unit
clauses.  Such an encoding is recorded and can be kept as a template
and replayed for systems of the same shape (:mod:`repro.core.template`).
"""

from __future__ import annotations

from array import array

from repro.analysis.allocation import Allocation, MsgRef
from repro.arith import And, IntSolver, Not, Or
from repro.arith.ast import (
    BoolExpr,
    BoolVar,
    FALSE,
    Implies,
    IntConst,
    IntExpr,
    IntVar,
    TRUE,
)
from repro.core.config import EncoderConfig
from repro.model.architecture import Architecture, MediumKind
from repro.model.paths import PathClosure, enumerate_path_closures
from repro.model.task import Task, TaskSet

__all__ = ["ProblemEncoding"]

#: Attributes of a :class:`ProblemEncoding` that belong to its caller or
#: its solver, not to the model a template keeps.
_NOT_MODEL = ("tasks", "arch", "config", "solver", "cost")


def _sum_exprs(parts: list[IntExpr]) -> IntExpr:
    """Balanced summation tree (keeps intermediate bit widths tight)."""
    if not parts:
        return IntConst(0)
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            nxt.append(parts[i] + parts[i + 1])
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]


class ProblemEncoding:
    """All decision variables and constraints for one allocation problem.

    After construction the encoding is complete except for the objective;
    an objective from :mod:`repro.core.objectives` contributes the cost
    expression, and :mod:`repro.core.optimize` drives the search.

    ``parametric=True`` encodes eq. 5 in parameter mode (see the module
    docstring) and records the engine calls for :meth:`capture`; the
    caller adds the objective, sets :attr:`cost`, captures, and then
    calls :meth:`fix_wcets`.  ``template`` (an
    :class:`repro.core.template.EncodingTemplate` whose shape matches
    the system) replays a captured encoding instead, objective and
    :attr:`cost` included; only :meth:`fix_wcets` is left to call.
    """

    def __init__(
        self,
        tasks: TaskSet,
        arch: Architecture,
        config: EncoderConfig | None = None,
        template=None,
        parametric: bool = False,
    ):
        self.tasks = tasks
        self.arch = arch
        self.config = config or EncoderConfig()
        self.solver = IntSolver(
            pb_mode=self.config.pb_mode,
            simplify=self.config.simplify,
            narrow_bits=self.config.narrow_bits,
        )
        #: ``(cost variable, lower, upper bound)`` once the objective is
        #: encoded: set by the caller, or restored from a template.
        self.cost: tuple | None = None
        if template is not None:
            solver, state, self.cost = template.unpack()
            self.solver.replay(solver)
            self.__dict__.update(state)
            return
        self.parametric = parametric
        if parametric:
            self.solver.record()

        self.ecu_names = arch.ecu_names()
        self.ecu_index = {p: i for i, p in enumerate(self.ecu_names)}
        self.closures: list[PathClosure] = enumerate_path_closures(arch)

        # Decision variables (populated by the _build_* passes).
        self.a: dict[str, IntVar] = {}
        self.wcet: dict[str, IntExpr] = {}
        self.resp: dict[str, IntVar] = {}
        self.preempt_count: dict[tuple[str, str], IntVar] = {}
        self.preempt_cost: dict[tuple[str, str], IntVar] = {}
        self.tie_break: dict[tuple[str, str], BoolVar] = {}
        self.msg_refs: list[MsgRef] = [
            MsgRef(t.name, i) for t in tasks for i in range(len(t.messages))
        ]
        self.pf: dict[MsgRef, IntVar] = {}
        self.k_use: dict[tuple[MsgRef, str], BoolVar] = {}
        self.local_dl: dict[tuple[MsgRef, str], IntVar] = {}
        self.gw_cost: dict[tuple[MsgRef, str], IntVar] = {}
        self.msg_jitter: dict[tuple[MsgRef, str], IntVar] = {}
        self.msg_resp: dict[tuple[MsgRef, str], IntVar] = {}
        self.send_ecu: dict[tuple[MsgRef, str], IntVar] = {}
        self.slot: dict[tuple[str, str], IntVar] = {}
        self.trt: dict[str, IntVar] = {}
        self.u_contrib: dict[tuple[MsgRef, str], IntVar] = {}
        #: Constant priority rank per message (unique; smaller = higher).
        self.msg_rank: dict[MsgRef, int] = {}
        #: Diagnostics mode: obligation label -> guard variable.
        self.obligations: dict[str, BoolVar] = {}
        #: Parameter mode: (task, candidate ECU index) -> WCET parameter.
        self.params: dict[tuple[str, int], IntVar] = {}

        self._build_allocation_vars()
        self._build_priorities()
        self._build_wcet_and_response_vars()
        self._build_task_rta()
        self._build_slots()
        self._build_messages()
        self._build_memory_capacities()
        self._boost_primary_decisions()

    def _build_memory_capacities(self) -> None:
        """Per-ECU memory capacities as engine-level PB constraints:
        ``sum_i mem_i * [a_i = p] <= capacity_p`` (the 'memory
        consumption' requirement class inherited from [5]).

        Emitted directly as pseudo-Boolean constraints over the truth
        literals of the ``a_i = p`` comparisons -- exactly the kind of
        0-1 side constraint the PB formulation makes cheap.
        """
        from repro.pb.constraint import Relation, add_constraint

        consumers = [t for t in self.tasks if t.memory > 0]
        if not consumers:
            return
        for p, ecu in self.arch.ecus.items():
            if ecu.memory is None:
                continue
            idx = self.ecu_index[p]
            terms: list[tuple[int, int]] = []
            for t in consumers:
                if idx not in self._candidates(t):
                    continue
                lit = self.solver.literal(self.a[t.name] == idx)
                terms.append((t.memory, lit))
            if not terms:
                continue
            guard = self._obligation_guard(f"memory:{p}")
            with self.solver.sat.tagged(f"memory:{p}"):
                if guard is not None:
                    # g -> (sum <= cap), as the relaxed PB constraint
                    # sum + M*g <= cap + M with M covering the full demand.
                    big_m = max(0, sum(m for m, _ in terms) - ecu.memory)
                    glit = self.solver.literal(guard)
                    terms.append((big_m, glit))
                    add_constraint(
                        self.solver.sat, terms, Relation.LE,
                        ecu.memory + big_m,
                    )
                else:
                    add_constraint(
                        self.solver.sat, terms, Relation.LE, ecu.memory
                    )

    def _boost_primary_decisions(self) -> None:
        """Seed VSIDS toward the primary decision variables (allocation,
        tie-breaks, path closures, media usage): every other variable is
        functionally determined by these, so branching on them first
        collapses the search space (the paper's section 6 observation)."""
        s = self.solver
        for a in self.a.values():
            s.boost(a, 8.0)
        for tb in self.tie_break.values():
            s.boost(tb, 4.0)
        for pf in self.pf.values():
            s.boost(pf, 6.0)
        for ku in self.k_use.values():
            s.boost(ku, 6.0)

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    def _candidates(self, task: Task) -> list[int]:
        """Candidate ECU indices for a task (pi_i and WCET-map filtered)."""
        return [self.ecu_index[p] for p in task.candidate_ecus(self.arch)]

    def _alloc_in(self, task: Task, ecu_idxs: set[int]) -> BoolExpr:
        """Formula ``Pi(task) in ecu_idxs`` over the task's candidates."""
        usable = [i for i in self._candidates(task) if i in ecu_idxs]
        if not usable:
            return FALSE
        if set(usable) >= set(self._candidates(task)):
            return TRUE
        return Or(*[self.a[task.name] == i for i in usable])

    def _obligation_guard(self, label: str) -> BoolVar | None:
        """Guard variable for a named obligation (diagnostics mode only);
        the same label always returns the same guard, so all constraints
        of one requirement retract together."""
        if not self.config.diagnostics:
            return None
        g = self.obligations.get(label)
        if g is None:
            g = self.solver.bool_var(f"$ob[{label}]")
            self.obligations[label] = g
        return g

    def _p_ji(self, i: Task, j: Task) -> BoolExpr:
        """The paper's ``p^j_i``: true when tau_j has higher priority than
        tau_i (eq. 10, with tie-break variables for equal deadlines)."""
        if i.deadline > j.deadline:
            return TRUE
        if i.deadline < j.deadline:
            return FALSE
        key = (min(i.name, j.name), max(i.name, j.name))
        var = self.tie_break[key]
        # var means "first-named task has higher priority".
        return var if key[0] == j.name else Not(var)

    # ------------------------------------------------------------------
    # eq. (4): allocation variables, placement and separation
    # ------------------------------------------------------------------

    def _build_allocation_vars(self) -> None:
        s = self.solver
        for t in self.tasks:
            cands = self._candidates(t)
            if not cands:
                raise ValueError(f"task {t.name} has no candidate ECU")
            a = s.int_var(f"a[{t.name}]", min(cands), max(cands))
            self.a[t.name] = a
            # Exclude the non-candidates within the range (eq. 4 left).
            cand_set = set(cands)
            for idx in range(min(cands), max(cands) + 1):
                if idx not in cand_set:
                    s.require(a != idx)
        # Separation constraints (eq. 4 right), once per unordered pair.
        done = set()
        for t in self.tasks:
            for other in t.separated_from:
                key = (min(t.name, other), max(t.name, other))
                if key in done:
                    continue
                done.add(key)
                s.require(
                    self.a[t.name] != self.a[other],
                    guard=self._obligation_guard(
                        f"separation:{key[0]},{key[1]}"
                    ),
                    label=f"separation:{key[0]},{key[1]}",
                )

    # ------------------------------------------------------------------
    # eqs. (9)/(10): priority tie-break variables
    # ------------------------------------------------------------------

    def _build_priorities(self) -> None:
        names = self.tasks.names()
        by_deadline: dict[int, list[str]] = {}
        for t in self.tasks:
            by_deadline.setdefault(t.deadline, []).append(t.name)
        for group in by_deadline.values():
            group.sort()
            for x in range(len(group)):
                for y in range(x + 1, len(group)):
                    key = (group[x], group[y])
                    self.tie_break[key] = self.solver.bool_var(
                        f"p[{key[0]}>{key[1]}]"
                    )
            if len(group) >= 3:
                # (p^j_i AND p^k_j) -> p^k_i over equal-deadline triples.
                for x in range(len(group)):
                    for y in range(len(group)):
                        for z in range(len(group)):
                            if len({x, y, z}) < 3:
                                continue
                            ti = self.tasks[group[x]]
                            tj = self.tasks[group[y]]
                            tk = self.tasks[group[z]]
                            self.solver.require(
                                Implies(
                                    And(
                                        self._p_ji(ti, tj),
                                        self._p_ji(tj, tk),
                                    ),
                                    self._p_ji(ti, tk),
                                )
                            )

    # ------------------------------------------------------------------
    # eq. (5): WCET selection; response-time variable declarations
    # ------------------------------------------------------------------

    def _build_wcet_and_response_vars(self) -> None:
        s = self.solver
        for t in self.tasks:
            cands = self._candidates(t)
            costs = {i: t.wcet[self.ecu_names[i]] for i in cands}
            if self.parametric:
                self.wcet[t.name] = self._wcet_params(t, costs)
                lo = 0
            else:
                values = set(costs.values())
                if len(values) == 1:
                    self.wcet[t.name] = IntConst(next(iter(values)))
                else:
                    w = s.int_var(
                        f"wcet[{t.name}]", min(values), max(values)
                    )
                    self.wcet[t.name] = w
                    for i, c in costs.items():
                        s.require(Implies(self.a[t.name] == i, w == c))
                lo = min(values)
            self.resp[t.name] = s.int_var(f"r[{t.name}]", lo, t.deadline)

    def _wcet_params(self, t: Task, costs: dict[int, int]) -> IntVar:
        """Eq. 5 in parameter mode: one parameter per candidate ECU,
        ``[0, 2^k - 1]`` wide for ``k`` the bit length of the largest
        candidate WCET (the widest range that costs no extra bit); the
        task's WCET is its one parameter, or the one its ECU selects."""
        s = self.solver
        hi = (1 << max(costs.values()).bit_length()) - 1
        for i in costs:
            p = s.int_var(f"wcet[{t.name}@{i}]", 0, hi)
            s.bits(p)  # fix_wcets reads the bits, so they always exist
            self.params[(t.name, i)] = p
        if len(costs) == 1:
            return self.params[(t.name, next(iter(costs)))]
        w = s.int_var(f"wcet[{t.name}]", 0, hi)
        for i in costs:
            s.require(Implies(self.a[t.name] == i,
                              w == self.params[(t.name, i)]))
        return w

    def capture(self, shape: str):
        """This parameter-mode encoding, objective and :attr:`cost`
        included, as an :class:`repro.core.template.EncodingTemplate`
        (stops the recording; call before :meth:`fix_wcets`)."""
        from repro.core.template import EncodingTemplate

        if self.cost is None:
            raise ValueError("capture() needs the objective's cost first")
        state = {k: v for k, v in vars(self).items() if k not in _NOT_MODEL}
        return EncodingTemplate.pack(shape, self.solver.template(), state,
                                     self.cost)

    def fix_wcets(self) -> None:
        """Fix every WCET parameter to the task's WCET on that ECU, as
        one unit clause per parameter bit -- the last step of a
        parameter-mode encoding, and all a replayed one adds."""
        buf = array("i")
        for (name, idx), p in self.params.items():
            value = self.tasks[name].wcet[self.ecu_names[idx]]
            if not 0 <= value <= p.hi:
                raise ValueError(
                    f"WCET {value} of task {name} on "
                    f"{self.ecu_names[idx]} is outside its parameter "
                    f"range [0, {p.hi}]")
            bits = self.solver.bits(p)[:p.hi.bit_length()]
            for j, lit in enumerate(bits):
                buf.extend((1, lit if value >> j & 1 else lit ^ 1))
        self.solver.sat.add_clauses(buf)

    # ------------------------------------------------------------------
    # eqs. (6)-(8), (11)-(13): task response-time analysis
    # ------------------------------------------------------------------

    def _may_colocate(self, i: Task, j: Task) -> bool:
        """Static pruning: can the pair ever share an ECU?"""
        if j.name in i.separated_from or i.name in j.separated_from:
            return False
        return bool(set(self._candidates(i)) & set(self._candidates(j)))

    def _build_task_rta(self) -> None:
        s = self.solver
        paper_mode = self.config.interference == "paper"
        for ti in self.tasks:
            costs: list[IntExpr] = [self.wcet[ti.name]]
            r = self.resp[ti.name]
            for tj in self.tasks:
                if tj.name == ti.name:
                    continue
                if not self._may_colocate(ti, tj):
                    continue  # eq. (12)/(8) hold vacuously
                pair = (ti.name, tj.name)
                # ceil((d_i + J_j)/t_j): the most jobs of tau_j that can
                # land inside tau_i's response window.
                i_ub = -((-(ti.deadline + tj.release_jitter)) // tj.period)
                count = s.int_var(f"I[{pair[0]},{pair[1]}]", 0, i_ub)
                wj = self.wcet[tj.name]
                pc_ub = i_ub * (
                    wj.value if isinstance(wj, IntConst) else wj.hi
                )
                cost = s.int_var(
                    f"pc[{pair[0]},{pair[1]}]", 0, min(pc_ub, ti.deadline)
                )
                self.preempt_count[pair] = count
                self.preempt_cost[pair] = cost
                costs.append(cost)

                colocated = self.a[ti.name] == self.a[tj.name]
                higher = self._p_ji(ti, tj)
                active = (
                    colocated
                    if higher is TRUE
                    else (FALSE if higher is FALSE else And(higher, colocated))
                )
                # eqs. (7)/(8): preemption cost.
                if active is FALSE:
                    s.require(cost == 0)
                else:
                    s.require(Implies(active, cost == count * wj))
                    s.require(Implies(Not(active), cost == 0))
                # eqs. (11)/(12): the ceiling bounds on I^j_i, with the
                # interferer's release jitter J_j widening the window
                # (the "release jitter, blocking factors, etc." remark at
                # the end of section 2).
                ceil_guard = colocated if paper_mode else active
                prod = count * tj.period
                jj = tj.release_jitter
                bounds = And(prod >= r + jj, prod < r + jj + tj.period)
                if ceil_guard is FALSE:
                    s.require(count == 0)
                else:
                    s.require(Implies(ceil_guard, bounds))
                    s.require(Implies(Not(ceil_guard), count == 0))
            # eq. (6): the response-time fixed point, and eq. (13) with
            # the task's own release jitter on the deadline side.  In
            # diagnostics mode the guard retracts the *whole* obligation
            # (definition + check): the response variable's range already
            # encodes r <= d, so relaxing only the check would be vacuous.
            g = self._obligation_guard(f"deadline:{ti.name}")
            label = f"deadline:{ti.name}"
            s.require(r == _sum_exprs(costs), guard=g, label=label)
            s.require(
                r <= ti.deadline - ti.release_jitter, guard=g, label=label
            )

    # ------------------------------------------------------------------
    # Token-ring slot table and TRT variables
    # ------------------------------------------------------------------

    def _slot_bounds(self, medium: str) -> tuple[int, int]:
        k = self.arch.media[medium]
        rho_max = 0
        for t in self.tasks:
            for m in t.messages:
                rho_max = max(rho_max, k.transmission_ticks(m.size_bits))
        hi = max(k.min_slot, rho_max + k.slot_overhead)
        return k.min_slot, hi

    def _build_slots(self) -> None:
        s = self.solver
        for kname, k in self.arch.media.items():
            if k.kind is not MediumKind.TOKEN_RING:
                continue
            lo, hi = self._slot_bounds(kname)
            slots = []
            for p in k.ecus:
                v = s.int_var(f"slot[{kname},{p}]", lo, hi)
                self.slot[(kname, p)] = v
                slots.append(v)
            trt = s.int_var(
                f"trt[{kname}]", lo * len(slots), hi * len(slots)
            )
            self.trt[kname] = trt
            s.require(trt == _sum_exprs(list(slots)))

    # ------------------------------------------------------------------
    # Section 4: messages, path closures, local deadlines, jitter, RTA
    # ------------------------------------------------------------------

    def _feasible_subpaths(
        self, ref: MsgRef
    ) -> dict[int, list[tuple[str, ...]]]:
        """Closure index -> sub-paths whose endpoint condition v(h) is not
        statically impossible for this message's candidate placements."""
        task, msg = ref.resolve(self.tasks)
        target = self.tasks[msg.target]
        src_cands = {self.ecu_names[i] for i in self._candidates(task)}
        dst_cands = {self.ecu_names[i] for i in self._candidates(target)}
        out: dict[int, list[tuple[str, ...]]] = {}
        for ph in self.closures:
            feas: list[tuple[str, ...]] = []
            for h in ph.sub_paths:
                src_ok, dst_ok = self._vh_sets(h)
                if (src_ok & src_cands or src_ok == {"*"}) and (
                    dst_ok & dst_cands or dst_ok == {"*"}
                ):
                    if not h and not (src_cands & dst_cands):
                        continue
                    feas.append(h)
            if feas:
                out[ph.index] = feas
        return out

    def _vh_sets(self, h: tuple[str, ...]) -> tuple[set[str], set[str]]:
        """ECU name sets admitted by v(h) for sender and receiver."""
        arch = self.arch
        if not h:
            return {"*"}, {"*"}  # same-ECU case handled by the caller
        if len(h) == 1:
            ecus = set(arch.media[h[0]].ecus)
            return set(ecus), set(ecus)
        first, second = arch.media[h[0]], arch.media[h[1]]
        last, before = arch.media[h[-1]], arch.media[h[-2]]
        src = set(first.ecus) - (set(first.ecus) & set(second.ecus))
        dst = set(last.ecus) - (set(last.ecus) & set(before.ecus))
        return src, dst

    def _vh_formula(
        self, ref: MsgRef, h: tuple[str, ...]
    ) -> BoolExpr:
        """The endpoint condition v(h) of section 4 as a formula."""
        task, msg = ref.resolve(self.tasks)
        target = self.tasks[msg.target]
        if not h:
            return self.a[task.name] == self.a[target.name]
        src_set, dst_set = self._vh_sets(h)
        src_idx = {self.ecu_index[p] for p in src_set}
        dst_idx = {self.ecu_index[p] for p in dst_set}
        return And(
            self._alloc_in(task, src_idx), self._alloc_in(target, dst_idx)
        )

    def _msg_priorities(self) -> None:
        """Unique constant priorities, deadline-monotonic over end-to-end
        message deadlines with a deterministic tie-break (section 2:
        'each message is assigned a unique priority')."""
        ordered = sorted(
            self.msg_refs,
            key=lambda ref: (
                ref.resolve(self.tasks)[1].deadline,
                ref.sender,
                ref.index,
            ),
        )
        self.msg_rank = {ref: rank for rank, ref in enumerate(ordered)}

    def _build_messages(self) -> None:
        if not self.msg_refs:
            return
        self._msg_priorities()
        s = self.solver
        arch = self.arch
        media = arch.medium_names()
        feasible: dict[MsgRef, dict[int, list[tuple[str, ...]]]] = {}

        # --- per-message structural variables --------------------------
        for ref in self.msg_refs:
            task, msg = ref.resolve(self.tasks)
            feas = self._feasible_subpaths(ref)
            if not feas:
                raise ValueError(
                    f"message {ref} cannot be routed on this architecture"
                )
            feasible[ref] = feas
            nclos = len(self.closures)
            pf = s.int_var(f"pf[{ref}]", 0, nclos - 1)
            self.pf[ref] = pf
            s.require(Or(*[pf == l for l in sorted(feas)]))
            for k in media:
                self.k_use[(ref, k)] = s.bool_var(f"K[{ref},{k}]")

            # eq. 14: closure choice fixes a unique usable sub-path.
            for l, subs in sorted(feas.items()):
                ph = self.closures[l]
                disjuncts = []
                for h in subs:
                    used = set(h)
                    pattern = [
                        self.k_use[(ref, k)]
                        if k in used
                        else Not(self.k_use[(ref, k)])
                        for k in media
                    ]
                    disjuncts.append(And(*pattern, self._vh_formula(ref, h)))
                s.require(Implies(pf == l, Or(*disjuncts)))
            # Unusable closures were excluded from pf's domain above.

        # --- local deadlines, gateway cost, jitter ----------------------
        for ref in self.msg_refs:
            task, msg = ref.resolve(self.tasks)
            feas = feasible[ref]
            used_media = sorted(
                {k for subs in feas.values() for h in subs for k in h}
            )
            dl_terms: list[IntExpr] = []
            for k in used_media:
                kk = arch.media[k]
                dl = s.int_var(f"dl[{ref},{k}]", 0, msg.deadline)
                self.local_dl[(ref, k)] = dl
                dl_terms.append(dl)
                gw = s.int_var(f"gw[{ref},{k}]", 0, kk.gateway_service)
                self.gw_cost[(ref, k)] = gw
                dl_terms.append(gw)
                ku = self.k_use[(ref, k)]
                s.require(Implies(Not(ku), dl == 0))
                s.require(Implies(Not(ku), gw == 0))
            if dl_terms:
                s.require(
                    _sum_exprs(dl_terms) <= msg.deadline,
                    guard=self._obligation_guard(f"msg-deadline:{ref}"),
                    label=f"msg-deadline:{ref}",
                )
            # Gateway cost: charged on every used medium except the first
            # of the chosen closure (crossings = used media - 1).
            for l, subs in sorted(feas.items()):
                ph = self.closures[l]
                start = ph.start
                for k in used_media:
                    gw = self.gw_cost[(ref, k)]
                    kk = arch.media[k]
                    if k == start:
                        s.require(Implies(self.pf[ref] == l, gw == 0))
                    elif k in ph.longest:
                        s.require(
                            Implies(
                                And(self.pf[ref] == l, self.k_use[(ref, k)]),
                                gw == kk.gateway_service,
                            )
                        )
            # Jitter inheritance along the chosen closure's path order.
            jit_hi = task.release_jitter + msg.deadline
            for k in used_media:
                jv = s.int_var(f"J[{ref},{k}]", 0, jit_hi)
                self.msg_jitter[(ref, k)] = jv
            for l, subs in sorted(feas.items()):
                ph = self.closures[l]
                h_long = ph.longest
                for pos, k in enumerate(h_long):
                    if k not in set(used_media):
                        continue
                    expr: IntExpr = IntConst(task.release_jitter)
                    for prev in h_long[:pos]:
                        beta = arch.media[prev].transmission_ticks(
                            msg.size_bits
                        )
                        expr = expr + self.local_dl[(ref, prev)] - beta
                    s.require(
                        Implies(
                            And(self.pf[ref] == l, self.k_use[(ref, k)]),
                            self.msg_jitter[(ref, k)] == expr,
                        )
                    )
            for k in used_media:
                s.require(
                    Implies(
                        Not(self.k_use[(ref, k)]),
                        self.msg_jitter[(ref, k)] == 0,
                    )
                )

        # --- per-medium sending ECU and response-time variables ---------
        # Two phases: declare every (message, medium) variable first, so
        # the interference equations of any message can reference the
        # send/jitter variables of every other message.
        self._feasible = feasible
        self._media_of: dict[MsgRef, list[str]] = {
            ref: sorted(
                {kk for subs in feasible[ref].values() for h in subs
                 for kk in h}
            )
            for ref in self.msg_refs
        }
        for ref in self.msg_refs:
            for k in self._media_of[ref]:
                self._declare_msg_medium_vars(ref, k, feasible[ref])
        for ref in self.msg_refs:
            for k in self._media_of[ref]:
                self._build_msg_on_medium(ref, k)

    def _declare_msg_medium_vars(
        self,
        ref: MsgRef,
        kname: str,
        feas: dict[int, list[tuple[str, ...]]],
    ) -> None:
        s = self.solver
        arch = self.arch
        k = arch.media[kname]
        task, msg = ref.resolve(self.tasks)
        ku = self.k_use[(ref, kname)]

        # Sending ECU on this medium: the task's ECU when the medium is
        # the first hop, else the upstream gateway (fixed per closure).
        ecu_ids = sorted(self.ecu_index[p] for p in k.ecus)
        send = s.int_var(f"send[{ref},{kname}]", min(ecu_ids), max(ecu_ids))
        self.send_ecu[(ref, kname)] = send
        for idx in range(min(ecu_ids), max(ecu_ids) + 1):
            if idx not in ecu_ids:
                s.require(send != idx)
        for l in sorted(feas):
            ph = self.closures[l]
            if kname not in ph.longest:
                continue
            pos = ph.longest.index(kname)
            guard = And(self.pf[ref] == l, ku)
            if pos == 0:
                s.require(Implies(guard, send == self.a[task.name]))
            else:
                gw = arch.gateway_between(ph.longest[pos - 1], kname)
                assert gw is not None
                s.require(Implies(guard, send == self.ecu_index[gw]))

        # Response-time variable; only meaningful when the medium is used.
        self.msg_resp[(ref, kname)] = s.int_var(
            f"rm[{ref},{kname}]", 0, msg.deadline
        )

    def _build_msg_on_medium(self, ref: MsgRef, kname: str) -> None:
        s = self.solver
        arch = self.arch
        k = arch.media[kname]
        task, msg = ref.resolve(self.tasks)
        rho = k.transmission_ticks(msg.size_bits)
        ku = self.k_use[(ref, kname)]
        dl = self.local_dl[(ref, kname)]
        send = self.send_ecu[(ref, kname)]
        r = self.msg_resp[(ref, kname)]

        # Interference from higher-priority messages that can share this
        # medium.
        my_rank = self.msg_rank[ref]
        ic_terms: list[IntExpr] = [IntConst(rho)]
        for other in self.msg_refs:
            if other == ref or self.msg_rank[other] >= my_rank:
                continue
            # Other message can only interfere if it can use this medium.
            if kname not in self._media_of[other]:
                continue
            otask, omsg = other.resolve(self.tasks)
            orho = k.transmission_ticks(omsg.size_bits)
            i_ub = (msg.deadline + otask.release_jitter + omsg.deadline
                    ) // otask.period + 2
            cnt = s.int_var(f"Im[{ref},{other},{kname}]", 0, i_ub)
            ic = s.int_var(
                f"ic[{ref},{other},{kname}]",
                0,
                min(i_ub * orho, msg.deadline),
            )
            ic_terms.append(ic)
            both = And(ku, self.k_use[(other, kname)])
            if k.kind is MediumKind.TOKEN_RING:
                # Only messages queued on the same sending ECU interfere
                # directly (other slots are covered by the round time).
                both = And(
                    both, self.send_ecu[(other, kname)] == send
                )
            oj = self.msg_jitter[(other, kname)]
            prod = cnt * otask.period
            s.require(
                Implies(
                    both,
                    And(
                        prod >= r + oj,
                        prod < r + oj + otask.period,
                        ic == cnt * orho,
                    ),
                )
            )
            s.require(Implies(Not(both), And(cnt == 0, ic == 0)))

        msg_guard = self._obligation_guard(f"msg-deadline:{ref}")
        if k.kind is MediumKind.CAN:
            if k.nonpreemptive_blocking:
                # One lower-priority frame may already occupy the wire:
                # b >= rho_o for every lower-priority message active on
                # this medium (Tindell's CAN blocking term; eq. 2 without
                # it is the paper's printed form).
                lower = []
                for other in self.msg_refs:
                    if other == ref or self.msg_rank[other] <= my_rank:
                        continue
                    if kname not in self._media_of[other]:
                        continue
                    otask, omsg = other.resolve(self.tasks)
                    lower.append(
                        (other, k.transmission_ticks(omsg.size_bits))
                    )
                if lower:
                    b = s.int_var(
                        f"B[{ref},{kname}]", 0, max(orho for _, orho in lower)
                    )
                    ic_terms.append(b)
                    for other, orho in lower:
                        s.require(
                            Implies(
                                And(ku, self.k_use[(other, kname)]),
                                b >= orho,
                            )
                        )
                    s.require(Implies(Not(ku), b == 0))
            s.require(
                Implies(ku, r == _sum_exprs(ic_terms)), guard=msg_guard,
                label=f"msg-deadline:{ref}",
            )
        else:
            # TDMA blocking: Imb rounds, each paying (Lambda - own slot).
            trt = self.trt[kname]
            lo, hi = self._slot_bounds(kname)
            osl = s.int_var(f"osl[{ref},{kname}]", lo, hi)
            for p in k.ecus:
                s.require(
                    Implies(
                        And(ku, send == self.ecu_index[p]),
                        osl == self.slot[(kname, p)],
                    )
                )
                # The frame (plus slot overhead) must fit the slot.
                s.require(
                    Implies(
                        And(ku, send == self.ecu_index[p]),
                        self.slot[(kname, p)] >= rho + k.slot_overhead,
                    )
                )
            imb_ub = max(1, -((-msg.deadline) // (lo * len(k.ecus))))
            imb = s.int_var(f"Imb[{ref},{kname}]", 0, imb_ub)
            block = s.int_var(
                f"blk[{ref},{kname}]", 0, msg.deadline
            )
            prod = imb * trt
            s.require(
                Implies(
                    ku,
                    And(
                        prod >= r,
                        prod < r + trt,
                        block == imb * (trt - osl),
                        r == _sum_exprs(ic_terms + [block]),
                    ),
                ),
                guard=msg_guard,
                label=f"msg-deadline:{ref}",
            )
            s.require(Implies(Not(ku), And(imb == 0, block == 0)))

        # Local deadline check (section 4) and unused pinning.
        s.require(
            Implies(ku, r <= dl), guard=msg_guard,
            label=f"msg-deadline:{ref}",
        )
        s.require(Implies(Not(ku), r == 0))

    # ------------------------------------------------------------------
    # Model decoding
    # ------------------------------------------------------------------

    def decode(self) -> Allocation:
        """Read the last SAT model back into a concrete Allocation."""
        s = self.solver
        task_ecu = {
            t.name: self.ecu_names[s.value(self.a[t.name])]
            for t in self.tasks
        }
        task_prio = self._decode_priorities()
        message_path: dict[MsgRef, tuple[str, ...]] = {}
        local_deadline: dict[tuple[MsgRef, str], int] = {}
        for ref in self.msg_refs:
            l = s.value(self.pf[ref])
            ph = self.closures[l]
            used = [
                k
                for k in ph.longest
                if (ref, k) in self.k_use
                and s.value_bool(self.k_use[(ref, k)])
            ]
            path = tuple(used)
            message_path[ref] = path
            for k in path:
                local_deadline[(ref, k)] = s.value(self.local_dl[(ref, k)])
        slot_ticks = {
            key: s.value(var) for key, var in self.slot.items()
        }
        return Allocation(
            task_ecu=task_ecu,
            task_prio=task_prio,
            message_path=message_path,
            slot_ticks=slot_ticks,
            local_deadline=local_deadline,
            msg_prio=dict(self.msg_rank),
        )

    def _decode_priorities(self) -> dict[str, int]:
        """Total priority order: deadline-monotonic with the model's
        tie-break values inside equal-deadline groups."""
        s = self.solver

        def higher(x: str, y: str) -> bool:
            """True when x has higher priority than y."""
            tx, ty = self.tasks[x], self.tasks[y]
            if tx.deadline != ty.deadline:
                return tx.deadline < ty.deadline
            key = (min(x, y), max(x, y))
            val = s.value_bool(self.tie_break[key])
            # tie_break true means "first-named has higher priority".
            return val if x == key[0] else not val

        names = self.tasks.names()
        # Insertion sort with the (transitive) comparator.
        ordered: list[str] = []
        for n in names:
            pos = len(ordered)
            for idx, m in enumerate(ordered):
                if higher(n, m):
                    pos = idx
                    break
            ordered.insert(pos, n)
        return {n: rank for rank, n in enumerate(ordered)}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def formula_size(self) -> dict:
        """The paper's complexity metrics (Var. / Lit. columns)."""
        return self.solver.formula_size()

    def encode_stats(self) -> dict:
        """Cross-layer encoding instrumentation (hash-consing, simplify,
        triplet, blast counters and timings) as a JSON-ready dict; see
        :class:`repro.arith.stats.EncodeStats`."""
        return self.solver.encode_stats().to_dict()

    def to_dimacs(self, out) -> None:
        """Dump the bit-blasted instance in DIMACS CNF (PB constraints
        appear as comment lines; use :meth:`to_opb` for a lossless dump).
        """
        from repro.sat.dimacs import dump_solver

        dump_solver(self.solver.sat, out)

    def to_opb(self, out) -> None:
        """Dump the instance in OPB format (clauses as >=1 constraints,
        PB constraints natively) -- the exchange format of PB solvers
        like the paper's GOBLIN."""
        from repro.pb.constraint import PBConstraint
        from repro.pb.opb import OpbProblem, write_opb

        sat = self.solver.sat
        constraints = [
            PBConstraint(list(c.lits), [1] * len(c.lits), 1)
            for c in sat.clauses
        ]
        constraints += [
            PBConstraint(list(p.lits), list(p.coefs), p.bound)
            for p in sat.pbs
        ]
        write_opb(OpbProblem(sat.nvars, constraints, None), out)
