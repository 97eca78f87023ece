"""Encoding templates: encode a served scenario once, replay it after.

A warm request of a served scenario is usually the same system with some
WCETs changed.  Eq. 5 is the only place the formula reads a WCET value,
so the allocator encodes such systems in *parameter mode*
(:class:`repro.core.encoder.ProblemEncoding` with ``parametric=True``):
every WCET is a parameter variable ``p[t,i]`` with range ``[0, 2^k - 1]``,
where ``k`` is the bit length of the task's largest candidate WCET, and
the values are fixed last, as unit clauses on the parameter bits.

Everything before those units -- the engine calls of the encoding, the
objective and ``$cost`` included -- is kept as an
:class:`EncodingTemplate`.  A later request of the same *shape*
(:func:`template_shape`) replays it into a fresh SAT engine at
clause-loader speed and adds its own units; replay plus units leave
exactly the engine state a fresh parameter-mode encoding leaves.

Templates travel through :attr:`repro.core.api.SolveRequest.template`,
a :class:`TemplateSlot`: the caller offers one, the solve replays it
when it fits, and the slot hands back the template that fits this
request (the offered one, or the one a fresh encode recorded).  The
allocation server keeps them on its warm-cache entries (see
``docs/SERVING.md``).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import asdict, dataclass

__all__ = ["EncodingTemplate", "TemplateSlot", "template_shape"]


@dataclass(frozen=True, eq=False)
class EncodingTemplate:
    """One recorded parameter-mode encoding (read-only once taken).

    The engine-call stream (:attr:`repro.sat.solver.EngineRecord.ops`,
    the bulk of the bytes) is kept as the one array it was recorded
    into, and everything else is one pickled blob (:meth:`pack` /
    :meth:`unpack`): a long-lived template holds none of the thousands
    of small objects its encoding made, which would otherwise stay
    scattered over the allocator's pages between requests and keep
    them resident.  Each replay unpickles its own copies."""

    #: :func:`template_shape` of the systems this template encodes.
    shape: str
    #: The recorded engine-call stream.
    ops: object
    #: Pickled ``(solver template, model state, cost)``: the engine
    #: calls and leaf maps (:class:`repro.arith.solver.SolverTemplate`,
    #: its call stream left out), the encoding's model attributes
    #: (decision-variable maps, path closures, parameters), and ``(cost
    #: variable, lower bound, upper bound)`` of the objective.
    blob: bytes

    @classmethod
    def pack(cls, shape: str, solver, state: dict, cost: tuple
             ) -> "EncodingTemplate":
        ops = solver.record.ops
        solver.record.ops = None
        return cls(shape, ops,
                   pickle.dumps((solver, state, cost), protocol=5))

    def unpack(self) -> tuple:
        """``(solver template, model state, cost)``, freshly built."""
        solver, state, cost = pickle.loads(self.blob)
        solver.record.ops = self.ops
        return solver, state, cost

    @property
    def nbytes(self) -> int:
        """Bytes held (the cache's memory accounting)."""
        return len(self.blob) + 4 * len(self.ops)


class TemplateSlot:
    """Runtime handle of one solve's encoding template.

    Offer a template with ``TemplateSlot(template)`` (or none); after
    the solve :attr:`template` is the template that fits the request's
    system, or None when nothing was encoded."""

    def __init__(self, template: EncodingTemplate | None = None):
        self.template = template


def template_shape(tasks, arch, objective, config) -> str:
    """The key a template must match to be replayed for a system.

    The system's content with every WCET value replaced by its
    parameter width (the bit length of the task's largest candidate
    WCET), plus the identity of the objective and encoder configuration
    and the code fingerprint.  Media enter with every field (the system
    codec leaves some out, such as CAN blocking).  An objective that
    reads WCET values itself (``reads_wcet``) adds those values, so for
    it any WCET change is a new shape."""
    from repro.core.api import SolveRequest
    from repro.fabric.jobs import code_fingerprint
    from repro.io.json_codec import system_to_dict

    doc = system_to_dict(tasks, arch)
    for t, td in zip(tasks, doc["tasks"]):
        width = max(
            (t.wcet[p] for p in t.candidate_ecus(arch)), default=0
        ).bit_length()
        td["wcet"] = dict.fromkeys(td["wcet"], width)
    key = {
        "system": doc,
        "media": [asdict(m) for m in arch.media.values()],
        "identity": SolveRequest(objective=objective,
                                 config=config).fingerprint(),
        "code": code_fingerprint(),
    }
    if getattr(objective, "reads_wcet", False):
        key["wcet"] = [sorted(t.wcet.items()) for t in tasks]
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"),
                      default=str).encode()
    return hashlib.sha256(b"REPRO-SHAPE v1\x00" + blob).hexdigest()[:24]
