"""Architecture model ``A = (P, K, kappa)``.

ECUs are processing nodes; a medium connects a subset of ECUs.  Two kinds
of media are modelled, matching the paper:

- **TDMA / token-ring** (``MediumKind.TOKEN_RING``): bandwidth divided
  into per-ECU slots; a message waits for its sender's slot each round
  (response-time eq. 3).  The Token Rotation Time (TRT) -- the TDMA round
  length ``Lambda`` -- is the optimization objective of the paper's
  experiments on [5].
- **CAN-style priority bus** (``MediumKind.CAN``): messages arbitrate by
  unique priorities (response-time eq. 2).

An ECU that belongs to two or more media is a **gateway**; messages may
cross it (at a service cost), and some experiments forbid gateways from
hosting application tasks (architectures A and B of figure 2).

Times are integer microsecond ticks throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["MediumKind", "TOKEN_RING", "CAN", "Ecu", "Medium", "Architecture"]


class MediumKind(Enum):
    """Access method of a communication medium."""

    TOKEN_RING = "token-ring"
    CAN = "can"


TOKEN_RING = MediumKind.TOKEN_RING
CAN = MediumKind.CAN


@dataclass(frozen=True)
class Ecu:
    """An embedded control unit.

    ``speed`` scales WCETs built from a nominal per-task execution time
    (heterogeneity knob); ``allow_tasks`` is cleared for pure gateway
    nodes (architectures A/B of fig. 2 place no application tasks on
    gateways); ``memory`` is the ECU's RAM/flash capacity in abstract
    units (None = unbounded) -- the "memory consumption" requirement
    class the paper inherits from [5].
    """

    name: str
    speed: float = 1.0
    allow_tasks: bool = True
    memory: int | None = None

    def __post_init__(self):
        if self.speed <= 0:
            raise ValueError(f"ECU {self.name}: speed must be positive")
        if self.memory is not None and self.memory < 0:
            raise ValueError(f"ECU {self.name}: memory must be >= 0")


@dataclass
class Medium:
    """A communication medium ``k = {p_1, ..., p_j}`` with parameters
    ``kappa``.

    ``bit_rate`` is in bits per second; ``frame_overhead_bits`` is the
    per-frame protocol overhead (headers, stuffing reserve); for
    token-ring media ``slot_overhead`` (ticks) is the fixed per-slot cost
    added to every ECU slot and ``min_slot`` the smallest admissible slot
    length.  ``tick_us`` sets the duration of one model tick in
    microseconds (workloads use coarser ticks to keep bit-blasted
    variable widths small).
    """

    name: str
    kind: MediumKind
    ecus: tuple[str, ...]
    bit_rate: int = 1_000_000
    frame_overhead_bits: int = 47          # CAN 2.0A worst-case overhead
    slot_overhead: int = 20                # ticks per token-ring slot
    min_slot: int = 50                     # ticks
    gateway_service: int = 100             # ticks per gateway crossing
    tick_us: int = 1                       # microseconds per model tick
    #: Account for the non-preemptive blocking of one lower-priority
    #: frame in CAN response times (the standard Tindell CAN analysis;
    #: the paper's eq. 2 is the False case).
    nonpreemptive_blocking: bool = False

    def __post_init__(self):
        if len(set(self.ecus)) != len(self.ecus):
            raise ValueError(f"medium {self.name}: duplicate ECUs")
        if len(self.ecus) < 2:
            raise ValueError(f"medium {self.name}: needs >= 2 ECUs")
        if self.bit_rate <= 0:
            raise ValueError(f"medium {self.name}: bit_rate must be positive")
        if self.tick_us <= 0:
            raise ValueError(f"medium {self.name}: tick_us must be positive")
        self.ecus = tuple(self.ecus)

    def transmission_ticks(self, size_bits: int) -> int:
        """Worst-case wire time (ticks) of one message of ``size_bits``
        payload, including protocol overhead -- the rho of eq. 2.
        Rounded up to whole ticks (safe over-approximation)."""
        bits = size_bits + self.frame_overhead_bits
        return -(-bits * 1_000_000 // (self.bit_rate * self.tick_us))

    def connects(self, ecu: str) -> bool:
        """True when ``ecu`` is attached to this medium."""
        return ecu in self.ecus


class Architecture:
    """The hardware platform: ECUs + media + derived topology facts.

    Validates the paper's structural assumption "only one gateway between
    two media": any pair of media may share at most one ECU.
    """

    def __init__(self, ecus: list[Ecu], media: list[Medium]):
        names = [e.name for e in ecus]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ECU names")
        self.ecus: dict[str, Ecu] = {e.name: e for e in ecus}
        self.media: dict[str, Medium] = {}
        for m in media:
            if m.name in self.media:
                raise ValueError(f"duplicate medium name {m.name}")
            for p in m.ecus:
                if p not in self.ecus:
                    raise ValueError(
                        f"medium {m.name} references unknown ECU {p}"
                    )
            self.media[m.name] = m
        self._check_single_gateway()

    def _check_single_gateway(self) -> None:
        media = list(self.media.values())
        for i in range(len(media)):
            for j in range(i + 1, len(media)):
                shared = set(media[i].ecus) & set(media[j].ecus)
                if len(shared) > 1:
                    raise ValueError(
                        f"media {media[i].name} and {media[j].name} share "
                        f"{len(shared)} ECUs; the model allows at most one "
                        "gateway between two media"
                    )

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    def ecu_names(self) -> list[str]:
        """ECU names in declaration order."""
        return list(self.ecus)

    def medium_names(self) -> list[str]:
        """Medium names in declaration order."""
        return list(self.media)

    def media_of_ecu(self, ecu: str) -> list[str]:
        """Names of all media the ECU is attached to."""
        return [m.name for m in self.media.values() if m.connects(ecu)]

    def gateways(self) -> list[str]:
        """ECUs attached to two or more media."""
        return [p for p in self.ecus if len(self.media_of_ecu(p)) >= 2]

    def gateway_between(self, k1: str, k2: str) -> str | None:
        """The unique gateway ECU linking two media, or None."""
        shared = set(self.media[k1].ecus) & set(self.media[k2].ecus)
        return next(iter(shared)) if shared else None

    def media_adjacency(self) -> dict[str, list[str]]:
        """Media graph: ``k1 -> [k2, ...]`` when a gateway links them."""
        names = list(self.media)
        adj: dict[str, list[str]] = {k: [] for k in names}
        for i, k1 in enumerate(names):
            for k2 in names[i + 1 :]:
                if self.gateway_between(k1, k2) is not None:
                    adj[k1].append(k2)
                    adj[k2].append(k1)
        return adj

    def task_capable_ecus(self) -> list[str]:
        """ECUs allowed to host application tasks."""
        return [p for p, e in self.ecus.items() if e.allow_tasks]

    def common_medium(self, p1: str, p2: str) -> str | None:
        """A medium connecting both ECUs directly, or None."""
        for m in self.media.values():
            if m.connects(p1) and m.connects(p2):
                return m.name
        return None

    def __repr__(self) -> str:
        return (
            f"Architecture({len(self.ecus)} ECUs, "
            f"{len(self.media)} media, gateways={self.gateways()})"
        )
