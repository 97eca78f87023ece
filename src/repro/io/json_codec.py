"""JSON codec for systems (architecture + task set) and allocations.

System schema::

    {
      "name": "my-system",
      "architecture": {
        "ecus": [
          {"name": "p0", "speed": 1.0, "allow_tasks": true, "memory": null}
        ],
        "media": [
          {"name": "ring", "kind": "token-ring", "ecus": ["p0", "p1"],
           "bit_rate": 1000000, "frame_overhead_bits": 47,
           "slot_overhead": 20, "min_slot": 50,
           "gateway_service": 100, "tick_us": 1}
        ]
      },
      "tasks": [
        {"name": "t", "period": 1000, "wcet": {"p0": 100},
         "deadline": 1000, "messages":
            [{"target": "u", "size_bits": 64, "deadline": 500}],
         "allowed": ["p0"], "separated_from": [],
         "release_jitter": 0, "memory": 0}
      ]
    }

A CAN medium with Tindell's non-preemptive blocking term adds
``"nonpreemptive_blocking": true``; the key is written only when set,
so systems without it serialize as before.

Allocation schema mirrors :class:`repro.analysis.Allocation`; message
references serialize as ``"sender/index"`` and pair keys as two-element
arrays.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.allocation import Allocation, MsgRef
from repro.model.architecture import Architecture, Ecu, Medium, MediumKind
from repro.model.task import Message, Task, TaskSet

__all__ = [
    "system_to_dict",
    "system_from_dict",
    "load_system",
    "save_system",
    "allocation_to_dict",
    "allocation_from_dict",
]


def system_to_dict(tasks: TaskSet, arch: Architecture) -> dict:
    """Serialize a system to a JSON-compatible dict."""
    return {
        "name": tasks.name,
        "architecture": {
            "ecus": [
                {
                    "name": e.name,
                    "speed": e.speed,
                    "allow_tasks": e.allow_tasks,
                    "memory": e.memory,
                }
                for e in arch.ecus.values()
            ],
            "media": [_medium_to_dict(m) for m in arch.media.values()],
        },
        "tasks": [
            {
                "name": t.name,
                "period": t.period,
                "wcet": dict(t.wcet),
                "deadline": t.deadline,
                "messages": [
                    {
                        "target": m.target,
                        "size_bits": m.size_bits,
                        "deadline": m.deadline,
                    }
                    for m in t.messages
                ],
                "allowed": sorted(t.allowed) if t.allowed is not None
                else None,
                "separated_from": sorted(t.separated_from),
                "release_jitter": t.release_jitter,
                "memory": t.memory,
            }
            for t in tasks
        ],
    }


def _medium_to_dict(m: Medium) -> dict:
    out = {
        "name": m.name,
        "kind": m.kind.value,
        "ecus": list(m.ecus),
        "bit_rate": m.bit_rate,
        "frame_overhead_bits": m.frame_overhead_bits,
        "slot_overhead": m.slot_overhead,
        "min_slot": m.min_slot,
        "gateway_service": m.gateway_service,
        "tick_us": m.tick_us,
    }
    if m.nonpreemptive_blocking:
        out["nonpreemptive_blocking"] = True
    return out


def _flag(doc: dict, key: str) -> bool:
    """An optional JSON boolean (False when absent); anything but
    ``true``/``false`` is rejected rather than read by truthiness."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, not {value!r}")
    return value


def system_from_dict(data: dict) -> tuple[TaskSet, Architecture]:
    """Inverse of :func:`system_to_dict` (with schema validation driven
    by the model classes' own constructors)."""
    arch_data = data["architecture"]
    ecus = [
        Ecu(
            name=e["name"],
            speed=e.get("speed", 1.0),
            allow_tasks=e.get("allow_tasks", True),
            memory=e.get("memory"),
        )
        for e in arch_data["ecus"]
    ]
    media = [
        Medium(
            name=m["name"],
            kind=MediumKind(m["kind"]),
            ecus=tuple(m["ecus"]),
            bit_rate=m.get("bit_rate", 1_000_000),
            frame_overhead_bits=m.get("frame_overhead_bits", 47),
            slot_overhead=m.get("slot_overhead", 20),
            min_slot=m.get("min_slot", 50),
            gateway_service=m.get("gateway_service", 100),
            tick_us=m.get("tick_us", 1),
            nonpreemptive_blocking=_flag(m, "nonpreemptive_blocking"),
        )
        for m in arch_data["media"]
    ]
    arch = Architecture(ecus=ecus, media=media)
    tasks = [
        Task(
            name=t["name"],
            period=t["period"],
            wcet={k: int(v) for k, v in t["wcet"].items()},
            deadline=t["deadline"],
            messages=tuple(
                Message(m["target"], m["size_bits"], m["deadline"])
                for m in t.get("messages", [])
            ),
            allowed=(
                frozenset(t["allowed"])
                if t.get("allowed") is not None
                else None
            ),
            separated_from=frozenset(t.get("separated_from", [])),
            release_jitter=t.get("release_jitter", 0),
            memory=t.get("memory", 0),
        )
        for t in data["tasks"]
    ]
    return TaskSet(tasks, name=data.get("name", "system")), arch


def load_system(path: str | Path) -> tuple[TaskSet, Architecture]:
    """Load a system JSON file."""
    with open(path) as fh:
        return system_from_dict(json.load(fh))


def save_system(tasks: TaskSet, arch: Architecture, path: str | Path) -> None:
    """Write a system JSON file."""
    with open(path, "w") as fh:
        json.dump(system_to_dict(tasks, arch), fh, indent=2)
        fh.write("\n")


def allocation_to_dict(alloc: Allocation) -> dict:
    """Serialize an allocation to a JSON-compatible dict."""
    return {
        "task_ecu": dict(alloc.task_ecu),
        "task_prio": dict(alloc.task_prio),
        "message_path": {
            str(ref): list(path) for ref, path in alloc.message_path.items()
        },
        "slot_ticks": [
            {"medium": k, "ecu": p, "ticks": v}
            for (k, p), v in sorted(alloc.slot_ticks.items())
        ],
        "local_deadline": [
            {"message": str(ref), "medium": k, "deadline": v}
            for (ref, k), v in sorted(
                alloc.local_deadline.items(), key=lambda kv: str(kv[0])
            )
        ],
        "msg_prio": {str(ref): v for ref, v in alloc.msg_prio.items()},
    }


def _parse_ref(text: str) -> MsgRef:
    sender, _, idx = text.rpartition("/")
    if not sender or not idx.startswith("m"):
        raise ValueError(f"bad message reference {text!r}")
    return MsgRef(sender, int(idx[1:]))


def allocation_from_dict(data: dict) -> Allocation:
    """Inverse of :func:`allocation_to_dict`."""
    return Allocation(
        task_ecu=dict(data["task_ecu"]),
        task_prio={k: int(v) for k, v in data["task_prio"].items()},
        message_path={
            _parse_ref(k): tuple(v)
            for k, v in data.get("message_path", {}).items()
        },
        slot_ticks={
            (e["medium"], e["ecu"]): int(e["ticks"])
            for e in data.get("slot_ticks", [])
        },
        local_deadline={
            (_parse_ref(e["message"]), e["medium"]): int(e["deadline"])
            for e in data.get("local_deadline", [])
        },
        msg_prio={
            _parse_ref(k): int(v)
            for k, v in data.get("msg_prio", {}).items()
        },
    )
