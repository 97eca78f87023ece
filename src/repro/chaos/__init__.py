"""Deterministic chaos engineering: named fault sites + seeded schedules.

See :mod:`repro.chaos.schedule` for the model and
``docs/ROBUSTNESS.md`` for the failure-mode matrix (site x detection x
recovery x exit code).
"""

from repro.chaos.schedule import (
    CHAOS_EXIT_CODE,
    EVENT_LOG_NAME,
    KINDS,
    PROFILES,
    SITE_KINDS,
    SITES,
    ChaosDiskFull,
    ChaosFault,
    ChaosIOError,
    ChaosSchedule,
    active,
    chaos_data,
    chaos_flag,
    chaos_point,
    current,
    install,
    uninstall,
)

__all__ = [
    "CHAOS_EXIT_CODE",
    "EVENT_LOG_NAME",
    "KINDS",
    "PROFILES",
    "SITE_KINDS",
    "SITES",
    "ChaosDiskFull",
    "ChaosFault",
    "ChaosIOError",
    "ChaosSchedule",
    "active",
    "chaos_data",
    "chaos_flag",
    "chaos_point",
    "current",
    "install",
    "uninstall",
]
