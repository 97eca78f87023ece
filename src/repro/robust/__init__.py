"""Solve supervision: budgets, checkpoints, degradation.

The SOLVE/BIN_SEARCH loop (paper section 5.2) is a long-running search
over NP-hard instances; serving it at production scale demands that
every solve is *bounded*, *resumable*, and *degradable*.  This package
supplies the supervision layer:

- :mod:`repro.robust.budget` -- cooperative :class:`Budget` limits
  (wall time / conflicts / decisions) honored inside the CDCL search
  loop, so a single probe is interruptible mid-search,
- :mod:`repro.robust.checkpoint` -- checkpoint/resume state for
  binary searches (:class:`SearchCheckpoint`), one framed record per
  save; a file without the ``REPRO-CHECKPOINT v1`` header (a JSON
  checkpoint of an earlier release included) raises
  :class:`CheckpointCorrupt` and is quarantined,
- :mod:`repro.robust.supervisor` -- the :class:`SolveSupervisor`
  escalation chain (incremental -> rebuild -> heuristic) that always
  returns a usable allocation with an honest status,
- :mod:`repro.robust.faults` -- deterministic proof and witness
  corruption for testing the certifiers.

Sweeps -- per-cell timeouts, hung- and crashed-worker recovery, bounded
retry, resume -- run through :func:`repro.fabric.fabric_sweep`, and
process-level faults are injected through :mod:`repro.chaos`; see
``docs/ROBUSTNESS.md`` for the full picture.
"""

from repro.robust.budget import Budget, BudgetExpired
from repro.robust.checkpoint import (
    CheckpointCorrupt,
    CorruptArtifact,
    SearchCheckpoint,
)
from repro.robust.flight import FlightRecorder, read_events
from repro.robust.faults import (
    PROOF_CORRUPTIONS,
    corrupt_allocation,
    corrupt_proof_line,
)
from repro.robust.supervisor import (
    SolveSupervisor,
    StageReport,
    SupervisedResult,
)

__all__ = [
    "Budget",
    "BudgetExpired",
    "SearchCheckpoint",
    "CheckpointCorrupt",
    "CorruptArtifact",
    "SolveSupervisor",
    "StageReport",
    "SupervisedResult",
    "FlightRecorder",
    "read_events",
    "PROOF_CORRUPTIONS",
    "corrupt_proof_line",
    "corrupt_allocation",
]
