"""The sharded experiment fabric: the repository's one sweep runner.

Every sweep -- a table's grid of independent (workload, architecture,
objective) cells, the CLI's ``repro sweep`` -- runs here.  The package
lifts checkpoint/resume one level up, into a **fault-tolerant
experiment fabric** for the 10k-100k-cell parametric sweeps the roadmap
asks for (the workload class of parametric schedulability studies, cf.
arXiv 1302.1306):

- :mod:`repro.fabric.jobs` -- every sweep cell is a **content-addressed
  job**: SHA-256 over the canonicalized parameter, the solve-config
  fingerprint, and a code fingerprint, so "the same experiment" is
  recognized across runs, processes, and machines;
- :mod:`repro.fabric.store` -- results land in an **append-only store**
  of length-prefixed, CRC32-framed JSON segments (the proof-spool
  discipline) with torn-tail repair on open, dedupe-on-key, and a
  compaction pass that quarantines corrupt segments;
- :mod:`repro.fabric.lease` + :mod:`repro.fabric.coordinator` --
  **lease-based work stealing**: workers claim jobs under expiring
  leases, renew them via heartbeat, a reaper re-queues expired leases
  so a SIGKILLed worker's cell is re-run by a peer, and bounded
  retry/backoff plus a poison-job quarantine guarantee the run degrades
  to an honest partial report instead of hanging.

Entry points: :func:`repro.fabric.fabric_sweep` (without
``fabric_dir`` it runs against a private temporary store) or the CLI's
``repro sweep [--fabric-dir DIR]``.  Cell values must be
JSON-serializable, and duplicate parameters run once.  Chaos sites
``fabric.store.append``, ``fabric.store.fsync``, ``fabric.lease.renew``,
``fabric.worker.claim`` and ``sweep.cell`` (the cell itself crashing,
hanging or raising) make the whole protocol torture-testable
(``tests/test_fabric_torture.py``); see ``docs/FABRIC.md``.
"""

from repro.fabric.coordinator import (
    EVENTS_NAME,
    FabricOutcome,
    SweepResult,
    fabric_sweep,
)
from repro.fabric.jobs import Job, code_fingerprint, job_key, make_jobs
from repro.fabric.lease import LeaseBoard
from repro.fabric.store import (
    MAGIC,
    FabricStoreError,
    ResultStore,
    SegmentWriter,
    scan_segment,
)

__all__ = [
    "fabric_sweep",
    "FabricOutcome",
    "SweepResult",
    "EVENTS_NAME",
    "Job",
    "job_key",
    "make_jobs",
    "code_fingerprint",
    "LeaseBoard",
    "ResultStore",
    "SegmentWriter",
    "FabricStoreError",
    "scan_segment",
    "MAGIC",
]
