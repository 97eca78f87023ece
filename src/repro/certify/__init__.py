"""Certified answers for optimization runs.

Every binary-search probe either proves its answer or is rejected:

- UNSAT probes carry a DRUP-style proof (logged by
  :class:`repro.sat.proof.ProofLog`) that an independent checker
  (:mod:`repro.certify.drup`, no solver code imported) replays;
- SAT probes carry a witness (the decoded allocation) that
  :mod:`repro.certify.audit` re-verifies against the original analysis
  and an independently recomputed objective value;
- relaxation lower bounds (:mod:`repro.bounds`) carry a dual-weight
  certificate that :mod:`repro.certify.bounds` re-audits from the model
  before the search may skip the UNSAT probes below the bound.

:class:`ProbeCertifier` (:mod:`repro.certify.certifier`) wires both into
:func:`repro.core.optimize.bin_search`; results surface as a
:class:`CertifiedResult` on :class:`repro.core.allocator.AllocationResult`.
"""

from repro.certify.audit import AuditReport, audit_witness, independent_cost
from repro.certify.bounds import (
    BoundAuditReport,
    BoundCertificate,
    audit_lower_certificate,
    bound_objective_key,
)
from repro.certify.certifier import ProbeCertifier
from repro.certify.drup import ProofError, RupChecker, check_proof_lines
from repro.certify.proofio import (
    ProofArtifactError,
    ProofSpool,
    load_proof,
    scan_artifact,
)
from repro.certify.result import CertifiedResult, ProbeCertificate

__all__ = [
    "AuditReport",
    "BoundAuditReport",
    "BoundCertificate",
    "audit_lower_certificate",
    "bound_objective_key",
    "CertifiedResult",
    "ProbeCertificate",
    "ProbeCertifier",
    "ProofArtifactError",
    "ProofError",
    "ProofSpool",
    "load_proof",
    "scan_artifact",
    "RupChecker",
    "audit_witness",
    "check_proof_lines",
    "independent_cost",
]
