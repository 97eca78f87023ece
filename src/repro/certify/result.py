"""Certification results threaded through the optimization stack."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ProbeCertificate", "CertifiedResult"]


@dataclass
class ProbeCertificate:
    """Verdict for one binary-search probe's certificate.

    ``kind`` is ``"sat"`` (witness audited), ``"unsat"`` (proof checked)
    or ``"skipped"`` (probe interrupted before answering -- nothing to
    certify); ``"proof"`` is no probe but the proof steps logged after
    the last one, recorded only when they fail their check.  ``ok`` is
    the checker's verdict; ``detail`` explains a failure.
    """

    index: int
    kind: str
    ok: bool
    detail: str | None = None
    claimed_cost: int | None = None
    recomputed_cost: int | None = None
    proof_steps_checked: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "index": self.index,
            "kind": self.kind,
            "ok": self.ok,
            "seconds": round(self.seconds, 6),
        }
        if self.detail:
            out["detail"] = self.detail
        if self.claimed_cost is not None:
            out["claimed_cost"] = self.claimed_cost
        if self.recomputed_cost is not None:
            out["recomputed_cost"] = self.recomputed_cost
        if self.proof_steps_checked:
            out["proof_steps_checked"] = self.proof_steps_checked
        return out


@dataclass
class CertifiedResult:
    """Per-probe certification verdicts plus aggregate bookkeeping."""

    probes: list[ProbeCertificate] = field(default_factory=list)
    #: Total proof log length (input + addition + deletion lines).
    proof_lines: int = 0
    #: RUP checks actually performed by the independent checker.
    proof_steps_checked: int = 0
    #: Wall time spent proof-checking / witness-auditing.
    check_seconds: float = 0.0
    audit_seconds: float = 0.0
    #: Path of the on-disk proof spool, when one was requested.
    proof_artifact: str | None = None
    #: False when the spool could not durably record the proof (damage
    #: beyond its one-shot repair): the certificate must not claim
    #: "verified" next to a corrupt artifact.
    proof_artifact_ok: bool = True
    proof_artifact_error: str | None = None
    #: Tail repairs the spool performed (torn/corrupt appends healed).
    proof_repairs: int = 0

    def add(self, cert: ProbeCertificate) -> None:
        self.probes.append(cert)
        if cert.kind == "sat":
            self.audit_seconds += cert.seconds
        elif cert.kind == "unsat":
            self.check_seconds += cert.seconds
            self.proof_steps_checked += cert.proof_steps_checked

    @property
    def sat_probes(self) -> int:
        return sum(1 for p in self.probes if p.kind == "sat")

    @property
    def unsat_probes(self) -> int:
        return sum(1 for p in self.probes if p.kind == "unsat")

    @property
    def skipped_probes(self) -> int:
        return sum(1 for p in self.probes if p.kind == "skipped")

    @property
    def all_verified(self) -> bool:
        """True when every answered probe carries a verified
        certificate (skipped probes answered nothing, so they carry no
        claim to verify); False for an empty run."""
        answered = [p for p in self.probes if p.kind != "skipped"]
        artifact_ok = self.proof_artifact is None or self.proof_artifact_ok
        return bool(answered) and all(p.ok for p in answered) and artifact_ok

    @property
    def failures(self) -> list[ProbeCertificate]:
        return [p for p in self.probes if p.kind != "skipped" and not p.ok]

    def summary(self) -> str:
        """One-line human verdict for the CLI."""
        verdict = "all verified" if self.all_verified else "FAILED"
        extra = (
            f", {self.skipped_probes} skipped" if self.skipped_probes else ""
        )
        return (
            f"{verdict} ({self.unsat_probes} unsat proof-checked, "
            f"{self.sat_probes} sat audited{extra}; "
            f"{self.proof_lines} proof lines)"
        )

    def to_dict(self) -> dict:
        """JSON-ready block for ``--stats``."""
        out = {
            "probes": len(self.probes),
            "sat_probes": self.sat_probes,
            "unsat_probes": self.unsat_probes,
            "skipped_probes": self.skipped_probes,
            "verified": self.all_verified,
            "proof_lines": self.proof_lines,
            "proof_steps_checked": self.proof_steps_checked,
            "check_seconds": round(self.check_seconds, 6),
            "audit_seconds": round(self.audit_seconds, 6),
            "probe_verdicts": [p.to_dict() for p in self.probes],
        }
        if self.proof_artifact is not None:
            out["proof_artifact"] = self.proof_artifact
            out["proof_artifact_ok"] = self.proof_artifact_ok
            out["proof_repairs"] = self.proof_repairs
            if self.proof_artifact_error:
                out["proof_artifact_error"] = self.proof_artifact_error
        return out
