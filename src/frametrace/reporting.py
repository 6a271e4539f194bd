"""Check records and deterministic JSON run reports."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

VERSION = "0.1.0"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification: a named residual against a tolerance."""

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def renamed(self, name: str) -> "CheckResult":
        return CheckResult(name=name, residual=self.residual, tol=self.tol)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": self.passed,
        }


@dataclass
class RunReport:
    """Aggregated result of a batch verification run."""

    version: str = VERSION
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    checks: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "version": self.version,
            "inputs": {k: self.inputs[k] for k in sorted(self.inputs)},
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
            "overall_pass": self.overall_pass,
        }
        if self.metadata:
            out["metadata"] = {k: self.metadata[k] for k in sorted(self.metadata)}
        return out


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_text(text: str) -> str:
    return digest_bytes(text.encode("utf-8"))


def report_dumps(report: RunReport) -> str:
    return json.dumps(report.to_json(), indent=2, separators=(",", ": "), allow_nan=False) + "\n"
