"""Check records and verification reports.

A report is a named list of checks, each with a residual and a tolerance.
The serialized body (everything except wall-clock timing) is canonical JSON,
so two runs with the same configuration and seed produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


def worst(values) -> float:
    """The largest value, at least 0; NaN if any value is NaN.

    Python's max(0.0, nan) is 0.0, so residual folds go through here.
    """
    return float(np.max(np.asarray(values, dtype=float), initial=0.0))


def passes(residual: float, tol: float) -> bool:
    """The pass rule of every check: a finite residual at most tol."""
    return math.isfinite(residual) and residual <= tol


@dataclass
class CheckRecord:
    id: str
    anchor: str
    residual: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "residual": self.residual,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)
    env: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def add(self, check_id: str, anchor: str, residual: float, tol: float) -> CheckRecord:
        """Record a check; it passes when its residual is finite and at most tol."""
        residual, tol = float(residual), float(tol)
        rec = CheckRecord(check_id, anchor, residual, tol, passes(residual, tol))
        self.checks.append(rec)
        return rec

    def add_curve(self, name: str, header: list[str], rows) -> None:
        self.curves[name] = {"header": list(header), "rows": [list(map(float, r)) for r in rows]}

    @property
    def status(self) -> str:
        return "pass" if all(c.passed for c in self.checks) else "fail"

    @property
    def all_passed(self) -> bool:
        return self.status == "pass"

    def body_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
            "env": self.env,
        }
        if self.curves:
            out["curves"] = self.curves
        return out

    def body_bytes(self) -> bytes:
        """Canonical serialization of everything except timing."""
        return json.dumps(self.body_dict(), sort_keys=True, separators=(",", ":")).encode()

    def to_dict(self) -> dict:
        out = self.body_dict()
        out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def report_body_bytes(document: dict) -> bytes:
    """Canonical bytes of an already-parsed report, timing stripped."""
    body = {k: v for k, v in document.items() if k != "elapsed_ms"}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
