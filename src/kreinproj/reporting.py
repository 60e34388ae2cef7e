"""Check results and reports.

A check records either a Frobenius residual (residual mode, margin held at
zero) or a signed eigenvalue margin (margin mode, residual held at zero),
together with the tolerance it was judged against.  A report is an ordered
list of checks plus a description of the inputs and the tolerance
configuration; it passes when no check failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Optional

from .linalg import DEFAULT_TOL, Tolerances

__all__ = [
    "CheckResult",
    "Report",
    "residual_check",
    "margin_check",
    "skipped_check",
    "matrix_digest",
]

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One named check with its citation label, measurements and outcome.

    Invariant: ``status == "pass"`` iff ``residual <= tolerance`` and
    ``margin >= -tolerance``.
    """

    name: str
    paper_ref: str
    residual: float
    margin: float
    tolerance: float
    status: str
    note: str = ""


def residual_check(name, paper_ref, residual, tolerance, note="") -> CheckResult:
    residual = float(residual)
    status = PASS if residual <= tolerance else FAIL
    return CheckResult(name, paper_ref, residual, 0.0, float(tolerance), status, note)


def margin_check(name, paper_ref, margin, tolerance, note="") -> CheckResult:
    # +inf, min_eig of an empty matrix, is recorded as 0.0: the relation holds vacuously
    margin = float(margin) if margin != float("inf") else 0.0
    status = PASS if margin >= -tolerance else FAIL
    return CheckResult(name, paper_ref, 0.0, margin, float(tolerance), status, note)


def skipped_check(name, paper_ref, note) -> CheckResult:
    return CheckResult(name, paper_ref, 0.0, 0.0, 0.0, SKIPPED, note)


def _renamed(checks, old: str, new: str, ref=None) -> list:
    """``checks`` with each name's leading ``old`` made ``new``, and cited by ``ref`` if given."""
    return [CheckResult(new + c.name[len(old):], ref or c.paper_ref, c.residual, c.margin, c.tolerance, c.status,
                        c.note) for c in checks]


@dataclasses.dataclass
class Report:
    """Ordered collection of checks over one subject."""

    subject: dict
    checks: list
    config: Tolerances = DEFAULT_TOL
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, SKIPPED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def extend_prefixed(self, prefix: str, other: "Report"):
        """Absorb another report's checks under a name prefix."""
        self.checks += _renamed(other.checks, "", prefix)

    def failures(self) -> list:
        return [c for c in self.checks if c.status == FAIL]


def matrix_digest(m) -> str:
    """Content hash of a matrix, stable across runs for identical entries."""
    import numpy as np

    m = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
    h = hashlib.sha256()
    h.update(str(m.shape).encode())
    h.update(m.tobytes())
    return h.hexdigest()
