"""Certificates and the check tables they flatten into.

Every construction certifies itself with a Certificate: named residuals,
each held to a threshold from the Tolerance, plus the certificates of its
parts under their own names.  A report is the flattened form, a named list
of checks, each an axiom name with an anchor slug, a measured residual, and
the threshold it was held to.  The verdict is pass exactly when every
residual meets its threshold.  Infinite or undefined residuals (a lift that
does not exist, a dimension mismatch) serialize as null and always count as
failures, keeping the JSON strictly standard.
"""
from __future__ import annotations

import json
import math

# stable identifiers for what each named residual certifies; unknown names
# fall back to themselves
ANCHORS = {
    "pentagon": "pentagon-identity",
    "unitary": "unitarity",
    "descends_to_quotients": "quotient-descent",
    "actions_commute": "commuting-actions",
    "coassociative": "coassociativity",
    "hom_unital": "unit-preservation",
    "hom_star": "star-preservation",
    "hom_multiplicative": "multiplicativity",
    "hom_lands_in_target": "target-membership",
    "verdicts_agree": "flavor-agreement",
    "transport": "flavor-transport",
    "gram_match": "gram-agreement",
    "dimension_defect": "dimension-match",
    "cyclic_defect": "cyclicity",
}


class Certificate:
    """Residuals of one construction, with the certificates of its parts.

    The residual named "pentagon" is held to the Tolerance's `pentagon`
    threshold, every other one to `check`.  ok covers the certificate's own
    residuals only: a child answers for itself, so a parent can certify that
    two failing children agree.
    """

    def __init__(self, residuals: dict, tol, children: dict | None = None):
        self.residuals = dict(residuals)
        self.thresholds = {
            name: tol.pentagon if name == "pentagon" else tol.check
            for name in self.residuals
        }
        self.children = dict(children or {})

    @property
    def ok(self) -> bool:
        return all(
            value <= self.thresholds[name]
            for name, value in self.residuals.items()
        )


class Check:
    def __init__(self, name: str, residual: float | None, threshold: float,
                 anchor: str | None = None):
        if residual is not None:
            residual = float(residual)
            if not math.isfinite(residual):
                residual = None
        self.name = name
        self.residual = residual
        self.threshold = float(threshold)
        self.anchor = anchor or ANCHORS.get(name, name)

    @property
    def passed(self) -> bool:
        return self.residual is not None and self.residual <= self.threshold

    def to_dict(self) -> dict:
        return {
            "axiom": self.name,
            "anchor": self.anchor,
            "residual": self.residual,
            "threshold": self.threshold,
        }


class Report:
    """Outcome of one command: verdict, check table, tolerance, timing.

    Timing is informational and kept out of the serialized form so reruns
    with identical inputs produce identical documents.
    """

    def __init__(self, command: str, checks: list, tolerance: float,
                 error: str | None = None, timing_ms: float | None = None):
        self.command = command
        self.checks = list(checks)
        self.tolerance = float(tolerance)
        self.error = error
        self.timing_ms = timing_ms

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "error"
        return "pass" if all(c.passed for c in self.checks) else "fail"

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "error": 2}[self.verdict]

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          allow_nan=False) + "\n"

    def render_text(self) -> str:
        lines = [f"{self.command}: {self.verdict.upper()}"]
        if self.error is not None:
            lines.append(f"  error: {self.error}")
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            shown = "n/a" if c.residual is None else f"{c.residual:.3e}"
            lines.append(
                f"  [{mark}] {c.name.ljust(width)}  residual {shown}"
                f"  threshold {c.threshold:.3e}  ({c.anchor})"
            )
        lines.append(f"  tolerance {self.tolerance:.3e}")
        if self.timing_ms is not None:
            lines.append(f"  elapsed {self.timing_ms:.1f} ms")
        return "\n".join(lines) + "\n"


def checks_from_residuals(cert: Certificate, prefix: str = "") -> list:
    """One Check per residual of the certificate, in name order and held to
    its own threshold, then its children's, each child's name joining the
    prefix.  Anchors follow the leaf name.
    """
    out = [
        Check(prefix + name, cert.residuals[name], cert.thresholds[name],
              anchor=ANCHORS.get(name, name))
        for name in sorted(cert.residuals)
    ]
    for name, child in cert.children.items():
        out += checks_from_residuals(child, prefix=f"{prefix}{name}_")
    return out
