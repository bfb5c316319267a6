"""Finding model shared by every lint rule.

A :class:`Finding` is one structured diagnostic — ``file:line:col
severity[rule-id] message`` — produced by a rule and filtered through inline
suppressions (:mod:`repro.analysis.suppress`) before it can fail a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict


class Severity(enum.Enum):
    """How a finding affects the exit code.

    ``ERROR`` findings fail the run; ``WARNING`` findings are reported
    but never gate.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic at a source location."""

    rule_id: str
    path: str
    """Scan-root-relative POSIX path of the offending module."""
    line: int
    col: int
    severity: Severity
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}[{self.rule_id}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": str(self.severity),
            "message": self.message,
        }


def sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule_id)
