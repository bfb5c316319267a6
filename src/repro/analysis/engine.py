"""Rule engine: parse every module once, dispatch per-rule visitors.

The engine walks a scan root (normally ``src/repro``), parses each
``*.py`` into one shared :class:`ModuleInfo`, and hands it to every
registered rule.  Rules are :class:`Rule` subclasses with two hooks:

- :meth:`Rule.check_module` — per-module findings from that module's AST;
- :meth:`Rule.finalize` — cross-module findings once the whole project is
  parsed (e.g. the cache-key rule, which correlates ``ArchParams`` with
  ``arch_digest`` and ``FLOW_CACHE_VERSION`` across files).

Findings then pass through inline suppressions; every error that
survives gates (see :mod:`repro.analysis.cli`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.callgraph import CallGraph

from repro.analysis.findings import Finding, Severity, sort_key
from repro.analysis.suppress import (
    is_suppressed,
    suppressions_for,
    unknown_rule_references,
)

PARSE_ERROR_RULE = "parse-error"
SUPPRESS_ERROR_RULE = "unknown-suppression"

DEFAULT_MANIFEST_NAME = "manifest.json"

_ANALYSIS_DIR = Path(__file__).resolve().parent


def default_manifest_path() -> Path:
    return _ANALYSIS_DIR / DEFAULT_MANIFEST_NAME


def default_scan_root() -> Path:
    """The installed ``repro`` package itself."""
    return _ANALYSIS_DIR.parent


@dataclass
class ModuleInfo:
    """One parsed source module."""

    path: Path
    rel: str
    """POSIX path relative to the scan root (rules match on this)."""
    source: str
    tree: ast.Module

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        return Finding(
            rule_id=rule.rule_id,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            severity=severity if severity is not None else rule.severity,
            message=message,
        )


@dataclass
class Project:
    """Everything :meth:`Rule.finalize` may correlate across modules."""

    root: Path
    modules: List[ModuleInfo]
    manifest_path: Path
    _call_graph: Optional["CallGraph"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def call_graph(self) -> "CallGraph":
        """Project-wide call graph, built once and shared by every rule."""
        if self._call_graph is None:
            from repro.analysis.callgraph import build_call_graph

            self._call_graph = build_call_graph(self)
        return self._call_graph

    def module(self, rel: str) -> Optional[ModuleInfo]:
        for info in self.modules:
            if info.rel == rel:
                return info
        return None

    def find_class(self, name: str) -> Optional[Tuple[ModuleInfo, ast.ClassDef]]:
        """The first module defining a top-level class ``name``."""
        for info in self.modules:
            for node in info.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return info, node
        return None


class Rule:
    """Base class for one lint rule; subclasses set the class attributes."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        return ()


@dataclass
class AnalysisReport:
    """Outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    """Every unsuppressed finding, in source order."""
    suppressed: List[Finding] = field(default_factory=list)
    n_files: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error gates the run."""
        return not self.errors

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "n_files": self.n_files,
            "n_findings": len(self.findings),
            "n_errors": len(self.errors),
            "n_suppressed": len(self.suppressed),
            "findings": [f.to_dict() for f in self.findings],
        }


def _iter_sources(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    return sorted(
        p for p in root.rglob("*.py")
        if "__pycache__" not in p.parts
    )


def load_modules(root: Path) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Parse every module under ``root``; syntax errors become findings."""
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    base = root if root.is_dir() else root.parent
    for path in _iter_sources(root):
        rel = path.relative_to(base).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError) as error:
            line = getattr(error, "lineno", 1) or 1
            errors.append(
                Finding(
                    rule_id=PARSE_ERROR_RULE,
                    path=rel,
                    line=line,
                    col=1,
                    severity=Severity.ERROR,
                    message=f"could not parse module: {error}",
                )
            )
            continue
        modules.append(ModuleInfo(path=path, rel=rel, source=source, tree=tree))
    return modules, errors


def run_analysis(
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    manifest_path: Optional[Path] = None,
    known_rule_ids: Optional[Iterable[str]] = None,
) -> AnalysisReport:
    """Run every rule over the tree under ``root``.

    ``known_rule_ids`` extends the rule-id set considered valid in
    inline suppressions — pass the full registry when running a filtered
    subset so suppressions naming deselected rules don't read as typos.
    """
    if root is None:
        root = default_scan_root()
    root = Path(root)
    if rules is None:
        from repro.analysis.rules import all_rules

        rules = all_rules()
    if manifest_path is None:
        manifest_path = default_manifest_path()

    modules, raw = load_modules(root)
    raw = list(raw)
    known_ids = frozenset(
        [r.rule_id for r in rules]
        + [PARSE_ERROR_RULE, SUPPRESS_ERROR_RULE]
        + list(known_rule_ids or ())
    )

    for module in modules:
        for rule in rules:
            raw.extend(rule.check_module(module))

    project = Project(root=root, modules=modules, manifest_path=manifest_path)
    for rule in rules:
        raw.extend(rule.finalize(project))

    # Inline suppressions: drop findings whose anchor line opts out, and
    # flag marker comments that name rules which do not exist (typos
    # silently disabling nothing are worse than an error).
    suppression_tables = {
        module.rel: suppressions_for(module.source) for module in modules
    }
    for module in modules:
        for line, rule_id in unknown_rule_references(
            suppression_tables[module.rel], known_ids
        ):
            raw.append(
                Finding(
                    rule_id=SUPPRESS_ERROR_RULE,
                    path=module.rel,
                    line=line,
                    col=1,
                    severity=Severity.ERROR,
                    message=f"suppression names unknown rule {rule_id!r}",
                )
            )

    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        table = suppression_tables.get(finding.path)
        if table and is_suppressed(table, finding.line, finding.rule_id):
            suppressed.append(finding)
        else:
            kept.append(finding)
    kept.sort(key=sort_key)

    return AnalysisReport(
        findings=kept,
        suppressed=sorted(suppressed, key=sort_key),
        n_files=len(modules),
    )
