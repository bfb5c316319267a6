"""cache-key — keying digests vs. the field sets they must cover.

Three persistent artefacts key on dataclass field sets, and each must
move together with its version constant or stale entries are silently
served.  :data:`CONTRACTS` has one row per contract:

- the flow cache (``repro.cad.flow``): ``ArchParams`` under
  ``FLOW_CACHE_VERSION``, consumed by ``arch_digest``;
- the result store (``repro.store``): ``GuardbandConfig`` under
  ``STORE_SCHEMA_VERSION``, consumed by ``store_digest``;
- the wire schema (``repro.service.wire``): every ``_DECODERS`` kind
  under ``WIRE_SCHEMA_VERSION``; ``_encode_experiment`` lists
  ``ExperimentSpec`` attributes by hand.

For every row the rule checks that

1. the consumer reads every field of its class (a field the digest
   ignores means two different values share an entry; a field the
   encoder skips is silently dropped from the envelope);
2. a field-set change comes with a version bump (old entries were keyed
   under different semantics);
3. the committed manifest (:mod:`repro.analysis.manifest`) matches the
   live ``(version, field sets)`` state, so (2) is checkable across
   commits.

This is a cross-module rule: it runs in :meth:`finalize` over the parsed
project, locating the classes, consumers and version constants wherever
they are defined.  A project without a row's version constant or
classes (e.g. a rule fixture) has nothing to check for that row.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import ModuleInfo, Project, Rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.manifest import Contract, Manifest, dataclass_field_names


@dataclass(frozen=True)
class KeyingContract:
    """One row of :data:`CONTRACTS`."""

    version: str
    """Name of the module-level ``int`` constant that versions the row."""
    covers: Optional[str]
    """The dataclass the version covers; ``None`` reads the covered
    classes from the ``_DECODERS`` keys (the wire kinds)."""
    consumer: Tuple[str, str]
    """(function, class): the function must read every field of the class."""
    stale: str
    """What a field change without a version bump would serve."""
    dropped: str
    """What a field the consumer skips would do."""


CONTRACTS: Tuple[KeyingContract, ...] = (
    KeyingContract(
        version="FLOW_CACHE_VERSION",
        covers="ArchParams",
        consumer=("arch_digest", "ArchParams"),
        stale="stale cache entries would be served under the old key "
        "semantics",
        dropped="two architectures differing only in that field would "
        "share a flow-cache entry",
    ),
    KeyingContract(
        version="STORE_SCHEMA_VERSION",
        covers="GuardbandConfig",
        consumer=("store_digest", "GuardbandConfig"),
        stale="stored guardband results computed under the old config "
        "semantics would be served",
        dropped="two configs differing only in that field would share a "
        "stored guardband result",
    ),
    KeyingContract(
        version="WIRE_SCHEMA_VERSION",
        covers=None,
        consumer=("_encode_experiment", "ExperimentSpec"),
        stale="peers on the old schema would accept envelopes that decode "
        "to different semantics",
        dropped="the field is silently dropped from the wire envelope, so "
        "the receiver reconstructs a spec with the default value instead "
        "of the submitted one",
    ),
)


def _find_assignment(
    project: Project, name: str
) -> Optional[Tuple[ModuleInfo, ast.stmt, int]]:
    """Top-level ``name = <int>`` assignment anywhere in the project."""
    for info in project.modules:
        for stmt in info.tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id == name:
                    if isinstance(value, ast.Constant) and isinstance(
                        value.value, int
                    ):
                        return info, stmt, value.value
    return None


def _find_function(
    project: Project, name: str
) -> Optional[Tuple[ModuleInfo, ast.FunctionDef]]:
    for info in project.modules:
        for stmt in info.tree.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return info, stmt
    return None


def _wire_kind_names(project: Project) -> Tuple[Optional[ModuleInfo], List[str]]:
    """Wire kind names from the ``_DECODERS`` dict literal in wire.py.

    The decoder table's string keys *are* the envelope kinds (and each
    names a dataclass of the same name), so the rule never has to import
    the service package to know what the wire schema covers.
    """
    for info in project.modules:
        for stmt in info.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value: Optional[ast.expr] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            named = any(
                isinstance(t, ast.Name) and t.id == "_DECODERS" for t in targets
            )
            if not named or not isinstance(value, ast.Dict):
                continue
            kinds = [
                key.value
                for key in value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            ]
            if kinds:
                return info, sorted(kinds)
    return None, []


def _digest_consumption(func: ast.FunctionDef) -> Tuple[bool, Set[str]]:
    """(iterates dataclasses.fields(), explicitly-read field names).

    A digest built by iterating ``fields(arch)`` consumes every field by
    construction; one that reads ``arch.<name>`` attributes is checked
    field-by-field.
    """
    iterates_fields = False
    explicit: Set[str] = set()
    arg_names = {arg.arg for arg in func.args.args}
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            callee_name = (
                callee.id
                if isinstance(callee, ast.Name)
                else getattr(callee, "attr", "")
            )
            if callee_name == "fields" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name) and first.id in arg_names:
                    iterates_fields = True
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in arg_names:
                explicit.add(node.attr)
    return iterates_fields, explicit


def _covered(
    project: Project, row: KeyingContract
) -> Optional[Tuple[ModuleInfo, ast.AST, List[str]]]:
    """(module, anchor node, class names) the row covers, or ``None``."""
    if row.covers is None:
        wire_module, kinds = _wire_kind_names(project)
        if wire_module is None:
            return None
        return wire_module, wire_module.tree, kinds
    located = project.find_class(row.covers)
    if located is None:
        return None
    return located[0], located[1], [row.covers]


def _field_sets(
    project: Project, names: Iterable[str]
) -> Tuple[Dict[str, Tuple[str, ...]], List[str]]:
    """({class: sorted field names}, names that match no class)."""
    classes: Dict[str, Tuple[str, ...]] = {}
    orphans: List[str] = []
    for name in names:
        located = project.find_class(name)
        if located is None:
            orphans.append(name)
        else:
            classes[name] = tuple(sorted(dataclass_field_names(located[1].body)))
    return classes, orphans


def _drift(
    live: Dict[str, Tuple[str, ...]], recorded: Dict[str, Tuple[str, ...]]
) -> List[str]:
    """Per-class differences between the live and recorded field sets."""
    drift: List[str] = []
    for name in sorted(set(live) | set(recorded)):
        if name not in recorded:
            drift.append(f"{name}: new kind")
            continue
        if name not in live:
            drift.append(f"{name}: kind removed")
            continue
        added = sorted(set(live[name]) - set(recorded[name]))
        removed = sorted(set(recorded[name]) - set(live[name]))
        if added:
            drift.append(f"{name} added: {', '.join(added)}")
        if removed:
            drift.append(f"{name} removed: {', '.join(removed)}")
    return drift


class CacheKeyRule(Rule):
    rule_id = "cache-key"
    severity = Severity.ERROR
    description = (
        "keying consumers must read every field of the dataclass they "
        "cover (arch_digest/ArchParams, store_digest/GuardbandConfig, "
        "_encode_experiment/ExperimentSpec), and field-set changes must "
        "bump the paired version constant (FLOW_CACHE_VERSION / "
        "STORE_SCHEMA_VERSION / WIRE_SCHEMA_VERSION, recorded in the "
        "committed manifest)"
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        manifest = Manifest.load(project.manifest_path)
        recorded = manifest.contracts if manifest is not None else {}
        findings: List[Finding] = []
        for row in CONTRACTS:
            findings.extend(self._check_consumer(project, row))
            findings.extend(
                self._check_drift(project, row, recorded.get(row.version))
            )
        return findings

    def _check_consumer(
        self, project: Project, row: KeyingContract
    ) -> List[Finding]:
        func_name, cls_name = row.consumer
        located = project.find_class(cls_name)
        consumer = _find_function(project, func_name)
        if located is None or consumer is None:
            return []
        module, func = consumer
        iterates, explicit = _digest_consumption(func)
        if iterates:
            return []
        missing = set(dataclass_field_names(located[1].body)) - explicit
        return [
            module.finding(
                self,
                func,
                f"{func_name} does not consume {cls_name}.{name}; "
                f"{row.dropped}",
            )
            for name in sorted(missing)
        ]

    def _check_drift(
        self,
        project: Project,
        row: KeyingContract,
        recorded: Optional[Contract],
    ) -> List[Finding]:
        version = _find_assignment(project, row.version)
        covered = _covered(project, row)
        if version is None or covered is None:
            return []
        version_module, version_stmt, version_value = version
        module, anchor, names = covered
        live, orphans = _field_sets(project, names)
        findings = [
            module.finding(
                self,
                anchor,
                f"wire kind {name!r} names no class in the project; the "
                "decoder table and the dataclasses it targets have drifted "
                "apart",
            )
            for name in orphans
        ]

        if recorded is None:
            # The wire row has no class of its own to anchor on.
            at_module, at_node = (
                (module, anchor) if row.covers else (version_module, version_stmt)
            )
            findings.append(
                at_module.finding(
                    self,
                    at_node,
                    f"no {row.version} manifest entry recorded for "
                    f"{', '.join(names)}; run `python -m repro.analysis "
                    f"--update-manifest` and commit {project.manifest_path.name}",
                    severity=Severity.WARNING,
                )
            )
            return findings

        recorded_version, recorded_classes = recorded
        drift = _drift(live, recorded_classes)
        if drift:
            change = "; ".join(drift)
            if version_value == recorded_version:
                message = (
                    f"field set changed ({change}) without a {row.version} "
                    f"bump; {row.stale} — bump the version, then refresh "
                    "the manifest with --update-manifest"
                )
            else:
                message = (
                    f"field set changed ({change}) and {row.version} was "
                    "bumped; refresh the manifest with --update-manifest to "
                    "record the new reviewed state"
                )
            findings.append(module.finding(self, anchor, message))
        elif version_value != recorded_version:
            findings.append(
                version_module.finding(
                    self,
                    version_stmt,
                    f"{row.version} is {version_value} but the manifest "
                    f"records {recorded_version}; refresh the manifest with "
                    "--update-manifest",
                    severity=Severity.WARNING,
                )
            )
        return findings


def current_manifest(project: Project) -> Manifest:
    """The live state of every contract the project has."""
    contracts: Dict[str, Contract] = {}
    for row in CONTRACTS:
        version = _find_assignment(project, row.version)
        covered = _covered(project, row)
        if version is not None and covered is not None:
            classes, _ = _field_sets(project, covered[2])
            contracts[row.version] = (version[2], classes)
    return Manifest(contracts=contracts)
