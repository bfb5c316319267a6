"""``python -m repro.analysis`` — run the domain linter.

Exit codes: 0 when no errors (warnings do not gate), 1 when errors
exist, 2 on usage errors.  ``--json`` emits the full machine-readable
report on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import (
    AnalysisReport,
    Project,
    default_manifest_path,
    default_scan_root,
    load_modules,
    run_analysis,
)
from repro.analysis.rules import all_rules, registry_rule_ids
from repro.analysis.rules.cache_key import CONTRACTS, current_manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based domain-invariant linter for the repro codebase",
    )
    parser.add_argument(
        "root",
        nargs="?",
        type=Path,
        default=None,
        help="directory (or single file) to scan; default: the installed "
        "repro package",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    parser.add_argument(
        "--manifest",
        type=Path,
        default=None,
        help="keying-contract manifest for the cache-key rule (default: "
        f"{default_manifest_path().name} next to the analysis package)",
    )
    parser.add_argument(
        "--update-manifest",
        action="store_true",
        help="record the current (version, field sets) state of every "
        "keying contract in the tree and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: every rule)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to skip (applied after --select)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule and exit"
    )
    return parser


def _parse_rule_ids(
    parser: argparse.ArgumentParser, option: str, raw: Optional[str]
) -> Optional[set]:
    """Split a comma-separated ``--select``/``--ignore`` value.

    Unknown rule ids are a usage error (exit 2) — a typo that silently
    selected nothing would read as a clean run.
    """
    if raw is None:
        return None
    ids = {part.strip() for part in raw.split(",") if part.strip()}
    if not ids:
        parser.error(f"{option} needs at least one rule id")
    unknown = ids - set(registry_rule_ids())
    if unknown:
        known = ", ".join(registry_rule_ids())
        parser.error(
            f"{option}: unknown rule id(s) {sorted(unknown)}; known: {known}"
        )
    return ids


def select_rules(
    parser: argparse.ArgumentParser,
    select: Optional[str],
    ignore: Optional[str],
) -> list:
    """The rule instances to run: ``--select`` narrowed by ``--ignore``."""
    selected = _parse_rule_ids(parser, "--select", select)
    ignored = _parse_rule_ids(parser, "--ignore", ignore)
    rules = all_rules()
    if selected is not None:
        rules = [r for r in rules if r.rule_id in selected]
    if ignored is not None:
        rules = [r for r in rules if r.rule_id not in ignored]
    if not rules:
        parser.error("--select/--ignore left no rules to run")
    return rules


def _print_report(report: AnalysisReport) -> None:
    for finding in report.findings:
        print(finding.format())
    if report.suppressed:
        print(f"{len(report.suppressed)} finding(s) inline-suppressed")
    print(
        f"{report.n_files} files scanned: {len(report.errors)} error(s), "
        f"{len(report.warnings)} warning(s)"
    )


def _update_manifest(root: Path, manifest_path: Path) -> int:
    """Record every keying contract found under ``root`` in one write."""
    modules, parse_errors = load_modules(root)
    if parse_errors:
        for finding in parse_errors:
            print(finding.format(), file=sys.stderr)
        return 1
    manifest = current_manifest(
        Project(root=root, modules=modules, manifest_path=manifest_path)
    )
    if not manifest.contracts:
        names = ", ".join(row.version for row in CONTRACTS)
        print(f"no keying contract ({names}) under {root}", file=sys.stderr)
        return 1
    manifest.save(manifest_path)
    for name, (version, classes) in manifest.contracts.items():
        print(
            f"recorded {name}={version} over {', '.join(classes)} -> "
            f"{manifest_path}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id} ({rule.severity}): {rule.description}")
        return 0

    root = args.root if args.root is not None else default_scan_root()
    if not root.exists():
        parser.error(f"scan root {root} does not exist")
    manifest_path = (
        args.manifest if args.manifest is not None else default_manifest_path()
    )

    if args.update_manifest:
        return _update_manifest(Path(root), manifest_path)

    report = run_analysis(
        root=Path(root),
        rules=select_rules(parser, args.select, args.ignore),
        manifest_path=manifest_path,
        # Suppressions naming a deselected rule stay valid, not "unknown".
        known_rule_ids=registry_rule_ids(),
    )

    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=False))
    else:
        _print_report(report)
    return 0 if report.ok else 1
