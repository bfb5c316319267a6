"""Trace reconstruction and reporting — ``python -m repro.observe report``.

Reads the JSONL a :class:`~repro.observe.sinks.JsonlSink` wrote.  The file
is the merge of the engine session and any number of appending pool
workers, so record order is arbitrary: parents are routinely written
*after* their children (span records are emitted at exit, so the sweep
root is the last line), and a killed or timed-out worker's spans may be
missing entirely.  The loader therefore builds the tree from
``parent_id`` links over the full file, tolerates malformed trailing
lines (a writer killed mid-record), and parks spans whose parent never
closed as *orphans* rather than dropping them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.reporting.tables import format_table


@dataclass
class SpanNode:
    """One reconstructed span plus its children, sorted by start time."""

    record: Dict[str, object]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.record.get("name", "?"))

    @property
    def span_id(self) -> Optional[str]:
        value = self.record.get("span_id")
        return str(value) if value is not None else None

    @property
    def parent_id(self) -> Optional[str]:
        value = self.record.get("parent_id")
        return str(value) if value is not None else None

    @property
    def t_start(self) -> float:
        value = self.record.get("t_start")
        return float(value) if isinstance(value, (int, float)) else 0.0

    @property
    def duration_s(self) -> Optional[float]:
        value = self.record.get("duration_s")
        return float(value) if isinstance(value, (int, float)) else None

    @property
    def status(self) -> str:
        return str(self.record.get("status", "ok"))

    @property
    def attrs(self) -> Dict[str, object]:
        attrs = self.record.get("attrs")
        return attrs if isinstance(attrs, dict) else {}


@dataclass
class Trace:
    """Everything recorded under one trace id."""

    trace_id: str
    roots: List[SpanNode]
    orphans: List[SpanNode]
    """Spans whose parent id names a span with no record (the parent never
    finished — e.g. a worker killed mid-job)."""
    spans: List[SpanNode]
    events: List[Dict[str, object]]
    metrics: List[Dict[str, object]]

    @property
    def pids(self) -> List[int]:
        seen = {
            int(r["pid"])
            for node in self.spans
            for r in (node.record,)
            if isinstance(r.get("pid"), int)
        }
        return sorted(seen)


@dataclass
class TraceFile:
    """A parsed trace JSONL: traces in first-appearance order."""

    traces: List[Trace]
    malformed_lines: int


def load_traces(path: str) -> TraceFile:
    """Parse the JSONL at ``path`` and rebuild one tree per trace id."""
    grouped: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
    order: List[str] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if not isinstance(record, dict) or "trace_id" not in record:
                malformed += 1
                continue
            trace_id = str(record["trace_id"])
            if trace_id not in grouped:
                grouped[trace_id] = {"span": [], "event": [], "metric": []}
                order.append(trace_id)
            bucket = grouped[trace_id].get(str(record.get("type", "")))
            if bucket is None:
                malformed += 1
                continue
            bucket.append(record)
    traces = [_build_trace(tid, grouped[tid]) for tid in order]
    return TraceFile(traces=traces, malformed_lines=malformed)


def _build_trace(
    trace_id: str, records: Dict[str, List[Dict[str, object]]]
) -> Trace:
    nodes = [SpanNode(record) for record in records["span"]]
    by_id = {node.span_id: node for node in nodes if node.span_id}
    roots: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for node in nodes:
        parent = node.parent_id
        if parent is None:
            roots.append(node)
        elif parent in by_id:
            by_id[parent].children.append(node)
        else:
            orphans.append(node)
    for node in nodes:
        node.children.sort(key=lambda n: n.t_start)
    roots.sort(key=lambda n: n.t_start)
    orphans.sort(key=lambda n: n.t_start)
    events = sorted(
        records["event"],
        key=lambda r: float(r.get("t", 0.0)) if isinstance(r.get("t"), (int, float)) else 0.0,
    )
    return Trace(
        trace_id=trace_id,
        roots=roots,
        orphans=orphans,
        spans=nodes,
        events=events,
        metrics=records["metric"],
    )


# -- summaries ---------------------------------------------------------------


def phase_summary(trace: Trace) -> List[Tuple[str, int, float, float, float, float]]:
    """Per-span-name aggregate: (name, count, total_s, mean_s, min_s, max_s)."""
    grouped: Dict[str, List[float]] = {}
    for node in trace.spans:
        duration = node.duration_s
        if duration is None:
            continue
        grouped.setdefault(node.name, []).append(duration)
    out = []
    for name in sorted(grouped):
        durations = grouped[name]
        total = sum(durations)
        out.append(
            (name, len(durations), total, total / len(durations),
             min(durations), max(durations))
        )
    return out


def cell_summary(trace: Trace) -> List[Dict[str, object]]:
    """Per-grid-cell lifecycle rows, from the engine's ``sweep.cell`` spans."""
    rows = []
    for node in sorted(
        (n for n in trace.spans if n.name == "sweep.cell"),
        key=lambda n: n.t_start,
    ):
        attrs = node.attrs
        rows.append(
            {
                "job_id": attrs.get("job_id", "?"),
                "status": node.status if "status" not in attrs else attrs["status"],
                "attempts": attrs.get("attempts", 1),
                "wall_s": node.duration_s,
                "cache_hits": attrs.get("cache_hits", 0),
            }
        )
    return rows


def metric_summary(trace: Trace) -> Dict[str, Dict[str, object]]:
    """Merge per-process metric records: counters summed, histograms
    union-merged, gauges last-write-wins."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    for record in trace.metrics:
        kind = record.get("kind")
        name = str(record.get("name", "?"))
        if kind == "counter":
            counters[name] = counters.get(name, 0.0) + float(record.get("value", 0.0))  # type: ignore[arg-type]
        elif kind == "gauge":
            gauges[name] = float(record.get("value", 0.0))  # type: ignore[arg-type]
        elif kind == "histogram":
            merged = histograms.setdefault(
                name, {"count": 0.0, "sum": 0.0, "min": float("inf"),
                       "max": float("-inf")}
            )
            merged["count"] += float(record.get("count", 0.0))  # type: ignore[arg-type]
            merged["sum"] += float(record.get("sum", 0.0))  # type: ignore[arg-type]
            merged["min"] = min(merged["min"], float(record.get("min", merged["min"])))  # type: ignore[arg-type]
            merged["max"] = max(merged["max"], float(record.get("max", merged["max"])))  # type: ignore[arg-type]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def event_summary(trace: Trace) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in trace.events:
        name = str(record.get("name", "?"))
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


# -- rendering ---------------------------------------------------------------


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_attrs(attrs: Dict[str, object], limit: int = 6) -> str:
    parts = []
    for key, value in list(attrs.items())[:limit]:
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value}")
    if len(attrs) > limit:
        parts.append("...")
    return " ".join(parts)


def _render_node(
    node: SpanNode, depth: int, max_depth: Optional[int], lines: List[str]
) -> None:
    if max_depth is not None and depth > max_depth:
        return
    status = "" if node.status == "ok" else f" [{node.status}]"
    attrs = _fmt_attrs(node.attrs)
    lines.append(
        f"{'  ' * depth}{node.name}  {_fmt_duration(node.duration_s)}"
        f"{status}{('  ' + attrs) if attrs else ''}"
    )
    pruned = 0
    for child in node.children:
        if max_depth is not None and depth + 1 > max_depth:
            pruned += 1
            continue
        _render_node(child, depth + 1, max_depth, lines)
    if pruned:
        lines.append(f"{'  ' * (depth + 1)}... {pruned} child span(s) pruned")


def render_report(
    trace_file: TraceFile, max_depth: Optional[int] = None
) -> str:
    """Human-readable multi-trace report."""
    blocks: List[str] = []
    for trace in trace_file.traces:
        lines = [
            f"trace {trace.trace_id} — {len(trace.spans)} spans, "
            f"{len(trace.events)} events, {len(trace.metrics)} metric "
            f"records, pids {trace.pids}"
        ]
        for root in trace.roots:
            _render_node(root, 1, max_depth, lines)
        if trace.orphans:
            lines.append(
                f"  ({len(trace.orphans)} orphaned span(s) — parent never "
                "finished, e.g. a killed worker:)"
            )
            for orphan in trace.orphans:
                _render_node(orphan, 2, max_depth, lines)
        blocks.append("\n".join(lines))

        phases = phase_summary(trace)
        if phases:
            blocks.append(
                format_table(
                    ["span", "count", "total s", "mean ms", "min ms", "max ms"],
                    [
                        (name, count, f"{total:.4f}", f"{mean * 1e3:.3f}",
                         f"{lo * 1e3:.3f}", f"{hi * 1e3:.3f}")
                        for name, count, total, mean, lo, hi in phases
                    ],
                    title="per-phase summary",
                )
            )
        cells = cell_summary(trace)
        if cells:
            blocks.append(
                format_table(
                    ["job", "status", "attempts", "wall", "cache hits"],
                    [
                        (row["job_id"], row["status"], row["attempts"],
                         _fmt_duration(row["wall_s"] if isinstance(row["wall_s"], float) else None),
                         row["cache_hits"])
                        for row in cells
                    ],
                    title="per-cell summary",
                )
            )
        metrics = metric_summary(trace)
        metric_rows: List[Tuple[str, str, str]] = []
        for name, value in metrics["counters"].items():
            metric_rows.append(("counter", name, f"{value:g}"))
        for name, value in metrics["gauges"].items():
            metric_rows.append(("gauge", name, f"{value:g}"))
        for name, merged in metrics["histograms"].items():
            mean = merged["sum"] / merged["count"] if merged["count"] else 0.0
            metric_rows.append(
                ("histogram", name,
                 f"n={merged['count']:g} mean={mean:g} "
                 f"min={merged['min']:g} max={merged['max']:g}")
            )
        if metric_rows:
            blocks.append(
                format_table(["kind", "name", "value"], metric_rows,
                             title="metrics")
            )
        events = event_summary(trace)
        if events:
            blocks.append(
                format_table(
                    ["event", "count"], sorted(events.items()), title="events"
                )
            )
    if trace_file.malformed_lines:
        blocks.append(
            f"({trace_file.malformed_lines} malformed line(s) skipped)"
        )
    return "\n\n".join(blocks)


def _node_dict(node: SpanNode) -> Dict[str, object]:
    return {
        "name": node.name,
        "span_id": node.span_id,
        "t_start": node.t_start,
        "duration_s": node.duration_s,
        "status": node.status,
        "attrs": node.attrs,
        "children": [_node_dict(child) for child in node.children],
    }


def report_dict(trace_file: TraceFile) -> Dict[str, object]:
    """Machine-readable form of the full report (the ``--json`` payload)."""
    traces = []
    for trace in trace_file.traces:
        traces.append(
            {
                "trace_id": trace.trace_id,
                "n_spans": len(trace.spans),
                "n_events": len(trace.events),
                "n_orphans": len(trace.orphans),
                "pids": trace.pids,
                "tree": [_node_dict(root) for root in trace.roots],
                "orphans": [_node_dict(node) for node in trace.orphans],
                "phases": [
                    {"name": name, "count": count, "total_s": total,
                     "mean_s": mean, "min_s": lo, "max_s": hi}
                    for name, count, total, mean, lo, hi in phase_summary(trace)
                ],
                "cells": cell_summary(trace),
                "metrics": metric_summary(trace),
                "events": event_summary(trace),
            }
        )
    return {
        "traces": traces,
        "malformed_lines": trace_file.malformed_lines,
    }
