"""Tests for repro.observe — tracing, metrics, events, sinks and report.

Covers the span/session lifecycle (nesting, attrs, error status, the
zero-cost disabled path), the metrics registry and its null singletons,
both sinks, cross-process trace context (pickling, attach re-parenting,
fork-inherited-session guard), the JSONL trace loader/report CLI, and
the contract that enabling observability does not perturb guardband
numerics.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import observe
from repro.core.guardband import thermal_aware_guardband
from repro.observe import report as report_module
from repro.observe.__main__ import main as observe_main
from repro.observe.context import TraceContext
from repro.observe.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricsRegistry,
)
from repro.observe.runtime import _active
from repro.observe.sinks import InMemorySink, JsonlSink
from repro.observe.spans import NULL_SPAN


class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        assert not observe.is_enabled()
        assert observe.span("anything", k=1) is NULL_SPAN
        with observe.span("x") as s:
            s.set_attrs(ignored=True)
        assert s.duration_s is None and s.span_id is None

    def test_span_measures_and_emits_at_exit(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            with observe.span("work", answer=42) as s:
                assert sink.spans() == []  # nothing emitted until exit
            assert s.duration_s is not None and s.duration_s >= 0.0
        (record,) = sink.spans()
        assert record["name"] == "work"
        assert record["status"] == "ok"
        assert record["parent_id"] is None
        assert record["attrs"] == {"answer": 42}
        assert isinstance(record["pid"], int)

    def test_nesting_links_parent_ids(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            with observe.span("outer") as outer:
                with observe.span("inner") as inner:
                    pass
        # Exit order: children are written before their parents.
        names = [r["name"] for r in sink.spans()]
        assert names == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.trace_id == outer.trace_id

    def test_exception_marks_error_status(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            with pytest.raises(ValueError):
                with observe.span("doomed"):
                    raise ValueError("boom")
        (record,) = sink.spans()
        assert record["status"] == "error"
        assert record["attrs"]["error_type"] == "ValueError"

    def test_set_attrs_after_enter(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            with observe.span("s", a=1) as s:
                s.set_attrs(b=2.5)
        assert sink.spans()[0]["attrs"] == {"a": 1, "b": 2.5}


class TestEnabled:
    def test_nesting_refcounts_one_session(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            session = _active()
            with observe.enabled():  # args ignored, same session
                assert _active() is session
                observe.counter("n").inc()
            assert observe.is_enabled()
        assert not observe.is_enabled()
        assert [r["name"] for r in sink.metrics()] == ["n"]

    def test_both_sink_args_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            with observe.enabled(
                sink=InMemorySink(), jsonl_path=str(tmp_path / "t.jsonl")
            ):
                pass

    def test_timing_only_session_has_no_records_but_measures(self):
        with observe.enabled():
            with observe.span("timed") as s:
                pass
            assert s.duration_s is not None
        assert observe.phase_seconds(x=s) == {"x": s.duration_s}

    def test_owned_jsonl_sink_closed_on_exit(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with observe.enabled(jsonl_path=str(path)):
            with observe.span("a"):
                pass
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "a"


class TestMetrics:
    def test_disabled_accessors_share_null_singletons(self):
        assert observe.counter("c") is NULL_COUNTER
        assert observe.gauge("g") is NULL_GAUGE
        assert observe.histogram("h") is NULL_HISTOGRAM
        NULL_COUNTER.inc(5)
        NULL_GAUGE.set(1.0)
        NULL_HISTOGRAM.observe(2.0)
        assert NULL_COUNTER.value == 0.0
        assert NULL_GAUGE.value is None
        assert NULL_HISTOGRAM.count == 0

    def test_live_instruments_accumulate(self):
        with observe.enabled(sink=InMemorySink()):
            observe.counter("hits").inc()
            observe.counter("hits").inc(2.0)
            observe.gauge("depth").set(3)
            observe.histogram("iters").observe(4.0)
            observe.histogram("iters").observe(6.0)
            assert observe.counter("hits").value == 3.0
            assert observe.gauge("depth").value == 3.0
            assert observe.histogram("iters").mean == 5.0

    def test_registry_records_only_written_instruments(self):
        registry = MetricsRegistry()
        registry.counter("touched").inc()
        registry.counter("untouched")
        registry.gauge("unset")
        registry.histogram("empty")
        registry.histogram("seen").observe(1.0)
        names = {r["name"] for r in registry.records()}
        assert names == {"touched", "seen"}

    def test_session_flushes_metrics_with_trace_id(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            observe.counter("solves").inc(7)
        (record,) = sink.metrics()
        assert record["kind"] == "counter"
        assert record["value"] == 7.0
        assert record["trace_id"]
        # Caller-provided sinks are not closed by the session.
        assert not sink.closed


class TestEventsAndManualSpans:
    def test_event_records_under_current_span(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            with observe.span("parent") as parent:
                observe.event("checkpoint", step=3)
        (record,) = sink.events()
        assert record["name"] == "checkpoint"
        assert record["span_id"] == parent.span_id
        assert record["attrs"] == {"step": 3}

    def test_emit_span_backdates_start(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            observe.emit_span("lifecycle", duration_s=1.5, status="error", job_id="j1")
        (record,) = sink.spans()
        assert record["duration_s"] == 1.5
        assert record["status"] == "error"
        assert record["attrs"]["job_id"] == "j1"

    def test_disabled_event_and_emit_span_are_noops(self):
        observe.event("nothing")
        observe.emit_span("nothing", duration_s=1.0)


class TestPhaseSeconds:
    def test_none_when_any_span_unmeasured(self):
        assert observe.phase_seconds(a=NULL_SPAN) is None

    def test_collects_finished_durations(self):
        with observe.enabled():
            with observe.span("a") as a, observe.span("b") as b:
                pass
        phases = observe.phase_seconds(sta=a, power=b)
        assert set(phases) == {"sta", "power"}
        assert all(v >= 0.0 for v in phases.values())

    def test_total_phase_seconds_skips_disabled_iterations(self):
        totals = observe.total_phase_seconds(
            [{"sta": 1.0}, None, {"sta": 0.5, "power": 2.0}]
        )
        assert totals == {"sta": 1.5, "power": 2.0}


class TestPropagation:
    def test_context_is_picklable(self):
        ctx = TraceContext("t1", "s1", "/tmp/x.jsonl")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_propagation_context_disabled_is_none(self):
        assert observe.propagation_context() is None

    def test_propagation_context_carries_current_span(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with observe.enabled(jsonl_path=path):
            with observe.span("root") as root:
                ctx = observe.propagation_context()
        assert ctx.span_id == root.span_id
        assert ctx.trace_id == root.trace_id
        assert ctx.jsonl_path == path

    def test_attach_none_is_noop(self):
        with observe.attach(None):
            assert not observe.is_enabled()

    def test_attach_reparents_and_appends(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type":"span","trace_id":"t9","span_id":"anchor",'
                        '"parent_id":null,"name":"root","t_start":0.0,'
                        '"duration_s":1.0,"status":"ok","pid":1,"attrs":{}}\n')
        ctx = TraceContext("t9", "anchor", str(path))
        with observe.attach(ctx):
            with observe.span("worker-side"):
                observe.counter("delta").inc()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 3  # pre-existing root + span + metric flush
        worker = next(r for r in records if r["name"] == "worker-side")
        assert worker["trace_id"] == "t9"
        assert worker["parent_id"] == "anchor"
        metric = next(r for r in records if r["type"] == "metric")
        assert metric["trace_id"] == "t9"

    def test_attach_inside_active_session_is_noop(self):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            session = _active()
            with observe.attach(TraceContext("other", None, None)):
                assert _active() is session

    def test_fork_inherited_session_is_invisible(self):
        # Simulate a forked worker: a session object whose pid is not ours.
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            session = _active()
            session.pid = session.pid + 1  # pretend we are the child
            try:
                assert not observe.is_enabled()
                assert observe.span("x") is NULL_SPAN
                assert observe.propagation_context() is None
            finally:
                session.pid = session.pid - 1


class TestSinks:
    def test_in_memory_typed_accessors(self):
        sink = InMemorySink()
        sink.write({"type": "span", "name": "a"})
        sink.write({"type": "event", "name": "b"})
        sink.write({"type": "metric", "name": "c"})
        assert [r["name"] for r in sink.spans()] == ["a"]
        assert [r["name"] for r in sink.events()] == ["b"]
        assert [r["name"] for r in sink.metrics()] == ["c"]

    def test_jsonl_truncates_by_default_appends_on_request(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        first = JsonlSink(path)
        first.write({"n": 1})
        first.close()
        appender = JsonlSink(path, append=True)
        appender.write({"n": 2})
        appender.close()
        assert [json.loads(line)["n"] for line in open(path)] == [1, 2]
        fresh = JsonlSink(path)
        fresh.write({"n": 3})
        fresh.close()
        assert [json.loads(line)["n"] for line in open(path)] == [3]


class TestGuardbandNumerics:
    def test_bit_identical_enabled_vs_disabled(self, tiny_flow, fabric25):
        baseline = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        with observe.enabled(sink=InMemorySink()):
            traced = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        assert traced.frequency_hz == baseline.frequency_hz
        assert traced.critical_path_s == baseline.critical_path_s
        assert traced.iterations == baseline.iterations
        assert (
            traced.tile_temperatures == baseline.tile_temperatures
        ).all()

    def test_guardband_trace_shape(self, tiny_flow, fabric25):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            result = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        spans = sink.spans()
        iteration_spans = [s for s in spans if s["name"] == "guardband.iteration"]
        assert len(iteration_spans) == result.iterations
        first = iteration_spans[0]["attrs"]
        assert first["n_cells"] == first["n_active"] == 1
        assert first["max_delta_celsius"] > 0.0
        (final,) = [s for s in spans if s["name"] == "guardband.final_sta"]
        assert final["attrs"]["n_cells"] == 1
        run = next(s for s in spans if s["name"] == "guardband.run")
        assert run["attrs"]["n_cells"] == 1
        assert run["attrs"]["n_converged"] == 1
        assert run["attrs"]["iterations"] == result.iterations
        (histogram,) = [
            r for r in sink.metrics() if r["name"] == "guardband.iterations"
        ]
        assert histogram["count"] == 1


def _write_trace(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(
                (record if isinstance(record, str) else json.dumps(record))
                + "\n"
            )


def _span(trace_id, span_id, parent_id, name, t_start=0.0, **attrs):
    return {
        "type": "span", "trace_id": trace_id, "span_id": span_id,
        "parent_id": parent_id, "name": name, "t_start": t_start,
        "duration_s": 0.5, "status": "ok", "pid": 1, "attrs": attrs,
    }


class TestReport:
    def test_tree_orphans_and_malformed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(
            path,
            [
                _span("t1", "child", "root", "inner", t_start=2.0),
                _span("t1", "child0", "root", "early", t_start=1.0),
                _span("t1", "lost", "never-closed", "orphan"),
                _span("t1", "root", None, "sweep.run"),
                '{"definitely not json',
                {"type": "event", "trace_id": "t1", "span_id": "root",
                 "name": "job.terminal", "t": 1.0, "pid": 1, "attrs": {}},
                _span("t2", "other", None, "second-trace"),
            ],
        )
        trace_file = report_module.load_traces(str(path))
        assert trace_file.malformed_lines == 1
        assert [t.trace_id for t in trace_file.traces] == ["t1", "t2"]
        t1 = trace_file.traces[0]
        assert [r.name for r in t1.roots] == ["sweep.run"]
        # children sorted by start time
        assert [c.name for c in t1.roots[0].children] == ["early", "inner"]
        assert [o.name for o in t1.orphans] == ["orphan"]
        assert report_module.event_summary(t1) == {"job.terminal": 1}

    def test_cell_and_metric_summaries(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(
            path,
            [
                _span("t1", "r", None, "sweep.run"),
                _span("t1", "c1", "r", "sweep.cell",
                      job_id="j1", attempts=2, cache_hits=1),
                {"type": "metric", "kind": "counter", "name": "thermal.solves",
                 "value": 3.0, "trace_id": "t1", "pid": 1},
                {"type": "metric", "kind": "counter", "name": "thermal.solves",
                 "value": 4.0, "trace_id": "t1", "pid": 2},
                {"type": "metric", "kind": "histogram", "name": "iters",
                 "count": 2, "sum": 10.0, "min": 4.0, "max": 6.0,
                 "trace_id": "t1", "pid": 1},
            ],
        )
        trace = report_module.load_traces(str(path)).traces[0]
        (cell,) = report_module.cell_summary(trace)
        assert cell["job_id"] == "j1"
        assert cell["attempts"] == 2
        assert cell["cache_hits"] == 1
        metrics = report_module.metric_summary(trace)
        assert metrics["counters"]["thermal.solves"] == 7.0
        assert metrics["histograms"]["iters"]["count"] == 2.0

    def test_phase_summary_aggregates_by_name(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(
            path,
            [
                _span("t1", "a", None, "phase.sta"),
                _span("t1", "b", None, "phase.sta"),
            ],
        )
        trace = report_module.load_traces(str(path)).traces[0]
        ((name, count, total, mean, lo, hi),) = report_module.phase_summary(trace)
        assert name == "phase.sta" and count == 2
        assert total == pytest.approx(1.0)
        assert mean == lo == hi == pytest.approx(0.5)

    def test_render_report_smoke(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(
            path,
            [
                _span("t1", "r", None, "sweep.run", workers=2),
                _span("t1", "j", "r", "sweep.job", job_id="j1"),
            ],
        )
        text = report_module.render_report(report_module.load_traces(str(path)))
        assert "sweep.run" in text
        assert "  sweep.job" in text  # indented child
        assert "per-phase summary" in text

    def test_max_depth_prunes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_trace(
            path,
            [
                _span("t1", "r", None, "sweep.run"),
                _span("t1", "j", "r", "sweep.job"),
            ],
        )
        text = report_module.render_report(
            report_module.load_traces(str(path)), max_depth=1
        )
        # The tree line is replaced by a pruning marker; the phase table
        # below it still aggregates every span.
        tree = text.split("per-phase summary")[0]
        assert "sweep.job" not in tree
        assert "child span(s) pruned" in tree


class TestObserveCli:
    def _real_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with observe.enabled(jsonl_path=path):
            with observe.span("root"):
                observe.event("tick")
        return path

    def test_report_text(self, tmp_path, capsys):
        path = self._real_trace(tmp_path)
        assert observe_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "root" in out and "events" in out

    def test_report_json(self, tmp_path, capsys):
        path = self._real_trace(tmp_path)
        assert observe_main(["report", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traces"][0]["tree"][0]["name"] == "root"
        assert payload["malformed_lines"] == 0

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert observe_main(["report", str(tmp_path / "absent.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_trace_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert observe_main(["report", str(path)]) == 1
        assert "no trace records" in capsys.readouterr().err
