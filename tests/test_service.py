"""Tests for repro.service — scheduler dedup, event streams, client, HTTP.

The contracts under test, straight from the service's design:

- a repeated identical submission is served entirely from the store:
  every cell yields a ``store.hit`` and zero ``sweep.cell`` execution
  spans the second time;
- two clients submitting overlapping grids concurrently compute each
  overlapping cell exactly once (in-flight dedup);
- a dead worker fails the job (bounded, observable) — it never hangs;
- malformed submissions are 4xx wire diagnostics, not tracebacks.
"""

import asyncio
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest

from repro import observe
from repro.cad.flow import flow_cache_key_for
from repro.cad.route import RoutingError
from repro.core.guardband import GuardbandConfig
from repro.netlists.generator import NetlistSpec
from repro.observe.clock import monotonic
from repro.observe.sinks import FanoutSink, InMemorySink
from repro.runner import engine as engine_module
from repro.runner.results import JobResult
from repro.runner.spec import ExperimentSpec
from repro.service import (
    ServiceError,
    SweepClient,
    SweepScheduler,
    to_wire,
)
from repro.service.events import EventBroker, ObserveBridge
from repro.service.scheduler import FLOW_KEY_MEMO_SIZE
from repro.service.http import SweepServer
from repro.memo import MEMOS
from repro.store import open_store, store_digest

TINY_A = NetlistSpec("service_tiny_a", n_luts=10, depth=3, seed=71,
                     base_activity=0.2)
TINY_B = NetlistSpec("service_tiny_b", n_luts=12, depth=3, seed=72,
                     base_activity=0.18)


@pytest.fixture(autouse=True)
def asyncio_debug(monkeypatch):
    """Every event loop these tests create runs in asyncio debug mode.

    A loop reads ``PYTHONASYNCIODEBUG`` when it is created.  In debug
    mode ``call_soon``, ``call_later`` and ``create_task`` raise when
    called from a thread other than the loop's, so a cross-thread
    hand-off that skips ``call_soon_threadsafe`` fails a test instead of
    only slowing it down.
    """
    monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """Module-shared flow cache: every test reuses TINY_A/TINY_B P&R."""
    path = tmp_path_factory.mktemp("flowcache")
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_CACHE_DIR", str(path))
    yield path
    patcher.undo()


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(benchmarks=(TINY_A,), ambients=(25.0, 40.0))
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


# Stand-ins for ``_execute_unit(unit, store)``.  Module-level so forked
# pool workers can pickle them by reference.
def _kill_worker(unit, store=None):
    os.kill(os.getpid(), signal.SIGKILL)


def _ok_records(unit):
    """One fake success per cell; ``cache_key`` records the seed it ran at."""
    return [JobResult(
        job_id=job.job_id, benchmark=job.benchmark,
        t_ambient=job.t_ambient, corner=job.corner,
        frequency_hz=1e9, worst_case_hz=5e8, gain=1.0, iterations=1,
        total_power_w=1.0, max_tile_celsius=50.0, mean_tile_celsius=40.0,
        wall_seconds=0.0, cache_key=f"seed-{job.seed}",
    ) for job in unit]


def _kill_one_worker_once(unit, store=None):
    """The first unit to run kills its worker; every unit holds its slot
    for 0.4 s, so the other unit in flight dies with the pool."""
    marker = Path(store).parent / "worker-killed"
    if not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.4)
    return _ok_records(unit)


def _congested_at_seed_7(unit, store=None):
    if unit[0].seed == 7:
        raise RoutingError("congested at placement seed 7")
    return _ok_records(unit)


async def _wait_terminal(scheduler, job_id, timeout=240.0):
    deadline = monotonic() + timeout
    while scheduler.jobs[job_id].status == "running":
        if monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still running after {timeout}s")
        await asyncio.sleep(0.05)
    return scheduler.result(job_id)


def run_scheduler(scenario, store_path, sink=None, **kwargs):
    """Run async ``scenario(scheduler)`` against a fresh scheduler.

    With ``sink``, an observe session is active for the duration, fanned
    out to the sink and the scheduler's broker bridge — the serve CLI's
    exact wiring, on one thread.
    """
    scheduler = SweepScheduler(open_store(store_path), **kwargs)

    async def main():
        scheduler.start()
        try:
            return await scenario(scheduler)
        finally:
            await scheduler.close()

    if sink is None:
        return asyncio.run(main())
    bridge = ObserveBridge(scheduler.broker)
    with observe.enabled(sink=FanoutSink([sink, bridge])):
        return asyncio.run(main())


def _cell_spans(sink: InMemorySink):
    return [r for r in sink.spans() if r.get("name") == "sweep.cell"]


def _events_named(sink: InMemorySink, name: str):
    return [r for r in sink.events() if r.get("name") == name]


class TestSchedulerDedupAndStore:
    def test_repeat_submission_is_served_entirely_from_store(
        self, cache_dir, tmp_path
    ):
        sink = InMemorySink()
        spec = tiny_spec()

        async def scenario(scheduler):
            first = await scheduler.submit(spec)
            await _wait_terminal(scheduler, first)
            executed_after_first = len(_cell_spans(sink))
            hits_after_first = len(_events_named(sink, "store.hit"))

            second = await scheduler.submit(spec)
            result = await _wait_terminal(scheduler, second)
            return (executed_after_first, hits_after_first, result)

        executed_first, hits_first, result = run_scheduler(
            scenario, tmp_path / "store", sink=sink, workers=1
        )
        n_cells = spec.n_jobs
        assert executed_first == n_cells
        assert result["status"] == "done"
        # The acceptance contract: second submission computes nothing —
        # store.hit covers every cell, zero new sweep.cell spans.
        assert result["n_store_hits"] == n_cells
        assert len(_cell_spans(sink)) == executed_first
        assert len(_events_named(sink, "store.hit")) - hits_first == n_cells
        assert len(_events_named(sink, "sweep.cell_skipped")) == n_cells
        # Served records carry their provenance.
        assert all(c["source"] == "store" for c in result["cells"])
        assert all(c["ok"] for c in result["cells"])

    def test_concurrent_overlapping_grids_compute_overlap_once(
        self, cache_dir, tmp_path
    ):
        sink = InMemorySink()
        spec_one = tiny_spec(ambients=(25.0, 40.0))
        spec_two = tiny_spec(ambients=(40.0, 55.0))  # 40.0 overlaps

        async def scenario(scheduler):
            # No await between the submissions: spec_one's cells are all
            # still in flight when spec_two arrives, exactly the
            # concurrent-clients race the dedup map exists for.
            first = await scheduler.submit(spec_one)
            second = await scheduler.submit(spec_two)
            r1 = await _wait_terminal(scheduler, first)
            r2 = await _wait_terminal(scheduler, second)
            return scheduler.jobs[second].n_deduped, r1, r2

        n_deduped, r1, r2 = run_scheduler(
            scenario, tmp_path / "store", sink=sink, workers=2
        )
        assert n_deduped == 1
        assert r1["status"] == "done" and r2["status"] == "done"
        # 2 + 2 cells, 1 shared: exactly 3 Algorithm 1 executions.
        assert len(_cell_spans(sink)) == 3
        by_ambient_1 = {c["t_ambient"]: c for c in r1["cells"]}
        by_ambient_2 = {c["t_ambient"]: c for c in r2["cells"]}
        # Both jobs received the shared cell, with identical numbers.
        assert by_ambient_1[40.0]["frequency_hz"] == (
            by_ambient_2[40.0]["frequency_hz"]
        )
        # The overlap span was tagged with both subscribing jobs.
        shared = [s for s in _cell_spans(sink)
                  if len(s["attrs"].get("jobs", ())) == 2]
        assert len(shared) == 1

    def test_dead_worker_fails_the_job_instead_of_hanging(
        self, cache_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "_execute_unit", _kill_worker)
        spec = tiny_spec(ambients=(25.0,))

        async def scenario(scheduler):
            job_id = await scheduler.submit(spec)
            return await _wait_terminal(scheduler, job_id, timeout=60.0)

        result = run_scheduler(
            scenario, tmp_path / "store", workers=1, max_retries=0
        )
        assert result["status"] == "failed"
        assert result["n_failed"] == 1
        (cell,) = result["cells"]
        assert cell["ok"] is False
        assert cell["error_type"] == "BrokenProcessPool"

    def test_pool_breakage_spares_queued_units_budget(
        self, tmp_path, monkeypatch
    ):
        # The service twin of the engine's test of the same name: one
        # dead worker costs one pool rebuild, and only the two units
        # that held a worker slot are charged an attempt.
        monkeypatch.setattr(
            engine_module, "_execute_unit", _kill_one_worker_once
        )
        sink = InMemorySink()
        spec = tiny_spec(ambients=(25.0, 30.0, 35.0, 40.0, 45.0, 50.0))

        async def scenario(scheduler):
            job_id = await scheduler.submit(spec)
            return await _wait_terminal(scheduler, job_id, timeout=60.0)

        result = run_scheduler(
            scenario, tmp_path / "store", sink=sink,
            workers=2, max_retries=1, batch=False,
        )
        assert result["status"] == "done"
        attempts = sorted(cell["attempts"] for cell in result["cells"])
        assert attempts == [1, 1, 1, 1, 2, 2]
        (rebuilds,) = [
            m for m in sink.metrics() if m["name"] == "sweep.pool_rebuilds"
        ]
        assert rebuilds["value"] == 1.0

    def test_routing_retry_perturbs_placement_seed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            engine_module, "_execute_unit", _congested_at_seed_7
        )
        spec = tiny_spec(seed=7)

        async def scenario(scheduler):
            job_id = await scheduler.submit(spec)
            return await _wait_terminal(scheduler, job_id, timeout=60.0)

        result = run_scheduler(
            scenario, tmp_path / "store",
            workers=2, max_retries=1, batch=False,
        )
        assert result["status"] == "done"
        assert len(result["cells"]) == spec.n_jobs
        for cell in result["cells"]:
            assert cell["attempts"] == 2
            assert cell["cache_key"] == "seed-8"

    def test_store_probe_never_blocks_the_event_loop(
        self, cache_dir, tmp_path, monkeypatch
    ):
        """A store-served repeat submission must not stall the loop.

        The scheduler probes the store through ``run_in_executor``
        (the ``async-blocking`` rule's invariant).  Slow every store
        read down to 0.25s and watch a 5ms heartbeat task during the
        repeat submission: if the reads ran on the loop, the heartbeat
        would gap by >= 0.25s per cell.
        """
        from repro.store.store import ResultStore

        spec = tiny_spec()  # two cells -> >= 0.5s loop stall if on-loop
        real_load = ResultStore.load

        def slow_load(self, digest):
            time.sleep(0.25)
            return real_load(self, digest)

        async def scenario(scheduler):
            first = await scheduler.submit(spec)
            await _wait_terminal(scheduler, first)

            monkeypatch.setattr(ResultStore, "load", slow_load)
            gaps = []

            async def heartbeat():
                last = monotonic()
                while True:
                    await asyncio.sleep(0.005)
                    now = monotonic()
                    gaps.append(now - last)
                    last = now

            beat = asyncio.ensure_future(heartbeat())
            try:
                second = await scheduler.submit(spec)
                result = await _wait_terminal(scheduler, second)
            finally:
                beat.cancel()
            return result, max(gaps)

        result, max_gap = run_scheduler(
            scenario, tmp_path / "store", workers=1
        )
        assert result["status"] == "done"
        assert result["n_store_hits"] == spec.n_jobs
        assert max_gap < 0.2, (
            f"event loop stalled for {max_gap:.3f}s during the store probe"
        )

    def test_failed_store_probe_computes_every_cell(
        self, cache_dir, tmp_path, monkeypatch
    ):
        # A store probe that raises must not wedge the grid: every cell
        # counts as a miss and is computed.
        def broken_probe(self, digests):
            raise OSError("store volume unavailable")

        monkeypatch.setattr(SweepScheduler, "_probe_store", broken_probe)
        sink = InMemorySink()
        spec = tiny_spec()

        async def scenario(scheduler):
            job_id = await scheduler.submit(spec)
            return await _wait_terminal(scheduler, job_id, timeout=60.0)

        result = run_scheduler(
            scenario, tmp_path / "store", sink=sink, workers=1
        )
        assert result["status"] == "done"
        assert result["n_store_hits"] == 0
        assert len(result["cells"]) == spec.n_jobs
        assert all(c["ok"] for c in result["cells"])
        assert all(c["source"] == "computed" for c in result["cells"])
        assert len(_cell_spans(sink)) == spec.n_jobs
        (failed,) = _events_named(sink, "service.store_probe_failed")
        assert failed["attrs"]["error_type"] == "OSError"
        assert failed["attrs"]["n_cells"] == spec.n_jobs

    def test_scheduler_rejects_bad_parameters(self, tmp_path):
        store = open_store(tmp_path / "store")
        with pytest.raises(ValueError, match="workers"):
            SweepScheduler(store, workers=0)
        with pytest.raises(ValueError, match="max_retries"):
            SweepScheduler(store, max_retries=-1)

    def test_flow_keys_stay_bounded_over_many_seeds(self, tmp_path):
        """A thousand seeds through ``digest_for`` keep at most
        ``FLOW_KEY_MEMO_SIZE`` flow keys, and every digest, an evicted
        seed's asked again included, is the one computed from scratch."""
        memo = MEMOS["service.flow_key.memo"]
        memo.clear()
        scheduler = SweepScheduler(open_store(tmp_path / "store"))
        (job,) = tiny_spec(ambients=(25.0,)).expand()
        netlist = job.resolve_netlist()

        def direct(seed):
            return store_digest(
                flow_cache_key_for(netlist, job.arch, seed, False, 0.0),
                job.config, job.t_ambient, job.corner,
            )

        for seed in [*range(1000), 0, 1]:
            assert scheduler.digest_for(replace(job, seed=seed)) == direct(seed)
        assert len(memo) == FLOW_KEY_MEMO_SIZE
        assert memo.evictions == 1000 + 2 - FLOW_KEY_MEMO_SIZE


class TestEventBroker:
    def test_history_replays_after_finish(self):
        async def main():
            broker = EventBroker()
            broker.bind(asyncio.get_running_loop())
            broker.open_job("job-1")
            for n in range(3):
                broker.publish(("job-1",), {"type": "event", "n": n})
            broker.finish_job("job-1")
            return [record async for record in broker.stream("job-1")]

        records = asyncio.run(main())
        assert [r["n"] for r in records] == [0, 1, 2]

    def test_live_stream_ends_on_finish(self):
        async def main():
            broker = EventBroker()
            broker.bind(asyncio.get_running_loop())
            broker.open_job("job-1")

            async def consume():
                return [record async for record in broker.stream("job-1")]

            task = asyncio.ensure_future(consume())
            await asyncio.sleep(0)  # let the subscriber attach
            broker.publish(("job-1",), {"n": 1})
            broker.publish(("job-2",), {"n": "other"})  # unknown: dropped
            broker.finish_job("job-1")
            return await asyncio.wait_for(task, timeout=5.0)

        records = asyncio.run(main())
        assert [r["n"] for r in records] == [1]

    def test_knows_tracks_opened_jobs(self):
        broker = EventBroker()
        assert not broker.knows("job-1")
        broker.open_job("job-1")
        assert broker.knows("job-1")

    def test_bridge_forwards_only_job_tagged_records(self):
        broker = EventBroker()
        broker.open_job("job-1")
        bridge = ObserveBridge(broker)
        bridge.write({"type": "event", "name": "engine.internal",
                      "attrs": {}})
        bridge.write({"type": "event", "name": "no.attrs"})
        bridge.write({"type": "event", "name": "sweep.cell_skipped",
                      "attrs": {"jobs": ["job-1"]}})
        bridge.write({"type": "event", "name": "sweep.cell_skipped",
                      "attrs": {"jobs": []}})
        assert [r["name"] for r in broker._archive["job-1"]] == [
            "sweep.cell_skipped"
        ]

    def test_bridge_hands_other_thread_records_to_the_loop(self):
        # A record written on another thread (a worker thread finishing a
        # span) must reach the loop through call_soon_threadsafe; in debug
        # mode a plain call_soon from that thread raises.
        async def main():
            loop = asyncio.get_running_loop()
            broker = EventBroker()
            broker.bind(loop)
            broker.open_job("job-1")
            record = {"type": "event", "name": "sweep.cell_skipped",
                      "attrs": {"jobs": ["job-1"]}}
            await loop.run_in_executor(
                None, ObserveBridge(broker).write, record
            )
            await asyncio.sleep(0)
            broker.finish_job("job-1")
            return [r async for r in broker.stream("job-1")]

        records = asyncio.run(main())
        assert [r["name"] for r in records] == ["sweep.cell_skipped"]


class TestInProcessClient:
    def test_submit_wait_result_stream_lifecycle(self, cache_dir, tmp_path):
        spec = tiny_spec(ambients=(25.0,))
        with SweepClient(store=tmp_path / "store", workers=1) as client:
            job_id = client.submit(spec)
            result = client.wait(job_id, timeout=240.0)
            assert result["status"] == "done"
            assert len(result["cells"]) == spec.n_jobs
            assert all(cell["ok"] for cell in result["cells"])
            names = [r.get("name") for r in client.stream(job_id)]
            assert "service.job_accepted" in names
            assert "service.job_finished" in names
            assert "sweep.cell" in names
            with pytest.raises(ServiceError, match="no job"):
                client.status("job-9999")
            with pytest.raises(ServiceError, match="no job"):
                list(client.stream("job-9999"))

    def test_constructor_validates_transport_choice(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            SweepClient()
        with pytest.raises(ValueError, match="exactly one"):
            SweepClient(url="http://x", store=tmp_path)
        with pytest.raises(ValueError, match="trace_path"):
            SweepClient(url="http://x", trace_path="t.jsonl")


class _ServerThread:
    """A SweepServer on a background loop thread, for urllib-side tests.

    Mirrors the serve CLI's wiring: the loop thread owns the scheduler,
    the observe session and the broker bridge.
    """

    def __init__(self, store_path):
        self.url = None
        self.error = None
        self._loop = None
        self._stop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(store_path,), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(timeout=30.0)
        if self.error is not None:
            raise self.error

    def _run(self, store_path):
        async def main():
            scheduler = SweepScheduler(open_store(store_path), workers=1)
            server = SweepServer(scheduler, port=0)
            with observe.enabled(sink=ObserveBridge(scheduler.broker)):
                await server.start()
                host, port = server.address
                self.url = f"http://{host}:{port}"
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                self._ready.set()
                await self._stop.wait()
                await server.close()

        try:
            asyncio.run(main())
        except BaseException as error:
            self.error = error
            self._ready.set()

    def stop(self):
        if self._loop is not None and self._stop is not None:
            stop = self._stop
            self._loop.call_soon_threadsafe(stop.set)
        self._thread.join(timeout=30.0)


@pytest.fixture()
def server(cache_dir, tmp_path):
    srv = _ServerThread(tmp_path / "store")
    yield srv
    srv.stop()


def _post(url, body: bytes):
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    return urllib.request.urlopen(request, timeout=30.0)


def _http_error(callable_):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_()
    payload = json.loads(excinfo.value.read().decode("utf-8"))
    return excinfo.value.code, payload


class TestHttpServer:
    def test_health_reports_wire_version(self, server):
        with urllib.request.urlopen(f"{server.url}/v1/health") as response:
            payload = json.loads(response.read())
        assert payload["ok"] is True
        assert payload["wire_version"] >= 1

    def test_full_submit_wait_result_over_http(self, server):
        spec = tiny_spec(ambients=(25.0,))
        client = SweepClient(url=server.url)
        job_id = client.submit(spec)
        result = client.wait(job_id, timeout=240.0)
        assert result["status"] == "done"
        assert len(result["cells"]) == spec.n_jobs
        names = [r.get("name") for r in client.stream(job_id)]
        assert "service.job_finished" in names

    def test_malformed_json_is_400(self, server):
        code, payload = _http_error(
            lambda: _post(f"{server.url}/v1/jobs", b"{not json")
        )
        assert code == 400
        assert payload["error"] == "InvalidJSON"

    def test_wire_version_mismatch_is_400_with_diagnostic(self, server):
        doc = to_wire(tiny_spec())
        doc["wire_version"] = 999
        code, payload = _http_error(
            lambda: _post(f"{server.url}/v1/jobs", json.dumps(doc).encode())
        )
        assert code == 400
        assert payload["error"] == "WireError"
        assert "999" in payload["message"]

    def test_non_finite_delta_t_is_400(self, server):
        # Python's json reads a bare NaN; the config must still refuse it.
        doc = to_wire(tiny_spec(config=GuardbandConfig()))
        doc["payload"]["config"]["payload"]["delta_t"] = float("nan")
        body = json.dumps(doc).encode()
        assert b"NaN" in body
        code, payload = _http_error(
            lambda: _post(f"{server.url}/v1/jobs", body)
        )
        assert code == 400
        assert payload["error"] == "WireError"
        assert "delta_t must be positive and finite" in payload["message"]

    def test_unknown_field_is_400_naming_the_field(self, server):
        doc = to_wire(tiny_spec())
        doc["payload"]["bogus_field"] = 1
        code, payload = _http_error(
            lambda: _post(f"{server.url}/v1/jobs", json.dumps(doc).encode())
        )
        assert code == 400
        assert "bogus_field" in payload["message"]

    def test_non_spec_envelope_is_400(self, server):
        from repro.arch.params import ArchParams

        body = json.dumps(to_wire(ArchParams())).encode()
        code, payload = _http_error(
            lambda: _post(f"{server.url}/v1/jobs", body)
        )
        assert code == 400
        assert payload["error"] == "WrongKind"

    def test_unknown_job_is_404(self, server):
        for suffix in ("", "/result", "/events"):
            code, payload = _http_error(
                lambda s=suffix: urllib.request.urlopen(
                    f"{server.url}/v1/jobs/job-9999{s}", timeout=30.0
                )
            )
            assert code == 404
            assert payload["error"] == "UnknownJob"

    def test_unknown_route_is_404(self, server):
        code, payload = _http_error(
            lambda: urllib.request.urlopen(
                f"{server.url}/v2/anything", timeout=30.0
            )
        )
        assert code == 404
        assert "/v1" in payload["message"]

    def test_wrong_method_is_405(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/jobs/job-0001", method="DELETE"
        )
        code, payload = _http_error(
            lambda: urllib.request.urlopen(request, timeout=30.0)
        )
        assert code == 405
        assert payload["error"] == "MethodNotAllowed"

    def test_internal_error_is_an_opaque_structured_500(
        self, server, monkeypatch
    ):
        async def boom(self, method, path, body, writer):
            raise RuntimeError("secret-detail /private/store/path")

        monkeypatch.setattr(SweepServer, "_route", boom)
        code, payload = _http_error(
            lambda: urllib.request.urlopen(
                f"{server.url}/v1/health", timeout=30.0
            )
        )
        assert code == 500
        assert payload["error"] == "InternalError"
        # The traceback goes to the operator's observe stream only —
        # exception text must never reach the client.
        body_text = json.dumps(payload)
        assert "secret-detail" not in body_text
        assert "RuntimeError" not in body_text
        assert "Traceback" not in body_text

    def test_http_client_surfaces_service_diagnostics(self, server):
        client = SweepClient(url=server.url)
        with pytest.raises(ServiceError, match="UnknownJob"):
            client.status("job-9999")
        with pytest.raises(ServiceError, match="404"):
            list(client.stream("job-9999"))

    def test_unreachable_server_is_a_service_error(self):
        client = SweepClient(url="http://127.0.0.1:1", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.status("job-0001")
