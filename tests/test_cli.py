"""Tests for the ``python -m repro`` command-line interface.

CLI contract: every subcommand supports ``--json`` (one machine-readable
object on stdout) and failures exit non-zero with a one-line diagnostic,
never a raw traceback.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import main

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


class TestCli:
    def test_characterize(self, capsys):
        assert main(["characterize", "--corner", "25"]) == 0
        out = capsys.readouterr().out
        assert "sb_mux" in out and "bram" in out

    def test_corners(self, capsys):
        assert main(["corners"]) == 0
        out = capsys.readouterr().out
        assert "D0" in out and "D100" in out

    def test_grades(self, capsys):
        assert main(["grades", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "grade corner" in out

    def test_guardband(self, capsys):
        assert main(["guardband", "stereovision3", "--ambient", "25"]) == 0
        out = capsys.readouterr().out
        assert "thermal-aware" in out and "MHz" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["guardband", "nonexistent"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestJsonMode:
    def test_characterize_json(self, capsys):
        assert main(["characterize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {r["resource"] for r in payload["resources"]}
        assert "sb_mux" in names and "bram" in names

    def test_guardband_json(self, capsys):
        assert main(["guardband", "stereovision3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "stereovision3"
        assert payload["frequency_hz"] > payload["worst_case_hz"] > 0
        assert payload["gain"] > 0

    def test_corners_json(self, capsys):
        assert main(["corners", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["winners"]) == 11

    def test_grades_json(self, capsys):
        assert main(["grades", "--count", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["bands"]) == 2
        assert payload["average_delay_s"] > 0


def _span_names(path) -> set:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return {r["name"] for r in records if r["type"] == "span"}


class TestTraceFlag:
    """--trace on the single-run commands, as on the engine commands."""

    def test_characterize_trace_holds_the_fabric_build(
        self, cold_coffe, tmp_path, capsys
    ):
        trace = tmp_path / "characterize.jsonl"
        assert main(["characterize", "--corner", "70", "--trace", str(trace)]) == 0
        assert "python -m repro.observe report" in capsys.readouterr().out
        assert "coffe.characterize" in _span_names(trace)

    def test_guardband_trace_holds_the_algorithm1_run(self, tmp_path, capsys):
        trace = tmp_path / "guardband.jsonl"
        code = main(
            ["guardband", "stereovision3", "--json", "--trace", str(trace)]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["gain"] > 0
        assert "guardband.run" in _span_names(trace)


class TestSweepCommand:
    def test_sweep_text(self, cache_dir, capsys):
        code = main(
            ["sweep", "--benchmarks", "mkPktMerge,stereovision3",
             "--ambients", "25,70"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mkPktMerge" in out and "stereovision3" in out
        assert "guardbanding gain" not in out  # two ambients: no chart

    def test_sweep_json_with_jsonl(self, cache_dir, tmp_path, capsys):
        jsonl = tmp_path / "cells.jsonl"
        code = main(
            ["sweep", "--benchmarks", "mkPktMerge", "--ambients", "25",
             "--workers", "2", "--json", "--jsonl", str(jsonl)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_jobs"] == payload["n_ok"] == 1
        assert payload["results"][0]["benchmark"] == "mkPktMerge"
        lines = jsonl.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["type"] == "result"

    def test_sweep_unknown_benchmark_exits_1(self, capsys):
        code = main(["sweep", "--benchmarks", "nonexistent", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ValueError"
        assert "unknown VTR benchmark" in payload["message"]

    def test_sweep_bad_ambients_diagnostic(self):
        with pytest.raises(SystemExit, match="--ambients"):
            main(["sweep", "--benchmarks", "sha", "--ambients", "hot"])


class TestServiceCommands:
    """serve/submit/status share the CLI's exit-code and --json contract."""

    def _spec_file(self, tmp_path, mutate=None):
        from repro.runner.spec import ExperimentSpec
        from repro.service.wire import to_wire

        doc = to_wire(ExperimentSpec(benchmarks=("sha",)))
        if mutate is not None:
            mutate(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_submit_missing_spec_file_exits_1(self, tmp_path, capsys):
        code = main(["submit", str(tmp_path / "absent.json"),
                     "--url", "http://127.0.0.1:1", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "FileNotFoundError"

    def test_submit_bad_wire_version_exits_1(self, tmp_path, capsys):
        def bump(doc):
            doc["wire_version"] = 999

        code = main(["submit", self._spec_file(tmp_path, bump),
                     "--url", "http://127.0.0.1:1", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "WireError"
        assert "999" in payload["message"]

    def test_submit_non_spec_envelope_exits_1(self, tmp_path, capsys):
        from repro.arch.params import ArchParams
        from repro.service.wire import to_wire

        path = tmp_path / "arch.json"
        path.write_text(json.dumps(to_wire(ArchParams())), encoding="utf-8")
        code = main(["submit", str(path),
                     "--url", "http://127.0.0.1:1", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert "ExperimentSpec" in payload["message"]

    def test_submit_unreachable_server_exits_1(self, tmp_path, capsys):
        code = main(["submit", self._spec_file(tmp_path),
                     "--url", "http://127.0.0.1:1", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ServiceError"
        assert "cannot reach" in payload["message"]

    def test_status_unreachable_server_exits_1(self, capsys):
        code = main(["status", "job-0001",
                     "--url", "http://127.0.0.1:1", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ServiceError"

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
    @pytest.mark.parametrize("sig", ["SIGINT", "SIGTERM"])
    def test_serve_stops_when_started_with_sigint_ignored(self, tmp_path, sig):
        """A non-interactive shell starts background jobs with SIGINT
        ignored (CI's `serve ... &` then `kill -INT`); the server must
        still shut down cleanly, and on SIGTERM too."""
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(tmp_path / "store"), "--port", "0",
             "--workers", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            deadline = time.monotonic() + 60.0
            banner = ""
            while "serving sweeps" not in banner:
                left = deadline - time.monotonic()
                ready, _, _ = select.select([child.stdout], [], [], max(left, 0))
                assert ready, "serve printed no banner within 60 s"
                line = child.stdout.readline()
                assert line, f"serve exited early: {banner}"
                banner += line
            child.send_signal(getattr(signal, sig))
            assert child.wait(timeout=20) == 0
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()

    def test_help_lists_service_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("serve", "submit", "status"):
            assert name in out
