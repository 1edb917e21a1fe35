"""The flight recorder: bounded history, crash reports, excepthook."""

import json
import sys

import pytest

from repro import telemetry
from repro.telemetry.flight import (
    CAPACITY,
    FlightRecorder,
    install_excepthook,
    uninstall_excepthook,
)


@pytest.fixture(autouse=True)
def _clean_sinks():
    assert telemetry.flight_recorder() is None
    yield
    assert telemetry.flight_recorder() is None
    uninstall_excepthook()


class TestRingBuffer:
    def test_capacity_bounds_history(self):
        recorder = FlightRecorder()
        for index in range(CAPACITY + 7):
            recorder.note("tick", n=index)
        assert len(recorder) == CAPACITY
        assert [event["n"] for event in recorder.events][:3] == [7, 8, 9]

    def test_context_and_chunk_states(self):
        recorder = FlightRecorder()
        recorder.set_context("schedule", {"workers": 4})
        recorder.chunk_state(0, "submitted")
        recorder.chunk_state(0, "done")
        recorder.chunk_state(1, "lost")
        snapshot = recorder.snapshot()
        assert snapshot["context"]["schedule"] == {"workers": 4}
        assert snapshot["chunks"] == {"0": "done", "1": "lost"}
        recorder.reset_chunks()
        assert recorder.snapshot()["chunks"] == {}


class TestDump:
    def test_dump_writes_numbered_reports(self, tmp_path):
        recorder = FlightRecorder(crash_dir=tmp_path)
        recorder.note("before", n=1)
        first = recorder.dump("parallel-degraded")
        second = recorder.dump("broken-pool")
        assert first.name == f"crash-{recorder.run_id}-1.json"
        assert second.name == f"crash-{recorder.run_id}-2.json"
        report = json.loads(first.read_text(encoding="utf-8"))
        assert report["reason"] == "parallel-degraded"
        assert report["run_id"] == recorder.run_id
        assert report["events"][0]["event"] == "before"

    def test_dump_serialises_error_with_traceback(self, tmp_path):
        recorder = FlightRecorder(crash_dir=tmp_path)
        try:
            raise RuntimeError("worker died")
        except RuntimeError as error:
            path = recorder.dump("unhandled", error=error)
        report = json.loads(path.read_text(encoding="utf-8"))
        assert report["error"]["type"] == "RuntimeError"
        assert report["error"]["message"] == "worker died"
        assert any("RuntimeError" in line for line in report["error"]["traceback"])

    def test_env_crash_dir_is_honoured(self, tmp_path, monkeypatch):
        crash_dir = tmp_path / "elsewhere"
        monkeypatch.setenv("REPRO_CRASH_DIR", str(crash_dir))
        path = FlightRecorder().dump("test")
        assert path.parent == crash_dir


class TestExcepthook:
    def test_unhandled_exception_dumps_active_recorder(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        install_excepthook()
        try:
            with telemetry.session() as run:
                run.flight.note("the last thing that happened")
                try:
                    raise ValueError("boom")
                except ValueError:
                    sys.excepthook(*sys.exc_info())
        finally:
            uninstall_excepthook()
        reports = list(tmp_path.glob("crash-*.json"))
        assert len(reports) == 1
        report = json.loads(reports[0].read_text(encoding="utf-8"))
        assert report["reason"] == "unhandled-exception"
        assert report["error"]["type"] == "ValueError"
        assert report["events"][0]["event"] == "the last thing that happened"

    def test_install_is_idempotent_and_chains(self, tmp_path, capsys):
        install_excepthook()
        hook = sys.excepthook
        install_excepthook()
        assert sys.excepthook is hook
        uninstall_excepthook()
        assert sys.excepthook is not hook

    def test_env_armed_flight_dumps_on_unhandled_exception(self, tmp_path):
        """REPRO_FLIGHT=1 must arm the excepthook too, not just the ring:
        a process that dies unhandled leaves a crash report behind."""
        import os
        import subprocess

        env = dict(
            os.environ,
            REPRO_FLIGHT="1",
            REPRO_CRASH_DIR=str(tmp_path),
        )
        script = (
            "from repro import telemetry\n"
            "telemetry.log_event('last.words', n=1)\n"
            "raise RuntimeError('env-armed crash')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "RuntimeError" in proc.stderr  # original traceback intact
        (report_path,) = tmp_path.glob("crash-*.json")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["reason"] == "unhandled-exception"
        assert report["error"]["message"] == "env-armed crash"
        assert report["events"][-1]["event"] == "last.words"


class TestSessionCrashReports:
    def test_exception_dumps_one_report_even_when_nested(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path))
        with pytest.raises(RuntimeError, match="deep"):
            with telemetry.session() as outer:
                with telemetry.session():
                    raise RuntimeError("deep")
        (report_path,) = tmp_path.glob("crash-*.json")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["run_id"] == outer.run_id
        assert report["reason"] == "exception"
        assert report["error"]["message"] == "deep"
        assert outer.flight.reports == [report_path]
