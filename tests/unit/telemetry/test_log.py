"""Structured logging: EventLog, worker capture/merge, module wiring."""

import json

import pytest

from repro import telemetry
from repro.telemetry.log import EventLog, capture_events, new_run_id


@pytest.fixture(autouse=True)
def _clean_sinks():
    """Every test starts and ends with logging and flight disabled."""
    assert telemetry.event_log() is None
    assert telemetry.flight_recorder() is None
    yield
    assert telemetry.event_log() is None
    assert telemetry.flight_recorder() is None


class TestIds:
    def test_run_ids_are_distinct_hex(self):
        first, second = new_run_id(), new_run_id()
        assert first != second
        assert len(first) == 16
        int(first, 16)  # raises if not hex

class TestEventLog:
    def test_emit_stamps_run_seq_and_ts(self):
        log = EventLog()
        record = log.emit("decode.start", tiles=16)
        assert record["run_id"] == log.run_id
        assert record["seq"] == 1
        assert record["ts"] > 0
        assert record["tiles"] == 16
        assert log.emit("decode.done")["seq"] == 2

    def test_select_preserves_stream_order(self):
        log = EventLog()
        log.emit("a", n=1)
        log.emit("b")
        log.emit("a", n=2)
        assert [r["n"] for r in log.select("a")] == [1, 2]

    def test_merge_restamps_run_and_seq_keeps_fields(self):
        log = EventLog()
        log.emit("parallel.fanout")
        worker = [
            {"ts": 1.0, "event": "parallel.chunk_decoded", "pid": 4242},
            {"ts": 2.0, "event": "parallel.chunk_decoded", "pid": 4242},
        ]
        log.merge(worker)
        merged = log.select("parallel.chunk_decoded")
        assert [r["seq"] for r in merged] == [2, 3]
        assert all(r["run_id"] == log.run_id for r in merged)
        assert all(r["pid"] == 4242 for r in merged)
        # The worker-side dicts are not mutated.
        assert "run_id" not in worker[0]

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("one", value=1)
        log.emit("two", text="x=y")
        path = log.write(tmp_path / "events.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["event"] == "one"
        assert parsed[1]["text"] == "x=y"

    def test_capture_events_buffers_without_stamps(self):
        with capture_events() as buffer:
            buffer.emit("parallel.chunk_decoded", blocks=3)
        (record,) = buffer.events
        assert record["event"] == "parallel.chunk_decoded"
        assert "seq" not in record and "run_id" not in record


class TestModuleWiring:
    def test_disabled_log_event_is_noop(self):
        telemetry.log_event("anything", cost="must be zero")
        assert telemetry.event_log() is None
        assert not telemetry.log_enabled()

    def test_session_nests_and_restores_the_event_log(self, tmp_path):
        outer_path = tmp_path / "outer.jsonl"
        inner_path = tmp_path / "inner.jsonl"
        with telemetry.session(events=outer_path) as outer:
            assert telemetry.log_enabled()
            assert telemetry.event_log() is outer.log
            telemetry.log_event("hello", n=1)
            with telemetry.session(events=inner_path) as inner:
                assert telemetry.event_log() is inner.log
                # A nested session joins the enclosing run.
                assert inner.run_id == outer.run_id
                assert telemetry.flight_recorder() is outer.flight
                telemetry.log_event("inner")
            assert telemetry.event_log() is outer.log
            assert telemetry.log_enabled()
            telemetry.log_event("after")
        assert not telemetry.log_enabled()
        assert [r["event"] for r in outer.log] == ["hello", "after"]
        assert outer.log.select("hello")[0]["n"] == 1
        assert [r["event"] for r in inner.log] == ["inner"]
        # Each log is written to its path on exit.
        assert len(outer_path.read_text().splitlines()) == 2
        assert len(inner_path.read_text().splitlines()) == 1

    def test_run_id_prefers_log_then_flight(self, tmp_path):
        assert telemetry.run_id() is None
        with telemetry.session() as run:
            assert telemetry.run_id() == run.flight.run_id == run.run_id
            with telemetry.session(events=tmp_path / "e.jsonl") as inner:
                assert telemetry.run_id() == inner.log.run_id == run.run_id
        assert telemetry.run_id() is None

    def test_log_event_feeds_armed_flight_recorder(self, tmp_path):
        with telemetry.session() as run:
            flight = run.flight
            telemetry.log_event("only.flight", n=1)
            assert len(flight.events) == 1
            with telemetry.session(events=tmp_path / "e.jsonl") as inner:
                telemetry.log_event("both", n=2)
            log = inner.log
            assert log.select("both")
            assert flight.events[-1]["event"] == "both"
            # The flight copy is the stamped record, not a re-build.
            assert flight.events[-1]["run_id"] == log.run_id

    def test_merge_worker_events_reaches_both_sinks(self, tmp_path):
        with telemetry.session(events=tmp_path / "e.jsonl") as run:
            telemetry.merge_worker_events(
                [{"ts": 1.0, "event": "w", "pid": 1}]
            )
        assert run.log.select("w")
        assert run.flight.events[-1]["event"] == "w"

    def test_merge_worker_events_none_is_noop(self, tmp_path):
        with telemetry.session(events=tmp_path / "e.jsonl"):
            telemetry.merge_worker_events(None)
            telemetry.merge_worker_events([])
            assert len(telemetry.event_log()) == 0
