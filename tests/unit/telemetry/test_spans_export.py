"""Span recording, recorder clock, and the Chrome trace-event exporter."""

import json

import pytest

from repro import telemetry
from repro.kernel import Simulator, ns
from repro.telemetry import (
    Span,
    TelemetryRecorder,
    aggregate,
    flame_summary,
    stage_shares,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.export import FS_PER_US


@pytest.fixture
def recorder():
    return TelemetryRecorder()


class TestRecorder:
    def test_complete_records_span(self, recorder):
        recorder.complete("bus", "opb", "cpu0", 100, 400, {"words": 4})
        (span,) = recorder.spans
        assert (span.category, span.name, span.track) == ("bus", "opb", "cpu0")
        assert span.duration_fs == 300
        assert span.attrs == {"words": 4}

    def test_busy_fs_sums_per_category_and_name(self, recorder):
        recorder.complete("bus", "opb", "a", 0, 10)
        recorder.complete("bus", "opb", "b", 10, 30)
        recorder.complete("bus", "ddr", "a", 0, 5)
        recorder.complete("rmi", "x", "a", 0, 100)
        assert recorder.busy_fs("bus") == 35
        assert recorder.busy_fs("bus", "opb") == 30
        assert recorder.busy_fs("bus", "ddr") == 5

    def test_tracks_in_first_seen_order(self, recorder):
        recorder.complete("c", "n", "beta", 0, 1)
        recorder.complete("c", "n", "alpha", 0, 1)
        recorder.complete("c", "n", "beta", 1, 2)
        assert recorder.tracks() == ["beta", "alpha"]

    def test_span_context_manager_uses_sim_clock(self, recorder):
        sim = Simulator()
        recorder.bind_sim(sim)

        def body():
            with recorder.span("sw", "work", "proc"):
                yield ns(25)

        sim.spawn(body(), "p")
        sim.run()
        (span,) = recorder.spans
        assert span.duration_fs == ns(25).femtoseconds

    def test_span_context_manager_wall_clock_fallback(self, recorder):
        with recorder.span("sw", "host", "main"):
            pass
        (span,) = recorder.spans
        assert span.end_fs >= span.begin_fs

    def test_instant_marker_zero_duration(self, recorder):
        recorder.instant("kernel", "mark", "sched")
        (span,) = recorder.spans
        assert span.duration_fs == 0


class TestModuleState:
    def test_session_nests_and_restores_the_recorder(self):
        assert telemetry.active() is None
        assert not telemetry.enabled()
        with telemetry.session(spans=True) as outer:
            assert telemetry.active() is outer.recorder
            assert telemetry.enabled()
            with telemetry.session(spans=True) as inner:
                assert telemetry.active() is inner.recorder
                assert inner.recorder is not outer.recorder
            with telemetry.session():  # no spans: the outer one stays
                assert telemetry.active() is outer.recorder
            assert telemetry.active() is outer.recorder
        assert telemetry.active() is None
        assert not telemetry.enabled()

    def test_session_restores_after_an_exception(self):
        with pytest.raises(ValueError):
            with telemetry.session(spans=True):
                raise ValueError("boom")
        assert telemetry.active() is None
        assert telemetry.flight_recorder() is None

    def test_count_no_op_when_disabled(self):
        telemetry.count("never")  # must not raise with no recorder

    def test_count_reaches_recorder_when_enabled(self):
        with telemetry.session(spans=True) as run:
            telemetry.count("hits", 3)
        assert run.recorder.metrics.counter("hits") == 3

    def test_software_span_null_when_disabled(self):
        with telemetry.software_span("sw", "x") as live:
            assert live is None

    def test_simulator_binds_active_recorder(self):
        with telemetry.session(spans=True) as run:
            sim = Simulator()
            assert sim.telemetry is run.recorder
            assert run.recorder.now_fs() == 0
        assert Simulator().telemetry is None


class TestChromeTraceExport:
    def _recorder_with_spans(self):
        recorder = TelemetryRecorder()
        recorder.complete("bus", "opb", "cpu0", 0, 2 * FS_PER_US, {"words": 8})
        recorder.complete("stage", "idwt", "task0", FS_PER_US, 3 * FS_PER_US)
        recorder.metrics.count("kernel.delta_cycles", 12)
        return recorder

    def test_structure_is_valid_trace_event_json(self):
        payload = to_chrome_trace(self._recorder_with_spans(), label="unit")
        # Must survive a JSON round trip untouched.
        payload = json.loads(json.dumps(payload))
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        process_meta = next(e for e in meta if e["name"] == "process_name")
        assert process_meta["args"]["name"] == "unit"
        thread_names = {
            e["tid"]: e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert set(thread_names.values()) == {"cpu0", "task0"}
        for event in spans:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["tid"] in thread_names

    def test_timestamps_are_microseconds(self):
        payload = to_chrome_trace(self._recorder_with_spans())
        bus = next(e for e in payload["traceEvents"]
                   if e.get("cat") == "bus")
        assert bus["ts"] == 0.0
        assert bus["dur"] == 2.0
        assert bus["args"] == {"words": 8}

    def test_metrics_ride_along(self):
        payload = to_chrome_trace(self._recorder_with_spans())
        assert payload["repro_metrics"]["counters"]["kernel.delta_cycles"] == 12

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._recorder_with_spans(), path)
        loaded = json.loads(path.read_text())
        assert isinstance(loaded["traceEvents"], list)

    def test_empty_recorder_round_trips(self, tmp_path):
        path = tmp_path / "empty.json"
        write_chrome_trace(TelemetryRecorder(), path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["displayTimeUnit"] == "ms"
        spans = [e for e in loaded["traceEvents"] if e.get("ph") == "X"]
        assert spans == []

    def test_metadata_only_recorder_round_trips(self, tmp_path):
        # Metrics but no spans: the trace still loads and the metrics
        # payload survives intact.
        recorder = TelemetryRecorder()
        recorder.metrics.count("kernel.delta_cycles", 7)
        recorder.metrics.gauge_set("kernel.now_fs", 123.0)
        path = tmp_path / "meta.json"
        write_chrome_trace(recorder, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert all(e["ph"] != "X" for e in loaded["traceEvents"])
        assert loaded["repro_metrics"]["counters"]["kernel.delta_cycles"] == 7
        assert loaded["repro_metrics"]["gauges"]["kernel.now_fs"] == 123.0


class TestAggregation:
    def test_aggregate_groups_by_category_and_name(self):
        recorder = TelemetryRecorder()
        recorder.complete("bus", "opb", "a", 0, 10)
        recorder.complete("bus", "opb", "b", 0, 30)
        recorder.complete("rmi", "so.get", "a", 0, 5)
        groups = aggregate(recorder)
        assert groups["bus/opb"]["count"] == 2
        assert groups["bus/opb"]["total_fs"] == 40
        assert aggregate(recorder, "rmi") == {
            "rmi/so.get": {
                "category": "rmi", "name": "so.get", "count": 1, "total_fs": 5,
            }
        }

    def test_stage_shares_normalise(self):
        recorder = TelemetryRecorder()
        recorder.complete("stage", "arith", "t", 0, 75)
        recorder.complete("stage", "idwt", "t", 0, 25)
        recorder.complete("bus", "opb", "t", 0, 1000)  # ignored
        shares = stage_shares(recorder)
        assert shares == {"arith": 0.75, "idwt": 0.25}

    def test_stage_shares_empty_without_stage_spans(self):
        assert stage_shares(TelemetryRecorder()) == {}

    def test_flame_summary_mentions_widest_group(self):
        recorder = TelemetryRecorder()
        recorder.complete("bus", "opb", "a", 0, 10**12)
        recorder.complete("rmi", "so.get", "a", 0, 10**9)
        text = flame_summary(recorder)
        lines = text.splitlines()
        assert "bus/opb" in lines[2]  # widest first, after the two headers
        assert "rmi/so.get" in text


class TestSpanRepr:
    def test_repr_is_informative(self):
        span = Span("bus", "opb", "cpu0", 1, 2)
        assert "bus/opb" in repr(span)
