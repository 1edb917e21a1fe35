"""Cross-layer telemetry: hooks, value invariance, and the 7a trace.

The contract under test: telemetry must *observe* the simulation without
perturbing it — every reported millisecond is identical with the recorder
installed or not, a disabled run records nothing anywhere, and the bus
spans in an exported trace account for exactly the femtoseconds the
channel statistics counted.
"""

import json

import pytest

from repro import telemetry
from repro.casestudy.explorer import run_version
from repro.casestudy.workload import paper_workload
from repro.design import catalog, elaborate_design
from repro.kernel import Simulator, ns, set_default_fast
from repro.telemetry import TelemetryRecorder, to_chrome_trace


def _run_recorded(version, lossless=True):
    """Run one version under a fresh recorder; returns (report, recorder, model)."""
    with telemetry.session(spans=True) as run:
        model = elaborate_design(catalog.get(version), paper_workload(lossless))
        report = model.run()
    return report, run.recorder, model


@pytest.fixture(scope="module")
def traced_7a():
    return _run_recorded("7a")


class TestKernelHooks:
    def test_scheduler_counters_match_kernel_state(self):
        with telemetry.session(spans=True) as run:
            sim = Simulator()

            def body():
                for _ in range(5):
                    yield ns(1)

            sim.spawn(body(), "p")
            sim.run()
        counters = run.recorder.metrics.as_dict()["counters"]
        assert counters["kernel.delta_cycles"] == sim.delta_count
        assert counters["kernel.process_steps"] >= 5
        assert counters["kernel.timer_pops"] >= 5

    def test_disabled_run_records_nothing(self):
        with telemetry.session(spans=True) as run:
            pass
        recorder = run.recorder
        before = recorder.metrics.as_dict()
        sim = Simulator()
        assert sim.telemetry is None

        def body():
            yield ns(1)

        sim.spawn(body(), "p")
        sim.run()
        # Identity check: the registry never saw the simulation.
        assert recorder.metrics.as_dict() == before
        assert len(recorder.metrics) == 0
        assert recorder.spans == []


class TestSharedObjectHooks:
    def test_grant_wait_and_guard_metrics(self):
        report, recorder, _model = _run_recorded("6a")
        counters = recorder.metrics.as_dict()["counters"]
        histograms = recorder.metrics.as_dict()["histograms"]
        # Bus-attached clients poll closed guards, so both show up.
        assert counters["so.guard_blocked"] > 0
        assert counters["rmi.polls"] > 0
        assert histograms["so.grant_wait_fs"]["count"] > 0
        so_spans = recorder.category_spans("so")
        assert so_spans, "no Shared Object execution spans recorded"
        assert all(span.duration_fs >= 0 for span in so_spans)


class TestStageSpans:
    def test_version1_records_all_five_stages(self):
        report, recorder, _model = _run_recorded("1")
        names = {span.name for span in recorder.category_spans("stage")}
        assert names == {"arith", "iq", "idwt", "ict", "dc"}
        # Fig. 1: entropy decoding dominates the pure-software decoder.
        from repro.telemetry import stage_shares

        shares = stage_shares(recorder)
        assert shares["arith"] > 0.5
        assert sum(shares.values()) == pytest.approx(1.0)


class TestValueInvariance:
    @pytest.mark.parametrize("version", ["3", "6a"])
    def test_reported_values_identical_with_telemetry(self, version):
        workload = paper_workload(True)
        bare = run_version(version, True, workload)
        recorded, _, _ = _run_recorded(version)
        assert recorded.decode_ms == bare.decode_ms
        assert recorded.idwt_ms == bare.idwt_ms

    def test_span_totals_substrate_invariant(self):
        previous = set_default_fast(False)
        try:
            _, reference, _ = _run_recorded("6b")
        finally:
            set_default_fast(previous)
        _, fast, _ = _run_recorded("6b")
        for category in ("bus", "rmi", "so", "stage"):
            assert fast.busy_fs(category) == reference.busy_fs(category)


class TestTrace7a:
    """Acceptance: the 7a trace is valid and accounts for every bus fs."""

    def test_bus_spans_sum_to_channel_stats(self, traced_7a):
        _report, recorder, model = traced_7a
        stats = model.detail_stats()
        assert recorder.busy_fs("bus", "opb") == stats["opb"].busy_fs
        assert recorder.busy_fs("bus", "ddr") == stats["ddr"].busy_fs

    def test_rmi_spans_cover_their_bus_time(self, traced_7a):
        _report, recorder, _model = traced_7a
        rmi_spans = recorder.category_spans("rmi")
        assert rmi_spans
        for span in rmi_spans:
            assert span.attrs["words_sent"] > 0
            assert span.attrs["words_received"] > 0

    def test_chrome_trace_structurally_valid(self, traced_7a, tmp_path):
        _report, recorder, model = traced_7a
        payload = json.loads(json.dumps(to_chrome_trace(recorder, label="7a")))
        events = payload["traceEvents"]
        span_events = [e for e in events if e["ph"] == "X"]
        meta_events = [e for e in events if e["ph"] == "M"]
        assert len(span_events) == len(recorder.spans)
        tids = {e["tid"] for e in meta_events if e["name"] == "thread_name"}
        for event in span_events:
            assert event["tid"] in tids
            assert event["ts"] >= 0
            assert event["dur"] >= 0
        # The exported bus events carry the same total busy time as the
        # channel statistics, in trace units (us).
        opb_dur = sum(
            e["dur"] for e in span_events
            if e.get("cat") == "bus" and e["name"] == "opb"
        )
        assert opb_dur == pytest.approx(
            model.detail_stats()["opb"].busy_fs / 1e9
        )
