"""Fast-substrate primitives and scheduler double-enqueue regressions.

Everything here runs against both scheduler modes: the fast substrate
must agree with the reference scheduler on observable behaviour, and the
reference scheduler itself must never run a process twice in one delta.
"""

import pytest

from repro.kernel import (
    AnyOf,
    SimProfiler,
    SimTime,
    Simulator,
    Timeout,
    default_fast,
    ns,
    set_default_fast,
)


@pytest.fixture(params=[False, True], ids=["reference", "fast"])
def sim(request):
    return Simulator(fast=request.param)


class TestDoubleEnqueue:
    def test_two_events_same_delta_run_once(self, sim):
        """A process notified by two events in one delta steps exactly once."""
        first, second = sim.event("first"), sim.event("second")
        runs = []

        def waiter():
            yield AnyOf(first, second)
            runs.append(sim.delta_count)
            yield AnyOf(first, second)
            runs.append(sim.delta_count)

        def notifier():
            first.notify(delta=True)
            second.notify(delta=True)
            yield ns(1)

        sim.spawn(waiter(), "waiter")
        sim.spawn(notifier(), "notifier")
        sim.run()
        # One wake from the double notification; the second wait parks
        # forever (nobody notifies again), so exactly one run is recorded.
        assert len(runs) == 1

    def test_duplicate_event_in_anyof_runs_once(self, sim):
        event = sim.event("dup")
        runs = []

        def waiter():
            yield AnyOf(event, event)
            runs.append(sim.now.femtoseconds)

        sim.spawn(waiter(), "waiter")
        event.notify(SimTime.from_fs(5))
        sim.run()
        assert runs == [5]

    def test_immediate_and_delta_notification_same_delta(self, sim):
        """An event notified twice within one delta wakes the waiter once."""
        event = sim.event("twice")
        runs = []

        def waiter():
            yield event
            runs.append(True)

        def notifier():
            event.notify(delta=True)
            event.notify(delta=True)
            yield ns(1)

        sim.spawn(waiter(), "waiter")
        sim.spawn(notifier(), "notifier")
        sim.run()
        assert runs == [True]


class TestTimeout:
    def test_event_wins_when_notified_first(self, sim):
        event = sim.event("grant")
        observed = []

        def waiter():
            yield Timeout(event, ns(100))
            observed.append(sim.now)

        sim.spawn(waiter(), "waiter")
        event.notify(ns(10))
        sim.run()
        assert observed == [ns(10)]

    def test_timer_wins_when_event_never_fires(self, sim):
        event = sim.event("never")
        observed = []

        def waiter():
            yield Timeout(event, ns(100))
            observed.append(sim.now)

        sim.spawn(waiter(), "waiter")
        sim.run()
        assert observed == [ns(100)]
        assert not event._waiting  # expiry dropped the subscription

    def test_timer_expiry_then_late_notify_does_not_rewake(self, sim):
        event = sim.event("late")
        observed = []

        def waiter():
            yield Timeout(event, ns(5))
            observed.append(sim.now)
            yield ns(100)

        sim.spawn(waiter(), "waiter")
        event.notify(ns(50))  # after the timeout expired
        sim.run()
        assert observed == [ns(5)]

    def test_zero_delay_wakes_next_delta(self, sim):
        event = sim.event("never")
        observed = []

        def waiter():
            yield Timeout(event, SimTime.from_fs(0))
            observed.append(sim.now.femtoseconds)

        sim.spawn(waiter(), "waiter")
        sim.run()
        assert observed == [0]


class TestDefaultFastSwitch:
    def test_set_default_fast_returns_previous(self):
        previous = set_default_fast(False)
        try:
            assert default_fast() is False
            assert Simulator().fast is False
            assert set_default_fast(True) is False
            assert Simulator().fast is True
        finally:
            set_default_fast(previous)

    def test_explicit_flag_overrides_default(self):
        previous = set_default_fast(True)
        try:
            assert Simulator(fast=False).fast is False
            assert Simulator(fast=True).fast is True
        finally:
            set_default_fast(previous)


class TestSimProfiler:
    def test_profiler_counts_steps_per_process(self, sim):
        profiler = SimProfiler(sim)

        def worker():
            for _ in range(3):
                yield ns(1)

        sim.spawn(worker(), "worker")
        sim.run()
        stats = profiler.as_dict()
        by_name = {entry["name"]: entry for entry in stats["processes"]}
        # 3 waits + the final StopIteration step.
        assert by_name["worker"]["steps"] == 4
        assert stats["total_steps"] == profiler.total_steps
        assert profiler.total_seconds >= 0.0

    def test_detach_stops_recording(self, sim):
        profiler = SimProfiler(sim)
        profiler.detach()

        def worker():
            yield ns(1)

        sim.spawn(worker(), "worker")
        sim.run()
        assert profiler.total_steps == 0

    def test_report_renders_table(self, sim):
        profiler = SimProfiler(sim)

        def worker():
            yield ns(1)

        sim.spawn(worker(), "worker")
        sim.run()
        assert "worker" in profiler.report()

