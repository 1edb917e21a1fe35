"""Event notification semantics: immediate, delta, timed, cancellation."""

import pytest

from repro.kernel import Event, Simulator, SimTime, ns


@pytest.fixture
def sim():
    return Simulator()


def run_collecting(sim, body_fn):
    log = []
    sim.spawn(body_fn(log), "collector")
    sim.run()
    return log


class TestImmediateNotify:
    def test_wakes_in_same_evaluate_phase(self, sim):
        event = sim.event("e")
        log = []

        def waiter():
            yield event
            log.append(("woke", sim.now.femtoseconds, sim.delta_count))

        def notifier():
            yield ns(5)
            event.notify()

        sim.spawn(waiter(), "waiter")
        sim.spawn(notifier(), "notifier")
        sim.run()
        assert log == [("woke", ns(5).femtoseconds, pytest.approx(log[0][2]))]

    def test_no_waiters_is_harmless(self, sim):
        event = sim.event("e")
        event.notify()
        assert sim.run() == sim.now


class TestDeltaNotify:
    def test_wakes_in_next_delta_same_time(self, sim):
        event = sim.event("e")
        log = []

        def waiter():
            yield event
            log.append(sim.now)

        def notifier():
            event.notify(delta=True)
            yield ns(1)

        sim.spawn(waiter(), "waiter")
        sim.spawn(notifier(), "notifier")
        sim.run()
        assert log == [SimTime.from_fs(0)]

    def test_zero_delay_is_delta(self, sim):
        event = sim.event("e")
        woken = []

        def waiter():
            yield event
            woken.append(sim.now.femtoseconds)

        sim.spawn(waiter(), "w")
        event.notify(SimTime.from_fs(0))
        sim.run()
        assert woken == [0]

    def test_delta_and_delay_both_rejected(self, sim):
        event = sim.event("e")
        with pytest.raises(ValueError, match="not both"):
            event.notify(ns(1), delta=True)


class TestTimedNotify:
    def test_fires_at_offset(self, sim):
        event = sim.event("e")
        woken = []

        def waiter():
            yield event
            woken.append(sim.now)

        sim.spawn(waiter(), "w")
        event.notify(ns(7))
        sim.run()
        assert woken == [ns(7)]

    def test_earlier_notification_wins(self, sim):
        event = sim.event("e")
        woken = []

        def waiter():
            yield event
            woken.append(sim.now)

        sim.spawn(waiter(), "w")
        event.notify(ns(10))
        event.notify(ns(3))  # earlier: overrides
        sim.run()
        assert woken == [ns(3)]

    def test_later_notification_ignored(self, sim):
        event = sim.event("e")
        woken = []

        def waiter():
            yield event
            woken.append(sim.now)

        sim.spawn(waiter(), "w")
        event.notify(ns(3))
        event.notify(ns(10))  # later: ignored per SystemC rules
        sim.run()
        assert woken == [ns(3)]

    def test_immediate_overrides_pending_timed(self, sim):
        event = sim.event("e")
        woken = []

        def waiter():
            yield event
            woken.append(sim.now)

        def notifier():
            event.notify(ns(10))
            yield ns(2)
            event.notify()  # immediate at 2 ns

        sim.spawn(waiter(), "w")
        sim.spawn(notifier(), "n")
        sim.run()
        assert woken == [ns(2)]
