"""Scheduler semantics: delta cycles, time limits, determinism."""

import pytest

from repro.kernel import SimulationError, Simulator, ns


@pytest.fixture
def sim():
    return Simulator()


class TestQuiescence:
    def test_empty_simulation_ends_at_zero(self, sim):
        assert sim.run().femtoseconds == 0

    def test_run_returns_final_time(self, sim):
        def body():
            yield ns(12)

        sim.spawn(body(), "p")
        assert sim.run() == ns(12)

    def test_waiting_process_without_notifier_ends_run(self, sim):
        event = sim.event("never")

        def body():
            yield event

        proc = sim.spawn(body(), "p")
        sim.run()
        assert not proc.finished  # parked forever; the run simply ends


class TestTimeLimit:
    def test_until_stops_at_limit(self, sim):
        marks = []

        def body():
            for _ in range(10):
                yield ns(10)
                marks.append(sim.now)

        sim.spawn(body(), "p")
        final = sim.run(until=ns(35))
        assert final == ns(35)
        assert marks == [ns(10), ns(20), ns(30)]

    def test_until_is_inclusive(self, sim):
        marks = []

        def body():
            yield ns(35)
            marks.append(sim.now)

        sim.spawn(body(), "p")
        sim.run(until=ns(35))
        assert marks == [ns(35)]

    def test_resume_after_limit(self, sim):
        marks = []

        def body():
            yield ns(100)
            marks.append(sim.now)

        sim.spawn(body(), "p")
        sim.run(until=ns(50))
        assert marks == []
        sim.run()
        assert marks == [ns(100)]


class TestDeltaCycles:
    def test_delta_count_advances_without_time(self, sim):
        event = sim.event("chain")
        hops = []

        def ping(remaining):
            for _ in range(remaining):
                event.notify(delta=True)
                hops.append(sim.delta_count)
                yield event

        sim.spawn(ping(5), "ping")
        sim.run()
        assert sim.now.femtoseconds == 0
        assert len(hops) == 5
        assert hops == sorted(hops)

    def test_two_processes_same_time_both_run(self, sim):
        order = []

        def make(name):
            def body():
                yield ns(5)
                order.append(name)

            return body

        sim.spawn(make("a")(), "a")
        sim.spawn(make("b")(), "b")
        sim.run()
        assert sorted(order) == ["a", "b"]

    def test_spawn_order_is_deterministic(self):
        def run_once():
            sim = Simulator()
            order = []

            def make(name):
                def body():
                    yield ns(1)
                    order.append(name)

                return body

            for name in "abcde":
                sim.spawn(make(name)(), name)
            sim.run()
            return order

        assert run_once() == run_once()


class TestQuietUntil:
    """The window in which only the running process can act."""

    def test_next_timed_entry_bounds_the_window(self, sim):
        seen = []

        def quiet():
            yield ns(5)
            seen.append(sim.quiet_until())

        def later():
            yield ns(40)

        sim.spawn(quiet(), "quiet")
        sim.spawn(later(), "later")
        sim.run()
        assert seen == [ns(40).femtoseconds]

    def test_another_runnable_process_closes_the_window(self, sim):
        seen = []

        def first():
            yield ns(5)
            seen.append(sim.quiet_until())

        def second():
            yield ns(5)

        sim.spawn(first(), "first")
        sim.spawn(second(), "second")
        sim.run()
        assert seen == [ns(5).femtoseconds]

    def test_pending_delta_notification_closes_the_window(self, sim):
        seen = []
        event = sim.event("e")

        def body():
            yield ns(5)
            event.notify(delta=True)
            seen.append(sim.quiet_until())

        sim.spawn(body(), "p")
        sim.run()
        assert seen == [ns(5).femtoseconds]

    def test_run_limit_bounds_the_window(self, sim):
        seen = []

        def body():
            yield ns(5)
            seen.append(sim.quiet_until())
            yield ns(100)
            seen.append(sim.quiet_until())

        sim.spawn(body(), "p")
        sim.run(until=ns(50))
        sim.run()
        assert seen == [ns(50).femtoseconds, None]


class TestReentrancy:
    def test_nested_run_rejected(self, sim):
        def body():
            sim.run()
            yield ns(1)

        sim.spawn(body(), "p")
        with pytest.raises(Exception):  # ProcessError wrapping SimulationError
            sim.run()
