"""Process semantics: waits, composition, termination, failure."""

import pytest

from repro.kernel import (
    AnyOf,
    ProcessError,
    ProcessState,
    Simulator,
    join,
    ns,
)


@pytest.fixture
def sim():
    return Simulator()


class TestWaits:
    def test_timed_wait_advances_clock(self, sim):
        marks = []

        def body():
            yield ns(3)
            marks.append(sim.now)
            yield ns(4)
            marks.append(sim.now)

        sim.spawn(body(), "p")
        sim.run()
        assert marks == [ns(3), ns(7)]

    def test_any_of_first_event_wins(self, sim):
        e1, e2 = sim.event("e1"), sim.event("e2")
        woken = []

        def waiter():
            yield AnyOf(e1, e2)
            woken.append(sim.now)

        sim.spawn(waiter(), "w")
        e2.notify(ns(2))
        e1.notify(ns(9))
        sim.run()
        assert woken == [ns(2)]

    def test_any_of_does_not_double_wake(self, sim):
        e1, e2 = sim.event("e1"), sim.event("e2")
        wakes = []

        def waiter():
            yield AnyOf(e1, e2)
            wakes.append("first")
            yield ns(100)

        sim.spawn(waiter(), "w")
        e1.notify(ns(1))
        e2.notify(ns(2))  # second event fires while process sleeps
        sim.run()
        assert wakes == ["first"]

    def test_empty_anyof_rejected(self):
        with pytest.raises(ValueError):
            AnyOf()

    def test_invalid_yield_raises(self, sim):
        def body():
            yield "nonsense"

        sim.spawn(body(), "bad")
        with pytest.raises(ProcessError, match="expected a SimTime"):
            sim.run()


class TestYieldFromComposition:
    def test_subroutine_composes(self, sim):
        marks = []

        def sub():
            yield ns(5)
            return "sub-result"

        def body():
            result = yield from sub()
            marks.append((result, sim.now))

        sim.spawn(body(), "p")
        sim.run()
        assert marks == [("sub-result", ns(5))]


class TestTermination:
    def test_result_captured(self, sim):
        def body():
            yield ns(1)
            return 42

        proc = sim.spawn(body(), "p")
        sim.run()
        assert proc.state is ProcessState.FINISHED
        assert proc.result == 42

    def test_done_event_fires(self, sim):
        def worker():
            yield ns(5)

        marks = []
        proc = sim.spawn(worker(), "w")

        def watcher():
            yield proc.done_event
            marks.append(sim.now)

        sim.spawn(watcher(), "watch")
        sim.run()
        assert marks == [ns(5)]

    def test_join_waits_for_all(self, sim):
        def worker(duration):
            yield duration

        procs = [sim.spawn(worker(ns(t)), f"w{t}") for t in (3, 9, 5)]
        marks = []

        def joiner():
            yield from join(procs)
            marks.append(sim.now)

        sim.spawn(joiner(), "join")
        sim.run()
        assert marks == [ns(9)]

    def test_join_with_already_finished(self, sim):
        def quick():
            return 1
            yield  # pragma: no cover

        proc = sim.spawn(quick(), "q")
        sim.run()
        marks = []

        def joiner():
            yield from join([proc])
            marks.append(True)

        sim.spawn(joiner(), "join")
        sim.run()
        assert marks == [True]

class TestFailure:
    def test_exception_aborts_run(self, sim):
        def body():
            yield ns(1)
            raise RuntimeError("boom")

        sim.spawn(body(), "p")
        with pytest.raises(ProcessError, match="boom"):
            sim.run()

    def test_failure_records_cause(self, sim):
        def body():
            raise ValueError("bad value")
            yield  # pragma: no cover

        proc = sim.spawn(body(), "p")
        with pytest.raises(ProcessError):
            sim.run()
        assert isinstance(proc.exception, ValueError)
        assert proc.state is ProcessState.FAILED

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError, match="generator"):
            sim.spawn(lambda: None, "notgen")
