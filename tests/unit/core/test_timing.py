"""EET annotations and the cycle budget."""

import pytest

from repro.core import CycleBudget, eet
from repro.kernel import Simulator, ms, ns, us


@pytest.fixture
def sim():
    return Simulator()


class TestEet:
    def test_consumes_annotated_time(self, sim):
        marks = []

        def body():
            yield from eet(ms(180))
            marks.append(sim.now)

        sim.spawn(body(), "p")
        sim.run()
        assert marks == [ms(180)]

    def test_body_runs_functionally(self, sim):
        results = []

        def body():
            value = yield from eet(ns(10), lambda: 6 * 7)
            results.append(value)

        sim.spawn(body(), "p")
        sim.run()
        assert results == [42]


class TestCycleBudget:
    def test_cycle_period(self):
        budget = CycleBudget(100e6)
        assert budget.cycle == ns(10)

    def test_cycles_duration(self):
        budget = CycleBudget(100e6)
        assert budget.cycles(100) == us(1)
        assert budget.cycles(2.5) == ns(25)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            CycleBudget(0)
