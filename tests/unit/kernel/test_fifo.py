"""Blocking FIFO channel behaviour."""

import pytest

from repro.kernel import Fifo, Simulator, ns


@pytest.fixture
def sim():
    return Simulator()


class TestNonBlocking:
    def test_try_put_and_get(self, sim):
        fifo = Fifo(sim, capacity=2)
        assert fifo.try_put(1)
        assert fifo.try_put(2)
        assert not fifo.try_put(3)  # full
        ok, item = fifo.try_get()
        assert ok and item == 1
        assert len(fifo) == 1

    def test_try_get_empty(self, sim):
        fifo = Fifo(sim, capacity=1)
        ok, item = fifo.try_get()
        assert not ok and item is None

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Fifo(sim, capacity=0)


class TestBlocking:
    def test_put_blocks_until_space(self, sim):
        fifo = Fifo(sim, capacity=1)
        events = []

        def producer():
            yield from fifo.put("a")
            events.append(("put-a", sim.now))
            yield from fifo.put("b")
            events.append(("put-b", sim.now))

        def consumer():
            yield ns(10)
            item = yield from fifo.get()
            events.append(("got", item, sim.now))

        sim.spawn(producer(), "prod")
        sim.spawn(consumer(), "cons")
        sim.run()
        assert events[0] == ("put-a", ns(0))
        assert events[1] == ("got", "a", ns(10))
        assert events[2] == ("put-b", ns(10))

    def test_get_blocks_until_data(self, sim):
        fifo = Fifo(sim, capacity=4)
        events = []

        def consumer():
            item = yield from fifo.get()
            events.append((item, sim.now))

        def producer():
            yield ns(7)
            yield from fifo.put(99)

        sim.spawn(consumer(), "cons")
        sim.spawn(producer(), "prod")
        sim.run()
        assert events == [(99, ns(7))]

    def test_order_preserved(self, sim):
        fifo = Fifo(sim, capacity=3)
        received = []

        def producer():
            for index in range(6):
                yield from fifo.put(index)

        def consumer():
            for _ in range(6):
                item = yield from fifo.get()
                received.append(item)
                yield ns(1)

        sim.spawn(producer(), "prod")
        sim.spawn(consumer(), "cons")
        sim.run()
        assert received == list(range(6))
