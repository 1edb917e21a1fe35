"""DDR memory controller front end and object sockets."""

import pytest

from repro.core import FunctionTask, SharedObject, osss_method
from repro.kernel import Simulator, ns, us
from repro.vta import DdrMemoryController, ObjectSocket, P2PChannel, RmiClient


@pytest.fixture
def sim():
    return Simulator()


CYCLE = ns(10)


class TestDdrController:
    def test_burst_cost(self, sim):
        ddr = DdrMemoryController(sim, CYCLE)
        handle = ddr.connect_master("cpu")
        finish = []

        def body():
            yield from ddr.read_burst(handle, 64)
            finish.append(sim.now)

        sim.spawn(body(), "cpu")
        sim.run()
        # 1 arbitration + 20 activate + 64 words
        assert finish == [ns((1 + 20 + 64) * 10)]

    def test_channels_serialise_fcfs(self, sim):
        ddr = DdrMemoryController(sim, CYCLE)
        order = []

        def master(name, delay):
            handle = ddr.connect_master(name)

            def body():
                yield delay
                yield from ddr.write_burst(handle, 16)
                order.append(name)

            return body

        sim.spawn(master("late", ns(5))(), "late")
        sim.spawn(master("early", ns(1))(), "early")
        sim.run()
        assert order == ["early", "late"]

    def test_activation_dominates_small_bursts(self, sim):
        ddr = DdrMemoryController(sim, CYCLE)
        small = ddr.transfer_time(1)
        large = ddr.transfer_time(256)
        # Per-word efficiency must improve dramatically with burst length.
        assert small.femtoseconds / 1 > 10 * large.femtoseconds / 256


class TestObjectSocket:
    class Echo:
        @osss_method()
        def echo(self, value):
            return value

    def test_blocking_execution_counts_served_calls(self, sim):
        so = SharedObject(sim, "so", self.Echo())
        socket = ObjectSocket(so)
        link = P2PChannel(sim, CYCLE)
        task = FunctionTask(sim, "t", lambda t: iter(()))
        port = task.port("p")
        port.bind(RmiClient(link, socket))
        finish = []

        def body():
            value = yield from port.call("echo", 5)
            finish.append((value, sim.now))

        sim.spawn(body(), "caller")
        sim.run()
        assert finish[0][0] == 5
        assert socket.served_calls == 1

    def test_socket_name_defaults_to_object(self, sim):
        so = SharedObject(sim, "store", self.Echo())
        assert ObjectSocket(so).name == "store.socket"

    def test_polled_execution_counts_served_calls(self, sim):
        so = SharedObject(sim, "so", self.Echo())
        socket = ObjectSocket(so)
        link = P2PChannel(sim, CYCLE)
        task = FunctionTask(sim, "t", lambda t: iter(()))
        port = task.port("p")
        port.bind(RmiClient(link, socket, poll_interval=us(1)))

        def body():
            yield from port.call("echo", 1)

        sim.spawn(body(), "caller")
        sim.run()
        assert socket.served_calls == 1


class TestPlb:
    def test_plb_faster_than_opb_for_bulk(self, sim):
        from repro.vta import OpbBus, PlbBus

        opb = OpbBus(sim, CYCLE, cycles_per_word=3.0)
        plb = PlbBus(sim, CYCLE)
        assert plb.transfer_time(256) * 4 < opb.transfer_time(256)
