"""Channel models: transfer timing, arbitration, contention, duplex."""

import pytest

from repro import telemetry
from repro.core import FunctionTask, SharedObject, StaticPriority, osss_method
from repro.core.serialisation import Serialisable
from repro.kernel import Simulator, ns
from repro.vta import (
    DdrMemoryController,
    ObjectSocket,
    OpbBus,
    OsssChannel,
    P2PChannel,
    RmiClient,
)


@pytest.fixture
def sim():
    return Simulator()


CYCLE = ns(10)


def bare_bus(sim, arbitration_cycles=0):
    """A static-priority medium with no set-up cost and one cycle per word."""
    return OsssChannel(sim, "bus", cycle=CYCLE,
                       arbitration_cycles=arbitration_cycles, setup_cycles=0,
                       cycles_per_word=1.0, policy=StaticPriority())


class TestTransferTime:
    def test_opb_single_transfer_cost(self, sim):
        bus = OpbBus(sim, CYCLE, cycles_per_word=3.0)
        # 1 setup + 3 x 4 words = 13 cycles
        assert bus.transfer_time(4) == ns(130)

    def test_opb_burst_amortises_when_enabled(self, sim):
        bus = OpbBus(sim, CYCLE, cycles_per_word=3.0)
        bus.burst_threshold_words = 8
        assert bus.transfer_time(16) == ns((1 + 16) * 10)

    def test_opb_bursts_disabled_by_default(self, sim):
        bus = OpbBus(sim, CYCLE, cycles_per_word=3.0)
        assert bus.transfer_time(100) == ns((1 + 300) * 10)

    def test_p2p_streams_one_word_per_cycle(self, sim):
        link = P2PChannel(sim, CYCLE)
        assert link.transfer_time(64) == ns((1 + 64) * 10)

    def test_ddr_activation_plus_stream(self, sim):
        ddr = DdrMemoryController(sim, CYCLE)
        assert ddr.transfer_time(32) == ns((20 + 32) * 10)


class TestOccupancyAndContention:
    def test_two_masters_serialise_on_bus(self, sim):
        bus = bare_bus(sim)
        finish = {}

        def master(name):
            handle = bus.connect_master(name)

            def body():
                yield from bus.transport(handle, 10)
                finish[name] = sim.now

            return body

        sim.spawn(master("m0")(), "m0")
        sim.spawn(master("m1")(), "m1")
        sim.run()
        assert sorted(finish.values()) == [ns(100), ns(200)]

    def test_priority_master_granted_first(self, sim):
        bus = bare_bus(sim)
        finish = {}
        low = bus.connect_master("low", priority=5)
        high = bus.connect_master("high", priority=0)

        def body(name, handle):
            yield from bus.transport(handle, 10)
            finish[name] = sim.now

        sim.spawn(body("low", low), "low")
        sim.spawn(body("high", high), "high")
        sim.run()
        assert finish["high"] < finish["low"]

    def test_arbitration_cycles_charged_per_transaction(self, sim):
        bus = bare_bus(sim, arbitration_cycles=2)
        handle = bus.connect_master("m")
        finish = []

        def body():
            yield from bus.transport(handle, 5)
            finish.append(sim.now)

        sim.spawn(body(), "m")
        sim.run()
        assert finish == [ns((2 + 5) * 10)]

    def test_full_duplex_transfers_overlap(self, sim):
        link = P2PChannel(sim, CYCLE)
        finish = {}
        handle = link.connect_master("end")

        def direction(name):
            def body():
                yield from link.transport(handle, 100)
                finish[name] = sim.now

            return body

        sim.spawn(direction("tx")(), "tx")
        sim.spawn(direction("rx")(), "rx")
        sim.run()
        # Both directions complete simultaneously: no mutual exclusion.
        assert finish["tx"] == finish["rx"] == ns((1 + 100) * 10)

    def test_p2p_rejects_second_master(self, sim):
        link = P2PChannel(sim, CYCLE)
        link.connect_master("a")
        with pytest.raises(RuntimeError, match="at most 1"):
            link.connect_master("b")


class TestStatistics:
    def test_words_and_transactions_counted(self, sim):
        bus = OpbBus(sim, CYCLE)
        handle = bus.connect_master("m")

        def body():
            yield from bus.transport(handle, 8)
            yield from bus.transport(handle, 4)

        sim.spawn(body(), "m")
        sim.run()
        assert bus.stats.transactions == 2
        assert bus.stats.words == 12

    def test_wait_time_recorded_under_contention(self, sim):
        bus = bare_bus(sim)
        handles = [bus.connect_master(f"m{i}") for i in range(2)]

        def body(handle):
            yield from bus.transport(handle, 10)

        for index, handle in enumerate(handles):
            sim.spawn(body(handle), f"m{index}")
        sim.run()
        assert bus.stats.wait_fs == ns(100).femtoseconds

    def test_stats_as_dict(self, sim):
        bus = bare_bus(sim)
        handles = [bus.connect_master(f"m{i}") for i in range(2)]

        def master(handle):
            yield from bus.transport(handle, 10)

        for index, handle in enumerate(handles):
            sim.spawn(master(handle), f"m{index}")
        sim.run()
        # Two serialised 100 ns transfers; the loser waits 100 ns.
        assert bus.stats.as_dict() == {
            "transactions": 2,
            "words": 20,
            "busy_fs": ns(200).femtoseconds,
            "wait_fs": ns(100).femtoseconds,
        }

    def test_negative_word_count_rejected(self, sim):
        bus = OpbBus(sim, CYCLE)
        handle = bus.connect_master("m")

        def body():
            yield from bus.transport(handle, -1)

        sim.spawn(body(), "m")
        with pytest.raises(Exception, match="non-negative"):
            sim.run()

    @pytest.mark.parametrize("chunk_words", [0, -4])
    def test_non_positive_chunk_rejected(self, sim, chunk_words):
        bus = OpbBus(sim, CYCLE)
        handle = bus.connect_master("m")

        def body():
            yield from bus.transport(handle, 10, chunk_words)

        sim.spawn(body(), "m")
        with pytest.raises(Exception, match="chunk size must be positive"):
            sim.run()


class TestBurstFastForwardEquivalence:
    """Fast-mode burst fast-forwarding must reproduce the reference arbiter.

    Runs the same traffic pattern under both scheduler modes and compares
    every observable: per-master completion times, wait/busy statistics,
    transaction and word counts.
    """

    @staticmethod
    def _run_traffic(fast, priorities=(0, 0, 0), starts=(0, 0, 50),
                     words=(10, 4, 7), policy=None):
        sim = Simulator(fast=fast)
        bus = OsssChannel(sim, "opb", cycle=CYCLE, arbitration_cycles=2,
                          setup_cycles=1, cycles_per_word=2.0,
                          policy=policy or StaticPriority())
        finish = {}

        def master(name, priority, start_ns, count):
            handle = bus.connect_master(name, priority)

            def body():
                if start_ns:
                    yield ns(start_ns)
                yield from bus.transport(handle, count)
                yield ns(5)  # idle gap, then a second burst
                yield from bus.transport(handle, count)
                finish[name] = sim.now.femtoseconds

            return body

        for index, (priority, start, count) in enumerate(zip(priorities, starts, words)):
            sim.spawn(master(f"m{index}", priority, start, count)(), f"m{index}")
        sim.run()
        stats = bus.stats
        return finish, stats.transactions, stats.words, stats.busy_fs, stats.wait_fs

    def test_contended_traffic_matches_reference(self):
        assert self._run_traffic(fast=True) == self._run_traffic(fast=False)

    def test_priority_contention_matches_reference(self):
        kwargs = dict(priorities=(2, 1, 0), starts=(0, 0, 0),
                      policy=StaticPriority())
        assert (
            self._run_traffic(fast=True, **kwargs)
            == self._run_traffic(fast=False, **kwargs)
        )

    def test_uncontended_single_master_matches_reference(self):
        kwargs = dict(priorities=(0,), starts=(0,), words=(13,))
        assert (
            self._run_traffic(fast=True, **kwargs)
            == self._run_traffic(fast=False, **kwargs)
        )

    @staticmethod
    def _run_chunked_rmi(fast):
        """Two 30-word echo calls over a full-duplex P2P link in 8-word
        chunks; returns the observables and the summed bus spans."""
        with telemetry.session(spans=True) as run:
            sim = Simulator(fast=fast)
            link = P2PChannel(sim, CYCLE)
            so = SharedObject(sim, "so", _Echo())
            client = RmiClient(link, ObjectSocket(so), chunk_words=8)
            task = FunctionTask(sim, "caller", lambda t: iter(()))
            port = task.port("p")
            port.bind(client)
            finish = []

            def body():
                for _ in range(2):
                    yield from port.call("echo", _Words(30))
                    finish.append(sim.now.femtoseconds)

            sim.spawn(body(), "c")
            sim.run()
        stats = link.stats
        observed = (finish, stats.transactions, stats.words, stats.busy_fs,
                    stats.wait_fs)
        return observed, run.recorder.busy_fs("bus", link.name)

    def test_chunked_full_duplex_rmi_matches_reference(self):
        fast, fast_spans_fs = self._run_chunked_rmi(fast=True)
        reference, reference_spans_fs = self._run_chunked_rmi(fast=False)
        assert fast == reference
        _, transactions, words, busy_fs, _ = fast
        # 31 words each way per call: 4 chunks (8+8+8+7), 2 calls, 2 ways.
        assert (transactions, words) == (16, 124)
        assert fast_spans_fs == reference_spans_fs == busy_fs


class _Words(Serialisable):
    def __init__(self, words):
        self.words = words

    def payload_bits(self):
        return self.words * 32


class _Echo:
    @osss_method()
    def echo(self, payload):
        return payload
