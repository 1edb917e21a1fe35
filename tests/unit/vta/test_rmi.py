"""RMI transactors: transfer accounting, chunking, grant polling."""

import random

import pytest

from repro import telemetry
from repro.casestudy.workload import paper_workload
from repro.core import (
    FunctionTask,
    RoundRobin,
    SharedObject,
    StaticPriority,
    guarded,
    osss_method,
)
from repro.core.serialisation import Serialisable
from repro.design import catalog, elaborate_design
from repro.kernel import Simulator, ns, us
from repro.vta import ObjectSocket, OsssChannel, P2PChannel, RmiClient


@pytest.fixture
def sim():
    return Simulator()


CYCLE = ns(10)


def bare_bus(sim):
    """A static-priority medium with no arbitration or set-up cost and
    one cycle per word."""
    return OsssChannel(sim, "bus", cycle=CYCLE, arbitration_cycles=0,
                       setup_cycles=0, cycles_per_word=1.0,
                       policy=StaticPriority())


def opb_with(sim, policy):
    """The OPB's timing under another arbitration *policy*."""
    return OsssChannel(sim, "opb", cycle=CYCLE, arbitration_cycles=2,
                       setup_cycles=1, cycles_per_word=2.0,
                       policy=policy or StaticPriority())


class BigPayload(Serialisable):
    def __init__(self, words):
        self.words = words

    def payload_bits(self):
        return self.words * 32


class Echo:
    @osss_method()
    def echo(self, payload):
        return payload

    @osss_method()
    def ping(self):
        return "pong"


def build(sim, channel, behaviour=None, **rmi_kwargs):
    so = SharedObject(sim, "so", behaviour or Echo())
    socket = ObjectSocket(so)
    client = RmiClient(channel, socket, **rmi_kwargs)
    task = FunctionTask(sim, "caller", lambda t: iter(()))
    port = task.port("p")
    port.bind(client)
    return so, socket, client, port


class TestTransferAccounting:
    def test_call_time_includes_both_directions(self, sim):
        bus = bare_bus(sim)
        _, _, client, port = build(sim, bus)
        finish = []

        def body():
            result = yield from port.call("ping")
            finish.append((result, sim.now))

        sim.spawn(body(), "c")
        sim.run()
        # request: header 1 word; response: header + "pong" (4 bytes) = 2.
        assert finish == [("pong", ns(30))]
        assert client.calls == 1
        assert client.words_sent == 1
        assert client.words_received == 2

    def test_payload_size_drives_duration(self, sim):
        bus = bare_bus(sim)
        _, _, _, port = build(sim, bus)
        finish = []

        def body():
            yield from port.call("echo", BigPayload(100))
            finish.append(sim.now)

        sim.spawn(body(), "c")
        sim.run()
        # request: 1 + 100; response: 1 + 100 -> 202 words at 1 cycle each
        assert finish == [ns(2020)]


class TestChunking:
    def test_large_transfer_split_into_transactions(self, sim):
        bus = bare_bus(sim)
        _, _, _, port = build(sim, bus, chunk_words=32)

        def body():
            yield from port.call("echo", BigPayload(100))

        sim.spawn(body(), "c")
        sim.run()
        # 101 request words -> 4 chunks; 101 response words -> 4 chunks.
        assert bus.stats.transactions == 8
        assert bus.stats.words == 202

    def test_chunking_lets_other_master_interleave(self, sim):
        bus = bare_bus(sim)
        _, _, _, port = build(sim, bus, chunk_words=16)
        other = bus.connect_master("other")
        other_done = []

        def bulk():
            yield from port.call("echo", BigPayload(200))

        def small():
            yield ns(5)  # arrive mid-bulk
            yield from bus.transport(other, 4)
            other_done.append(sim.now)

        sim.spawn(bulk(), "bulk")
        sim.spawn(small(), "small")
        sim.run()
        # Without chunking the small transfer would wait ~2000 ns; with
        # 16-word chunks it slots in after the first chunk.
        assert other_done[0] < ns(500)


class TestPolling:
    class Gate:
        def __init__(self):
            self.open = False

        @osss_method()
        def unlock(self):
            self.open = True

        @osss_method(guard=guarded(lambda self: self.open))
        def enter(self):
            return "entered"

    def test_blocked_call_polls_the_bus(self, sim):
        bus = bare_bus(sim)
        gate = self.Gate()
        so = SharedObject(sim, "gate", gate)
        socket = ObjectSocket(so)
        waiter_client = RmiClient(bus, socket, poll_interval=us(1))
        opener_client = RmiClient(bus, socket)
        results = []

        def waiter(task):
            value = yield from task.p.call("enter")
            results.append((value, sim.now))

        def opener(task):
            yield us(20)
            yield from task.p.call("unlock")

        wait_task = FunctionTask(sim, "waiter", waiter)
        port = wait_task.port("p")
        port.bind(waiter_client)
        wait_task.p = port
        open_task = FunctionTask(sim, "opener", opener)
        port = open_task.port("p")
        port.bind(opener_client)
        open_task.p = port
        wait_task.start()
        open_task.start()
        sim.run()
        assert results and results[0][0] == "entered"
        assert waiter_client.polls > 0  # status reads happened on the bus

    def test_fast_grant_avoids_polling(self, sim):
        bus = bare_bus(sim)
        _, _, client, port = build(sim, bus, poll_interval=us(1))

        def body():
            yield from port.call("ping")

        sim.spawn(body(), "c")
        sim.run()
        assert client.polls == 0

    def test_backoff_limits_poll_count(self, sim):
        bus = bare_bus(sim)
        gate = self.Gate()
        so = SharedObject(sim, "gate", gate)
        socket = ObjectSocket(so)
        client = RmiClient(bus, socket, poll_interval=us(1))
        task = FunctionTask(sim, "w", lambda t: iter(()))
        port = task.port("p")
        port.bind(client)

        def waiter():
            yield from port.call("enter")

        def opener():
            yield us(5000)  # a long wait: backoff must kick in
            gate.open = True
            so._state_changed.notify(delta=True)

        sim.spawn(waiter(), "w")
        sim.spawn(opener(), "o")
        sim.run()
        # Without backoff ~5000 polls; with doubling up to 64x far fewer.
        assert client.polls < 150


class TestPollFastForwardEquivalence:
    """Fast-forwarded status polls must reproduce the reference scheduler.

    The fast substrate settles every poll that provably runs alone in one
    step; ``Simulator(fast=False)`` runs each one as a real transaction
    through the arbiter process.  Every observable must agree: call
    timestamps, channel statistics, poll counts, the ``rmi.polls``
    counter and the bus spans.
    """

    @staticmethod
    def _run(fast, waiters=1, opener_ns=300_000, dma_gaps_ns=(),
             policy=None, until_ns=None):
        with telemetry.session(spans=True) as run:
            sim = Simulator(fast=fast)
            bus = opb_with(sim, policy)
            so = SharedObject(sim, "gate", TestPolling.Gate())
            socket = ObjectSocket(so)
            calls = []

            def bind(name, body, **rmi_kwargs):
                client = RmiClient(bus, socket, name=f"rmi_{name}", **rmi_kwargs)
                task = FunctionTask(sim, name, body)
                task.p = task.port("p")
                task.p.bind(client)
                task.start()
                return client

            def waiter(task):
                value = yield from task.p.call("enter")
                calls.append((task.name, value, sim.now.femtoseconds))

            def opener(task):
                yield ns(opener_ns)
                yield from task.p.call("unlock")
                calls.append((task.name, None, sim.now.femtoseconds))

            clients = [
                bind(f"w{index}", waiter, poll_interval=ns(200 + 130 * index))
                for index in range(waiters)
            ]
            master = bus.connect_master("dma", priority=1)
            bind("opener", opener)

            def dma():
                for gap_ns in dma_gaps_ns:
                    yield ns(gap_ns)
                    yield from bus.transport(master, 5)
                    calls.append(("dma", None, sim.now.femtoseconds))

            sim.spawn(dma(), "dma")
            snapshots = []
            if until_ns is not None:
                sim.run(until=ns(until_ns))
                snapshots.append((sim.now.femtoseconds, bus.stats.as_dict(),
                                  [client.polls for client in clients]))
            sim.run()
        recorder = run.recorder
        bus_spans = sorted(
            (span.begin_fs, span.end_fs, span.track, span.attrs["words"])
            for span in recorder.category_spans("bus")
        )
        return (
            sorted(calls),
            snapshots,
            bus.stats.as_dict(),
            [client.polls for client in clients],
            recorder.metrics.counter("rmi.polls"),
            recorder.busy_fs("bus", bus.name),
            bus_spans,
        )

    def _assert_equivalent(self, **scenario):
        fast = self._run(fast=True, **scenario)
        assert fast == self._run(fast=False, **scenario)
        assert sum(fast[3]) > 10  # the scenario really polls

    def test_timed_opener_releases_one_blocked_client(self):
        self._assert_equivalent()

    def test_two_polling_clients_stop_at_each_others_timers(self):
        self._assert_equivalent(waiters=2)

    def test_third_master_transacts_mid_window(self):
        self._assert_equivalent(
            waiters=2, dma_gaps_ns=(1_000, 4_555, 35_000, 5, 250_000),
        )

    def test_run_limit_inside_a_window_then_resume(self):
        self._assert_equivalent(waiters=2, until_ns=37_001)
        self._assert_equivalent(until_ns=150_000)

    @pytest.mark.parametrize("policy", [StaticPriority, RoundRobin])
    def test_opb_policies(self, policy):
        # The DMA's second request (1.13 us + 298.87 us) collides with the
        # opener's at 300 us; round robin then ranks them from the last
        # client served, which the settled polls must have set.
        self._assert_equivalent(
            waiters=2, dma_gaps_ns=(1_000, 298_870), policy=policy(),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_dma_traffic(self, seed):
        # Cycle-aligned gaps make DMA requests coincide with poll issues
        # and completions.
        rng = random.Random(seed)
        self._assert_equivalent(
            waiters=2,
            dma_gaps_ns=[10 * rng.randrange(1, 1_500) for _ in range(40)],
            policy=rng.choice([None, StaticPriority(), RoundRobin()]),
        )

    def test_fast_forward_engages_on_the_6a_cell(self):
        # 127,569 delta cycles when every poll wakes its client twice.
        model = elaborate_design(catalog.get("6a"), paper_workload(True))
        model.run()
        assert model.detail_stats()["polls"] == 46_235
        assert model.sim.delta_count < 60_000


class TestSeamlessness:
    def test_same_code_runs_bound_directly_or_via_rmi(self, sim):
        """The refinement invariant: behaviour code identical either way."""

        def body(task):
            result = yield from task.p.call("ping")
            task.result_value = result

        # Application Layer: direct binding.
        so_direct = SharedObject(sim, "so_direct", Echo())
        direct = FunctionTask(sim, "direct", body)
        port = direct.port("p")
        port.bind(so_direct)
        direct.p = port
        # VTA: via RMI over a P2P channel.
        link = P2PChannel(sim, CYCLE)
        so_remote = SharedObject(sim, "so_remote", Echo())
        remote = FunctionTask(sim, "remote", body)
        port = remote.port("p")
        port.bind(RmiClient(link, ObjectSocket(so_remote)))
        remote.p = port
        direct.start()
        remote.start()
        sim.run()
        assert direct.result_value == remote.result_value == "pong"
