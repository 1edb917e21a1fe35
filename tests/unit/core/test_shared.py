"""Shared Object semantics: blocking, exclusion, guards, arbitration."""

import pytest

from repro.core import (
    Fcfs,
    FunctionTask,
    SharedObject,
    StaticPriority,
    guarded,
    guarded_args,
    osss_method,
)
from repro.kernel import Simulator, ns, us


@pytest.fixture
def sim():
    return Simulator()


class Counter:
    def __init__(self):
        self.value = 0
        self.trace = []

    @osss_method(eet=ns(10))
    def bump(self, amount=1):
        self.value += amount
        self.trace.append(self.value)
        return self.value

    @osss_method()
    def read(self):
        return self.value


def make_task(sim, so, name, body):
    task = FunctionTask(sim, name, body)
    port = task.port("p")
    port.bind(so)
    task.p = port
    return task


class TestBlockingCalls:
    def test_call_returns_result_after_eet(self, sim):
        so = SharedObject(sim, "cnt", Counter())
        results = []

        def body(task):
            value = yield from task.p.call("bump", 5)
            results.append((value, sim.now))

        make_task(sim, so, "t", body).start()
        sim.run()
        assert results == [(5, ns(10))]

    def test_unknown_method_rejected(self, sim):
        so = SharedObject(sim, "cnt", Counter())

        def body(task):
            yield from task.p.call("missing")

        make_task(sim, so, "t", body).start()
        with pytest.raises(Exception, match="no method"):
            sim.run()

    def test_mutual_exclusion_serialises_calls(self, sim):
        so = SharedObject(sim, "cnt", Counter())
        times = []

        def body(task):
            yield from task.p.call("bump")
            times.append(sim.now)

        for index in range(3):
            make_task(sim, so, f"t{index}", body).start()
        sim.run()
        assert times == [ns(10), ns(20), ns(30)]

    def test_behaviour_without_exports_rejected(self, sim):
        class Bare:
            def method(self):
                return None

        with pytest.raises(ValueError, match="exports no methods"):
            SharedObject(sim, "bare", Bare())


class TestGuards:
    def test_guard_defers_until_state_opens(self, sim):
        class Box:
            def __init__(self):
                self.items = []

            @osss_method()
            def put(self, item):
                self.items.append(item)

            @osss_method(guard=guarded(lambda self: bool(self.items)))
            def take(self):
                return self.items.pop(0)

        box = Box()
        so = SharedObject(sim, "box", box)
        taken = []

        def consumer(task):
            item = yield from task.p.call("take")
            taken.append((item, sim.now))

        def producer(task):
            yield ns(25)
            yield from task.p.call("put", "x")

        make_task(sim, so, "cons", consumer).start()
        make_task(sim, so, "prod", producer).start()
        sim.run()
        assert taken == [("x", ns(25))]

    def test_args_aware_guard_filters_per_call(self, sim):
        class PerTicket:
            def __init__(self):
                self.ready = set()

            @osss_method()
            def publish(self, ticket):
                self.ready.add(ticket)

            @osss_method(guard=guarded_args(lambda self, ticket: ticket in self.ready))
            def redeem(self, ticket):
                self.ready.discard(ticket)
                return ticket

        so = SharedObject(sim, "tickets", PerTicket())
        redeemed = []

        def waiter(task, ticket):
            value = yield from task.p.call("redeem", ticket)
            redeemed.append((value, sim.now))

        def publisher(task):
            yield ns(10)
            yield from task.p.call("publish", "b")
            yield ns(10)
            yield from task.p.call("publish", "a")

        make_task(sim, so, "wa", lambda t: waiter(t, "a")).start()
        make_task(sim, so, "wb", lambda t: waiter(t, "b")).start()
        make_task(sim, so, "pub", publisher).start()
        sim.run()
        # "b" published first, so its waiter redeems first even though the
        # "a" waiter queued earlier.
        assert redeemed == [("b", ns(10)), ("a", ns(20))]

    def test_blocked_guard_never_opens_leaves_pending(self, sim):
        class Stuck:
            @osss_method(guard=guarded(lambda self: False, "never"))
            def wait_forever(self):
                return None

        so = SharedObject(sim, "stuck", Stuck())

        def body(task):
            yield from task.p.call("wait_forever")

        task = make_task(sim, so, "t", body)
        task.start()
        sim.run()
        assert not task.finished
        assert len(so._pending) == 1
        assert so.stats.guard_blocked > 0


class TestArbitration:
    def test_priority_policy_orders_grants(self, sim):
        so = SharedObject(sim, "cnt", Counter(), policy=StaticPriority())
        order = []

        def body(name):
            def run(task):
                yield from task.p.call("bump")
                order.append(name)

            return run

        low = FunctionTask(sim, "low", body("low"))
        port = low.port("p")
        port.priority = 9
        port.bind(so)
        low.p = port
        high = FunctionTask(sim, "high", body("high"))
        port = high.port("p")
        port.bind(so)
        high.p = port
        low.start()
        high.start()
        sim.run()
        assert order == ["high", "low"]

    def test_grant_overhead_charged(self, sim):
        so = SharedObject(
            sim, "cnt", Counter(), grant_overhead=us(1), per_client_overhead=us(1)
        )
        finish = []

        def body(task):
            yield from task.p.call("bump")
            finish.append(sim.now)

        make_task(sim, so, "t", body).start()
        sim.run()
        # 1 us grant + 1 us x 1 client + 10 ns method EET
        assert finish == [us(2) + ns(10)]

    def test_contention_statistics(self, sim):
        so = SharedObject(sim, "cnt", Counter())

        def body(task):
            yield from task.p.call("bump")

        for index in range(3):
            make_task(sim, so, f"t{index}", body).start()
        sim.run()
        assert so.stats.requests == 3
        assert so.stats.grants == 3
        assert so.stats.contended_grants >= 1


class Gate:
    """Guarded work behind a gate a controller closes and reopens."""

    def __init__(self):
        self.open = True
        self.served = []

    @osss_method(guard=guarded(lambda self: self.open), eet=ns(10))
    def work(self, who):
        self.served.append(who)

    @osss_method(eet=ns(2))
    def close(self):
        self.open = False

    @osss_method(eet=ns(2))
    def reopen(self):
        self.open = True


class TestGrantSchemeEquivalence:
    """The fast end-of-delta grant decisions reproduce the reference
    arbiter process: same grants in the same order at the same times."""

    @staticmethod
    def _run(fast):
        sim = Simulator(fast=fast)
        gate = Gate()
        so = SharedObject(sim, "gate", gate)
        done = []

        def worker(name, start_ns):
            def body(task):
                yield ns(start_ns)
                for _ in range(3):
                    yield from task.p.call("work", name)
                    done.append((name, sim.now.femtoseconds))
                    yield ns(3)

            return body

        def controller(task):
            yield ns(15)
            yield from task.p.call("close")
            done.append(("closed", sim.now.femtoseconds))
            yield ns(40)
            yield from task.p.call("reopen")
            done.append(("reopened", sim.now.femtoseconds))

        for index, start in enumerate((0, 0, 5)):
            make_task(sim, so, f"w{index}", worker(f"w{index}", start)).start()
        make_task(sim, so, "ctl", controller).start()
        sim.run()
        stats = so.stats
        return gate.served, done, (
            stats.requests, stats.grants, stats.contended_grants,
            stats.guard_blocked, stats.busy_fs,
        )

    def test_round_robin_with_a_closing_guard(self):
        fast = self._run(fast=True)
        assert fast == self._run(fast=False)
        served, done, (requests, grants, contended, blocked, _) = fast
        assert served == ["w0", "w1", "w2"] * 3
        assert requests == grants == 11
        assert contended > 0 and blocked > 0
        # Nobody is served while the gate is closed.
        times = dict(done)
        assert not [
            name for name, at in done
            if name.startswith("w") and times["closed"] < at <= times["reopened"]
        ]


class TestGeneratorMethods:
    def test_method_may_consume_time_itself(self, sim):
        class Slow:
            @osss_method()
            def work(self):
                yield ns(42)
                return "done"

        so = SharedObject(sim, "slow", Slow())
        results = []

        def body(task):
            value = yield from task.p.call("work")
            results.append((value, sim.now))

        make_task(sim, so, "t", body).start()
        sim.run()
        assert results == [("done", ns(42))]

    def test_object_released_after_failure(self, sim):
        class Fragile:
            @osss_method()
            def explode(self):
                raise RuntimeError("bang")

            @osss_method()
            def ok(self):
                return True

        so = SharedObject(sim, "fragile", Fragile())

        def body(task):
            yield from task.p.call("explode")

        make_task(sim, so, "t", body).start()
        with pytest.raises(Exception, match="bang"):
            sim.run()
        # The object must not be left busy.
        assert so._busy is False
