"""Property-based tests of the concurrency substrate under random load."""

from hypothesis import given, settings, strategies as st

from repro.core import FunctionTask, RoundRobin, SharedObject, StaticPriority, osss_method
from repro.kernel import Fifo, SimTime, Simulator


@st.composite
def random_schedules(draw):
    """Per-client (delay, hold) pairs in femtoseconds."""
    clients = draw(st.integers(2, 6))
    return [
        (
            draw(st.integers(0, 10_000)),
            draw(st.integers(1, 10_000)),
        )
        for _ in range(clients)
    ]


@given(random_schedules())
@settings(max_examples=60, deadline=None)
def test_shared_object_serialises_and_serves_everyone(schedule):
    sim = Simulator()

    class Tally:
        def __init__(self):
            self.active = 0
            self.max_active = 0
            self.served = 0

        @osss_method()
        def use(self, hold_fs):
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            yield SimTime.from_fs(hold_fs)
            self.active -= 1
            self.served += 1

    tally = Tally()
    so = SharedObject(sim, "tally", tally, policy=RoundRobin())

    def body(task, delay_fs, hold_fs):
        yield SimTime.from_fs(delay_fs)
        yield from task.p.call("use", hold_fs)

    for index, (delay, hold) in enumerate(schedule):
        task = FunctionTask(sim, f"t{index}", body, delay, hold)
        port = task.port("p")
        port.bind(so)
        task.p = port
        task.start()
    sim.run()
    assert tally.served == len(schedule)  # nobody starves
    assert tally.max_active == 1  # mutual exclusion held throughout
    assert so.stats.grants == len(schedule)


@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=60),
    st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_fifo_preserves_order_under_any_capacity(items, capacity):
    sim = Simulator()
    fifo = Fifo(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield from fifo.put(item)

    def consumer():
        for _ in items:
            value = yield from fifo.get()
            received.append(value)
            yield SimTime.from_fs(3)

    sim.spawn(producer(), "prod")
    sim.spawn(consumer(), "cons")
    sim.run()
    assert received == items


@given(st.lists(st.integers(0, 7), min_size=2, max_size=8, unique=True))
@settings(max_examples=60, deadline=None)
def test_priority_policy_grants_highest_priority_ready_client(priorities)        :
    sim = Simulator()
    order = []

    class Probe:
        @osss_method()
        def touch(self, who):
            order.append(who)
            yield SimTime.from_fs(100)

    so = SharedObject(sim, "probe", Probe(), policy=StaticPriority())

    def body(task, who):
        yield from task.p.call("touch", who)

    for index, priority in enumerate(priorities):
        task = FunctionTask(sim, f"t{index}", body, priority)
        port = task.port("p")
        port.priority = priority
        port.bind(so)
        task.p = port
        task.start()
    sim.run()
    # The first grant goes to someone; all *subsequent* grants must follow
    # priority order among the then-waiting clients (all arrived together,
    # so the tail is fully sorted).
    assert order[1:] == sorted(order[1:])
