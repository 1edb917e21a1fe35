"""Property-based tests of kernel invariants."""

from hypothesis import given, settings, strategies as st

from repro.core import Fcfs, Request, RoundRobin, StaticPriority
from repro.core.serialisation import payload_bits, serialise_call
from repro.kernel import SimTime, Simulator, Timeout


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_time_advances_monotonically(delays):
    """Observed simulation time never decreases, whatever the schedule."""
    sim = Simulator()
    observed = []

    def make(delay_fs):
        def body():
            yield SimTime.from_fs(delay_fs)
            observed.append(sim.now.femtoseconds)
            yield SimTime.from_fs(delay_fs // 2 + 1)
            observed.append(sim.now.femtoseconds)

        return body

    for index, delay in enumerate(delays):
        sim.spawn(make(delay)(), f"p{index}")
    # Interleaved observation order must still be globally sorted in time:
    # each append happens at sim.now, and the scheduler only moves forward.
    sim.run()
    assert observed == sorted(observed)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_events_fire_in_notification_order(offsets):
    sim = Simulator()
    fired = []

    def waiter(event, offset):
        def body():
            yield event
            fired.append((sim.now.femtoseconds, offset))

        return body

    for index, offset in enumerate(offsets):
        event = sim.event(f"e{index}")
        sim.spawn(waiter(event, offset)(), f"w{index}")
        event.notify(SimTime.from_fs(offset))
    sim.run()
    assert [time for time, _ in fired] == sorted(offset for offset in offsets)


@st.composite
def request_sets(draw):
    count = draw(st.integers(1, 10))
    return [
        Request(
            client_id=draw(st.integers(0, 15)),
            priority=draw(st.integers(0, 7)),
            arrival_fs=draw(st.integers(0, 1000)),
            seq=index,
        )
        for index in range(count)
    ]


@given(request_sets(), st.one_of(st.none(), st.integers(0, 15)))
@settings(max_examples=150, deadline=None)
def test_policies_always_select_a_member(requests, last):
    for policy in (RoundRobin(), StaticPriority(), Fcfs()):
        chosen = policy.select(requests, last)
        assert chosen in requests


@given(request_sets())
@settings(max_examples=100, deadline=None)
def test_static_priority_is_optimal(requests):
    chosen = StaticPriority().select(requests, None)
    assert chosen.priority == min(r.priority for r in requests)


@given(request_sets())
@settings(max_examples=100, deadline=None)
def test_fcfs_picks_earliest(requests):
    chosen = Fcfs().select(requests, None)
    assert chosen.arrival_fs == min(r.arrival_fs for r in requests)


_payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**31), 2**31 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
        st.binary(max_size=20),
    ),
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children),
    max_leaves=10,
)


@given(_payloads)
@settings(max_examples=150, deadline=None)
def test_payload_bits_total_and_non_negative(payload):
    assert payload_bits(payload) >= 0


@given(st.lists(st.integers(-100, 100), max_size=6), st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_serialise_call_word_count_consistent(args, word_bits):
    payload = serialise_call(tuple(args), {}, word_bits)
    assert payload.words * word_bits >= payload.bits
    assert (payload.words - 1) * word_bits < payload.bits or payload.words == 0


# -- fast substrate vs reference scheduler -------------------------------------
#
# The fast scheduler (timed-heap wakes without throwaway events, lazy
# notification) must be *observably identical* to the reference scheduler.
# Random programs over processes, events and timeouts are executed under
# both and every observable — the full wake trace (which process ran which
# step at which time, in which order) and the final simulation time — must
# agree.

_EVENTS = 4

_kernel_ops = st.one_of(
    st.tuples(st.just("wait"), st.integers(0, 50)),
    st.tuples(st.just("wait_event"), st.integers(0, _EVENTS - 1)),
    st.tuples(
        st.just("timeout"),
        st.integers(0, _EVENTS - 1),
        st.integers(0, 50),
    ),
    st.tuples(st.just("notify_delta"), st.integers(0, _EVENTS - 1)),
    st.tuples(
        st.just("notify_timed"),
        st.integers(0, _EVENTS - 1),
        st.integers(0, 50),
    ),
)

_kernel_programs = st.lists(
    st.lists(_kernel_ops, min_size=1, max_size=6), min_size=1, max_size=5
)


def _execute_program(programs, fast: bool):
    sim = Simulator(fast=fast)
    events = [sim.event(f"e{index}") for index in range(_EVENTS)]
    trace = []

    def make(pid, ops):
        def body():
            for step, op in enumerate(ops):
                kind = op[0]
                if kind == "wait":
                    yield SimTime.from_fs(op[1])
                elif kind == "wait_event":
                    yield events[op[1]]
                elif kind == "timeout":
                    yield Timeout(events[op[1]], SimTime.from_fs(op[2]))
                elif kind == "notify_delta":
                    events[op[1]].notify(delta=True)
                else:
                    events[op[1]].notify(SimTime.from_fs(op[2]))
                trace.append((pid, step, sim.now.femtoseconds))

        return body

    for pid, ops in enumerate(programs):
        sim.spawn(make(pid, ops)(), f"p{pid}")
    final = sim.run()
    return trace, final.femtoseconds


@given(_kernel_programs)
@settings(max_examples=120, deadline=None)
def test_fast_substrate_matches_reference_scheduler(programs):
    assert _execute_program(programs, fast=True) == _execute_program(
        programs, fast=False
    )
