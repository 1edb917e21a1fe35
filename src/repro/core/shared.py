"""Shared Objects: guarded, arbitrated, method-based communication.

A Shared Object is the central OSSS concept: a *passive* component offering
method-based interfaces to the active components (modules and software
tasks).  Its semantics, reproduced here:

* **directed** — clients reach it through port-to-interface bindings;
* **blocking** — a method call does not return before it completed;
* **mutually exclusive** — at most one method executes at a time;
* **arbitrated** — concurrent requests are resolved by a pluggable
  scheduling policy; each grant may cost arbitration overhead (which is how
  the case study's seven-client version 5 ends up slower than version 4);
* **guarded** — a method with a closed guard is simply not eligible until
  the object's state opens the guard.

The behaviour is an ordinary Python object whose methods are exported with
the :func:`osss_method` decorator.  Method bodies may be plain functions
(annotated with an EET) or generators (free to consume simulated time and
use further blocking calls).
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Union

from ..kernel import Event, Module, SimTime, Simulator, ZERO_TIME
from .arbiter import ArbitrationPolicy, ClientHandle, GrantEngine, Request, RoundRobin
from .guards import ALWAYS, Guard

#: An EET annotation: fixed duration, or computed from the call arguments.
EetSpec = Union[SimTime, Callable[..., SimTime], None]

_OSSS_METHOD_ATTR = "_osss_method_spec"


class MethodSpec:
    """Export metadata attached to behaviour methods."""

    def __init__(self, guard: Guard, eet: EetSpec):
        self.guard = guard
        self.eet = eet


def osss_method(guard: Optional[Guard] = None, eet: EetSpec = None):
    """Decorator marking a behaviour method as exported through the SO."""

    def mark(fn):
        setattr(fn, _OSSS_METHOD_ATTR, MethodSpec(guard or ALWAYS, eet))
        return fn

    return mark


class _PendingCall(Request):
    """A call waiting for (or holding) the grant."""

    __slots__ = ("client", "method", "args", "kwargs", "granted", "is_granted")

    def __init__(self, sim: Simulator, client: ClientHandle, method: str, args, kwargs, seq: int):
        # The policy fields, set inline: this runs once per call.
        self.client_id = client.client_id
        self.priority = client.priority
        self.arrival_fs = sim._now_fs
        self.seq = seq
        self.client = client
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.granted = Event(sim, f"grant.{client.name}.{method}")
        self.is_granted = False


class SharedObject(Module, GrantEngine):
    """A passive, arbitrated, guarded method-call server."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        behaviour: object,
        policy: Optional[ArbitrationPolicy] = None,
        grant_overhead: SimTime = ZERO_TIME,
        per_client_overhead: SimTime = ZERO_TIME,
    ):
        Module.__init__(self, sim, name)
        self.behaviour = behaviour
        #: Fixed simulated-time cost charged on every grant.
        self.grant_overhead = grant_overhead
        #: Additional per-registered-client cost per grant: models the
        #: growing arbiter/multiplexer in hardware as clients are added.
        self.per_client_overhead = per_client_overhead
        self._methods = self._collect_methods(behaviour)
        self._clients: list[ClientHandle] = []
        # Statistics used by the case study's exploration reports.
        self.stats = SharedObjectStats()
        # Guard state can also change outside the call protocol (a
        # behaviour or test poking ``_state_changed``); the engine's
        # arbiter process routes those notifications into a decision.
        GrantEngine.__init__(self, sim, self.name, policy or RoundRobin())

    # -- construction -----------------------------------------------------------

    @staticmethod
    def _collect_methods(behaviour: object) -> dict[str, tuple[Callable, MethodSpec]]:
        methods = {}
        for attr_name, member in inspect.getmembers(behaviour, callable):
            spec = getattr(member, _OSSS_METHOD_ATTR, None)
            if spec is not None:
                methods[attr_name] = (member, spec)
        if not methods:
            raise ValueError(
                f"behaviour {type(behaviour).__name__!r} exports no methods; "
                "mark them with @osss_method()"
            )
        return methods

    # -- provider protocol (used by Port) ------------------------------------------

    def connect_client(self, port) -> ClientHandle:
        client = ClientHandle(len(self._clients), port.name, port.priority)
        self._clients.append(client)
        return client

    @property
    def num_clients(self) -> int:
        return len(self._clients)

    def request_call(self, client: ClientHandle, method: str, *args, **kwargs) -> _PendingCall:
        """Register a call for arbitration; returns the pending handle.

        Split out of :meth:`invoke` so channel transactors can observe the
        grant (e.g. to model clients polling a bus-attached object).
        """
        if client is None:
            raise RuntimeError(f"unconnected client invoking {self.name!r}")
        if method not in self._methods:
            raise AttributeError(f"shared object {self.name!r} has no method {method!r}")
        call = _PendingCall(self.sim, client, method, args, kwargs, next(self._seq))
        self.stats.requests += 1
        self._enqueue(call)
        return call

    def finish_call(self, call: _PendingCall):
        """Execute a granted call; must follow ``yield call.granted``."""
        try:
            result = yield from self._execute(call)
        finally:
            self._release()
        return result

    def invoke(self, client: ClientHandle, method: str, *args, **kwargs):
        """The blocking call protocol; runs in the *client's* process."""
        call = self.request_call(client, method, *args, **kwargs)
        yield call.granted
        result = yield from self.finish_call(call)
        return result

    def _execute(self, call: _PendingCall):
        tel = self.sim.telemetry
        entry_fs = self.sim._now_fs
        overhead_fs = (
            self.grant_overhead.femtoseconds
            + self.per_client_overhead.femtoseconds * self.num_clients
        )
        if overhead_fs:
            yield SimTime.intern(overhead_fs)
        fn, spec = self._methods[call.method]
        started_fs = self.sim._now_fs
        outcome = fn(*call.args, **call.kwargs)
        if inspect.isgenerator(outcome):
            result = yield from outcome
        else:
            result = outcome
            duration = self._eet_duration(spec, call)
            if duration:
                yield duration
        self.stats.grants += 1
        busy_fs = self.sim._now_fs - started_fs + overhead_fs
        self.stats.busy_fs += busy_fs
        if tel is not None:
            # The span covers the granted execution (arbitration overhead +
            # method EET) on the calling client's track; the request→grant
            # latency goes into both the span attrs and a histogram, which
            # is what makes the v4→v5 arbitration-overhead story visible.
            wait_fs = entry_fs - call.arrival_fs
            tel.metrics.observe("so.grant_wait_fs", wait_fs)
            tel.complete(
                "so",
                f"{self.name}.{call.method}",
                call.client.name,
                entry_fs,
                self.sim._now_fs,
                {"object": self.name, "wait_fs": wait_fs,
                 "overhead_fs": overhead_fs},
            )
        return result

    @staticmethod
    def _eet_duration(spec: MethodSpec, call: _PendingCall) -> Optional[SimTime]:
        if spec.eet is None:
            return None
        if isinstance(spec.eet, SimTime):
            return spec.eet
        return spec.eet(*call.args, **call.kwargs)

    # -- arbitration ---------------------------------------------------------------

    def _eligible(self) -> list:
        """Pending calls whose guard holds; an empty answer counts as blocked."""
        eligible = [
            call for call in self._pending
            if self._methods[call.method][1].guard.holds(
                self.behaviour, call.args, call.kwargs
            )
        ]
        if not eligible:
            self.stats.guard_blocked += 1
            tel = self.sim.telemetry
            if tel is not None:
                tel.metrics.count("so.guard_blocked")
                tel.metrics.count(f"so.guard_blocked.{self.name}")
        return eligible

    def _grant(self, call: _PendingCall, contended: bool) -> None:
        if contended:
            self.stats.contended_grants += 1
        call.is_granted = True
        if self._fast:
            # End-of-delta decision: fire now, the client wakes next
            # evaluate phase at the same timestamp.
            call.granted.notify()
        else:
            call.granted.notify(delta=True)

    def __repr__(self) -> str:
        return f"SharedObject({self.name!r}, clients={self.num_clients}, pending={len(self._pending)})"


class SharedObjectStats:
    """Counters a simulation run can report on."""

    def __init__(self):
        self.requests = 0
        self.grants = 0
        self.contended_grants = 0
        self.guard_blocked = 0
        self.busy_fs = 0

    def __repr__(self) -> str:
        return (
            f"SharedObjectStats(requests={self.requests}, grants={self.grants}, "
            f"contended={self.contended_grants})"
        )
