"""Arbitration: pluggable policies and the grant engine they drive.

OSSS lets the designer choose the scheduler a Shared Object (or a bus) uses
to resolve concurrent requests.  A policy sees the *eligible* requests and
picks one.  All policies are deterministic so simulations are reproducible.

:class:`GrantEngine` is the one resource-arbitration scheme both
:class:`~repro.core.shared.SharedObject` and
:class:`~repro.vta.channel_base.OsssChannel` build on: many clients, one
grant at a time.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from ..kernel import Event, Simulator


class ClientHandle:
    """Identity of one connected client (a bound port or a bus master)."""

    __slots__ = ("client_id", "name", "priority", "_grant_event")

    def __init__(self, client_id: int, name: str, priority: int):
        self.client_id = client_id
        self.name = name
        self.priority = priority
        #: Grant event a channel reuses across transports (fast mode only).
        self._grant_event: Optional[Event] = None

    def __repr__(self) -> str:
        return f"ClientHandle({self.client_id}, {self.name!r})"


class Request:
    """One pending access, as seen by an arbitration policy."""

    __slots__ = ("client_id", "priority", "arrival_fs", "seq")

    def __init__(self, client_id: int, priority: int, arrival_fs: int, seq: int):
        self.client_id = client_id
        self.priority = priority
        self.arrival_fs = arrival_fs
        self.seq = seq

    def __repr__(self) -> str:
        return f"Request(client={self.client_id}, prio={self.priority}, at={self.arrival_fs}fs)"


class ArbitrationPolicy:
    """Base class: subclasses implement :meth:`select`.

    :meth:`select` must be a pure function of its arguments: the fast
    grant path skips it when a single request is eligible.
    """

    name = "base"

    def select(self, eligible: Sequence[Request], last_client: Optional[int]) -> Request:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobin(ArbitrationPolicy):
    """Grant the first eligible client after the last one served."""

    name = "round_robin"

    def select(self, eligible: Sequence[Request], last_client: Optional[int]) -> Request:
        if last_client is None:
            return min(eligible, key=lambda r: r.client_id)
        # Order clients cyclically starting just after last_client.
        return min(
            eligible,
            key=lambda r: ((r.client_id - last_client - 1) % _modulus(eligible, last_client), r.seq),
        )


def _modulus(eligible: Sequence[Request], last_client: int) -> int:
    """A modulus safely larger than every client id in play."""
    return max([last_client] + [r.client_id for r in eligible]) + 2


class StaticPriority(ArbitrationPolicy):
    """Highest priority wins; ties resolved by arrival order.

    Lower numeric value means higher priority, matching bus conventions.
    """

    name = "static_priority"

    def select(self, eligible: Sequence[Request], last_client: Optional[int]) -> Request:
        return min(eligible, key=lambda r: (r.priority, r.seq))


class Fcfs(ArbitrationPolicy):
    """First come, first served (arrival time, then submission order)."""

    name = "fcfs"

    def select(self, eligible: Sequence[Request], last_client: Optional[int]) -> Request:
        return min(eligible, key=lambda r: (r.arrival_fs, r.seq))


class GrantEngine:
    """Many clients, one grant at a time, picked by a policy.

    Pending entries are :class:`Request` subclasses, so the policy ranks
    them directly.  Subclasses decide which pending requests are
    eligible (:meth:`_eligible`) and how the chosen one is woken
    (:meth:`_grant`); the holder calls :meth:`_release` when done.

    Two decision schemes give identical grants and timestamps:

    * reference — an always-on ``<name>.arbiter`` process wakes one delta
      after every state change and grants by a delta notification;
    * fast — requests and releases schedule one end-of-delta decision
      callback (:meth:`_schedule_decision`), so all requests posted in one
      evaluate phase still compete; the ``<name>.arbiter`` process only
      forwards external ``_state_changed`` notifications.
    """

    def __init__(self, sim: Simulator, name: str, policy: ArbitrationPolicy):
        self.sim = sim
        self.policy = policy
        self._pending: list = []
        self._busy = False
        self._last_client: Optional[int] = None
        self._state_changed = Event(sim, f"{name}.state_changed")
        self._seq = itertools.count()
        self._fast = bool(getattr(sim, "fast", False))
        self._decision_pending = False
        if self._fast:
            sim.spawn(self._external_wakeup_loop(), name=f"{name}.arbiter")
        else:
            sim.spawn(self._arbiter_loop(), name=f"{name}.arbiter")

    def _enqueue(self, request: Request) -> None:
        self._pending.append(request)
        if self._fast:
            self._schedule_decision()
        else:
            self._state_changed.notify(delta=True)

    def _release(self) -> None:
        """The grant holder is done; the next decision may grant again."""
        self._busy = False
        if self._fast:
            if self._pending:
                self._schedule_decision()
        else:
            self._state_changed.notify(delta=True)

    def _eligible(self) -> list:
        return self._pending

    def _grant(self, chosen: Request, contended: bool) -> None:
        raise NotImplementedError

    def _arbiter_loop(self):
        while True:
            granted = self._try_grant()
            if not granted:
                yield self._state_changed

    def _external_wakeup_loop(self):
        while True:
            yield self._state_changed
            self._schedule_decision()

    def _schedule_decision(self) -> None:
        """Fast mode: decide at the end of the current delta cycle.

        All requests registered during this evaluate phase compete in one
        decision, mirroring what the reference arbiter process sees when a
        ``_state_changed`` notification wakes it one delta later.
        """
        if not self._decision_pending:
            self._decision_pending = True
            self.sim._schedule_delta_call(self._decide)

    def _decide(self) -> None:
        self._decision_pending = False
        self._try_grant()

    def _try_grant(self) -> bool:
        if self._busy or not self._pending:
            return False
        eligible = self._eligible()
        if not eligible:
            return False
        contended = len(eligible) > 1
        if contended or not self._fast:
            chosen = self.policy.select(eligible, self._last_client)
        else:
            # Every policy picks the only eligible request.
            chosen = eligible[0]
        self._pending.remove(chosen)
        self._busy = True
        self._last_client = chosen.client_id
        self._grant(chosen, contended)
        return True
