"""Events: the kernel's only synchronisation primitive.

An :class:`Event` can be *notified* in three ways, mirroring SystemC:

* ``notify()`` — **immediate**: waiting processes become runnable within the
  current evaluate phase.
* ``notify(delta=True)`` — **delta**: waiting processes run in the next
  delta cycle (after the current evaluate phase).
* ``notify(SimTime(...))`` — **timed**: waiting processes run when the
  simulator reaches the given time offset.

As in SystemC, a pending timed/delta notification is overridden by any
earlier notification on the same event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .time import SimTime, ZERO_TIME

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import Process
    from .scheduler import Simulator


class Event:
    """A notifiable synchronisation point processes can wait on."""

    __slots__ = ("sim", "name", "_waiting", "_pending_at", "_pending_handle")

    def __init__(self, sim: "Simulator", name: str = "event"):
        self.sim = sim
        self.name = name
        self._waiting: list["Process"] = []
        # Femtosecond timestamp of a pending (delta or timed) notification,
        # used to implement SystemC's earlier-notification-wins rule.
        # None means no notification is pending.
        self._pending_at: Optional[int] = None
        self._pending_handle = None

    # -- notification --------------------------------------------------------

    def notify(self, delay: Optional[SimTime] = None, *, delta: bool = False) -> None:
        """Notify the event immediately, after a delta cycle, or after *delay*."""
        if delta and delay is not None:
            raise ValueError("pass either a delay or delta=True, not both")
        if delay is None and not delta:
            if self._pending_handle is not None:
                self._cancel_pending()
            self.sim._trigger_now(self)
            return
        if delta or delay == ZERO_TIME:
            target = self.sim._now_fs
            if self._pending_at is not None and self._pending_at <= target:
                return  # an earlier (or equal) notification is already pending
            self._cancel_pending()
            self._pending_at = target
            self._pending_handle = self.sim._schedule_delta(self)
            return
        target = self.sim._now_fs + delay.femtoseconds
        if self._pending_at is not None and self._pending_at <= target:
            return
        self._cancel_pending()
        self._pending_at = target
        self._pending_handle = self.sim._schedule_timed(self, target)

    def _cancel_pending(self) -> None:
        if self._pending_handle is not None:
            self._pending_handle.cancelled = True
            self._pending_handle = None
        self._pending_at = None

    # -- internal: called by the scheduler ------------------------------------

    def _fire(self) -> None:
        """Deliver the notification: wake every waiting process."""
        self._pending_at = None
        self._pending_handle = None
        if self._waiting:
            waiting, self._waiting = self._waiting, []
            for proc in waiting:
                proc._wake(self)

    def _subscribe(self, proc: "Process") -> None:
        self._waiting.append(proc)

    def _unsubscribe(self, proc: "Process") -> None:
        try:
            self._waiting.remove(proc)
        except ValueError:
            pass

    def __repr__(self) -> str:
        return f"Event({self.name!r})"
