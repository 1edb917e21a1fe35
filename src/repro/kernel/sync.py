"""Mutual exclusion primitives for process context.

All blocking operations are generator calls (``yield from``).  The mutex
grants in FIFO order of arrival, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque

from .event import Event
from .scheduler import Simulator


class Mutex:
    """FIFO-fair mutual exclusion lock."""

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._locked_by: object = None
        self._waiters: deque[Event] = deque()

    def lock(self, owner: object = None):
        """Blocking acquire; ``yield from mutex.lock(owner)``.

        The lock is handed off directly to the longest-waiting process, so
        a late arrival can never barge in front of the queue.
        """
        owner = owner if owner is not None else object()
        if self._locked_by is None and not self._waiters:
            self._locked_by = owner
            return owner
        gate = Event(self.sim, f"{self.name}.grant")
        self._waiters.append(gate)
        yield gate
        # unlock() reserved the mutex for us by storing our gate.
        self._locked_by = owner
        return owner

    def try_lock(self, owner: object = None) -> bool:
        if self._locked_by is not None or self._waiters:
            return False
        self._locked_by = owner if owner is not None else object()
        return True

    def unlock(self, owner: object = None) -> None:
        if self._locked_by is None:
            raise RuntimeError(f"unlock of unlocked mutex {self.name!r}")
        if owner is not None and owner is not self._locked_by:
            raise RuntimeError(f"mutex {self.name!r} unlocked by non-owner")
        if self._waiters:
            gate = self._waiters.popleft()
            self._locked_by = gate  # reserve for the woken waiter
            gate.notify(delta=True)
        else:
            self._locked_by = None


class Semaphore:
    """Counting semaphore with FIFO wakeup."""

    def __init__(self, sim: Simulator, initial: int, name: str = "semaphore"):
        if initial < 0:
            raise ValueError("semaphore count must be non-negative")
        self.sim = sim
        self.name = name
        self._count = initial
        self._waiters: deque[Event] = deque()

    @property
    def count(self) -> int:
        return self._count

    def acquire(self):
        """Blocking P(); ``yield from sem.acquire()``."""
        while self._count == 0:
            gate = Event(self.sim, f"{self.name}.grant")
            self._waiters.append(gate)
            yield gate
        self._count -= 1

    def try_acquire(self) -> bool:
        if self._count == 0:
            return False
        self._count -= 1
        return True

    def release(self) -> None:
        self._count += 1
        if self._waiters:
            self._waiters.popleft().notify(delta=True)


class Barrier:
    """All parties block until the last one arrives."""

    def __init__(self, sim: Simulator, parties: int, name: str = "barrier"):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.sim = sim
        self.name = name
        self.parties = parties
        self._arrived = 0
        self._release = Event(sim, f"{name}.release")

    def wait(self):
        """Blocking arrive-and-wait; ``yield from barrier.wait()``."""
        self._arrived += 1
        if self._arrived == self.parties:
            self._arrived = 0
            self._release.notify(delta=True)
            return
        yield self._release
