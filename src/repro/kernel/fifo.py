"""A blocking bounded FIFO channel (``sc_fifo`` analogue).

``put``/``get`` are blocking generator calls used with ``yield from``.
Non-blocking variants (`try_put`/`try_get`) are provided for polling-style
models.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, TypeVar

from .event import Event
from .scheduler import Simulator

T = TypeVar("T")


class Fifo(Generic[T]):
    """Bounded FIFO with blocking access from process context."""

    def __init__(self, sim: Simulator, capacity: int = 16, name: str = "fifo"):
        if capacity < 1:
            raise ValueError("fifo capacity must be at least 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: deque[T] = deque()
        self._data_written = Event(sim, f"{name}.data_written")
        self._data_read = Event(sim, f"{name}.data_read")

    def __len__(self) -> int:
        return len(self._items)

    # -- non-blocking ------------------------------------------------------------

    def try_put(self, item: T) -> bool:
        if len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        # Fast mode: skip the notification when no process is waiting.
        # Exact, because blocked peers always re-check the fifo state in
        # their retry loop rather than counting wakeups.
        written = self._data_written
        if written._waiting or not self.sim.fast:
            written.notify(delta=True)
        return True

    def try_get(self):
        if not self._items:
            return False, None
        item = self._items.popleft()
        read = self._data_read
        if read._waiting or not self.sim.fast:
            read.notify(delta=True)
        return True, item

    # -- blocking (generator) ------------------------------------------------------

    def put(self, item: T):
        """Blocking put; use as ``yield from fifo.put(x)``."""
        while not self.try_put(item):
            yield self._data_read

    def get(self):
        """Blocking get; use as ``item = yield from fifo.get()``."""
        while True:
            ok, item = self.try_get()
            if ok:
                return item
            yield self._data_written

    def __repr__(self) -> str:
        return f"Fifo({self.name!r}, {len(self._items)}/{self.capacity})"
