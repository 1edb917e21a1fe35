"""Processes: generator coroutines driven by the simulator.

A process body is a Python generator.  It suspends by yielding a *wait
request* and is resumed by the scheduler when the request is satisfied:

* ``yield SimTime(10, "ns")`` — wait for a duration;
* ``yield event`` — wait for a single event;
* ``yield AnyOf(e1, e2, ...)`` — wait until any of the events fires;
* ``yield Timeout(event, delay)`` — wait for *event* or *delay*, whichever
  comes first.

Sub-behaviours compose with ``yield from``, which is the idiom used for all
blocking library calls (e.g. Shared Object method calls in the OSSS layer).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Iterable, Optional

from .event import Event
from .time import SimTime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import Simulator

#: Type alias for process bodies.
ProcessBody = Generator[object, object, object]


class AnyOf:
    """Wait request satisfied when any one of the given events fires."""

    __slots__ = ("events",)

    def __init__(self, *events: Event):
        if not events:
            raise ValueError("AnyOf requires at least one event")
        self.events = tuple(events)


class Timeout:
    """Wait request satisfied when *event* fires or *delay* elapses.

    Equivalent to ``AnyOf(event, timer)`` with a throwaway timer event,
    but the timeout side is scheduled straight on the timed heap — the
    cheap primitive behind polling drivers (see
    :meth:`repro.vta.rmi.RmiClient._execute_polled`).
    """

    __slots__ = ("event", "delay")

    def __init__(self, event: Event, delay: SimTime):
        self.event = event
        self.delay = delay


class ProcessState(enum.Enum):
    READY = "ready"
    WAITING = "waiting"
    FINISHED = "finished"
    FAILED = "failed"


class Process:
    """A scheduled coroutine with SystemC-thread-like wait semantics."""

    __slots__ = (
        "sim",
        "name",
        "body",
        "state",
        "_waiting_on",
        "_timeout_event",
        "_timed_handle",
        "result",
        "exception",
        "done_event",
    )

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str):
        if not hasattr(body, "send"):
            raise TypeError(
                f"process body for {name!r} must be a generator; "
                "did you forget to call the generator function?"
            )
        self.sim = sim
        self.name = name
        self.body = body
        self.state = ProcessState.READY
        self._waiting_on: tuple[Event, ...] = ()
        self._timeout_event: Optional[Event] = None
        #: Fast-path timed wait: the heap/delta entry that will wake us.
        self._timed_handle = None
        self.result: object = None
        self.exception: Optional[BaseException] = None
        #: Fires (delta) when the process terminates; used for joins.
        self.done_event = Event(sim, f"{name}.done")

    # -- scheduler interface ---------------------------------------------------

    def _step(self) -> None:
        """Advance the body until it suspends or terminates."""
        try:
            request = self.body.send(None)
        except StopIteration as stop:
            self.result = stop.value
            self.state = ProcessState.FINISHED
            self._notify_done()
            return
        except Exception as exc:
            self.exception = exc
            self.state = ProcessState.FAILED
            self._notify_done()
            self.sim._process_failed(self, exc)
            return
        try:
            self._suspend_on(request)
        except Exception as exc:
            self.body.close()
            self.exception = exc
            self.state = ProcessState.FAILED
            self._notify_done()
            self.sim._process_failed(self, exc)

    def _notify_done(self) -> None:
        """Fire ``done_event`` — skipped in fast mode when nobody waits.

        Safe because every consumer (:func:`join` and friends) checks
        :attr:`finished` before subscribing, so a skipped notification can
        only concern processes that would re-check state anyway.
        """
        if self.done_event._waiting or not self.sim.fast:
            self.done_event.notify(delta=True)

    def _suspend_on(self, request: object) -> None:
        self.state = ProcessState.WAITING
        if isinstance(request, SimTime):
            sim = self.sim
            if sim.fast:
                # Fast path: no Event, no subscription — the scheduler
                # wakes this process straight from the timed heap (or the
                # next delta cycle for a zero delay, matching the
                # zero-delay-degenerates-to-delta rule of the slow path).
                delay_fs = request._fs
                if delay_fs:
                    self._timed_handle = sim._schedule_timed_wake(
                        self, sim._now_fs + delay_fs
                    )
                else:
                    self._timed_handle = sim._schedule_delta_wake(self)
                return
            timeout = Event(sim, f"{self.name}.timeout")
            timeout.notify(request)  # a zero delay degenerates to a delta notification
            self._timeout_event = timeout
            self._waiting_on = (timeout,)
            timeout._subscribe(self)
            return
        if isinstance(request, Event):
            self._waiting_on = (request,)
            request._subscribe(self)
            return
        if isinstance(request, Timeout):
            event = request.event
            self._waiting_on = (event,)
            event._subscribe(self)
            delay_fs = request.delay._fs
            sim = self.sim
            if delay_fs:
                self._timed_handle = sim._schedule_timed_wake(
                    self, sim._now_fs + delay_fs
                )
            else:
                self._timed_handle = sim._schedule_delta_wake(self)
            return
        if isinstance(request, AnyOf):
            self._waiting_on = request.events
            for event in request.events:
                event._subscribe(self)
            return
        raise TypeError(
            f"process {self.name!r} yielded {request!r}; expected a SimTime, "
            "an Event, AnyOf(...), or Timeout(...)"
        )

    def _wake(self, fired: Event) -> None:
        """Called by an event this process subscribed to."""
        if self.state is not ProcessState.WAITING or fired not in self._waiting_on:
            # Stale or duplicate notification (e.g. the same event listed
            # twice in an AnyOf, or two notifications landing in one
            # delta): the process is already runnable — waking it again
            # would step it twice in the same delta cycle.
            return
        for event in self._waiting_on:
            if event is not fired:
                event._unsubscribe(self)
        self._waiting_on = ()
        self._timeout_event = None
        self._cancel_timed_wait()  # Timeout waits also park a timed entry
        self.state = ProcessState.READY
        self.sim._make_runnable(self)

    def _wake_from_timer(self) -> None:
        """Called by the scheduler for fast-path timed/zero-delay waits."""
        if self.state is not ProcessState.WAITING:
            return  # stale entry: the process already woke another way
        self._timed_handle = None
        if self._waiting_on:
            # A Timeout wait expired: drop the event subscription too.
            for event in self._waiting_on:
                event._unsubscribe(self)
            self._waiting_on = ()
        self.state = ProcessState.READY
        self.sim._make_runnable(self)

    def _cancel_timed_wait(self) -> None:
        if self._timed_handle is not None:
            self._timed_handle.cancelled = True
            self._timed_handle = None

    @property
    def finished(self) -> bool:
        return self.state in (ProcessState.FINISHED, ProcessState.FAILED)

    def __repr__(self) -> str:
        return f"Process({self.name!r}, {self.state.value})"


def join(processes: Iterable[Process]) -> ProcessBody:
    """Blocking helper: wait until every given process has terminated."""
    for proc in processes:
        if not proc.finished:
            yield proc.done_event
