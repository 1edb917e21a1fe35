"""The discrete-event simulator: evaluate / notify phases.

The scheduling algorithm follows the SystemC reference semantics, less the
update phase: the kernel has no primitive channels with deferred writes
(``sc_signal``), because the models communicate through events, FIFOs and
Shared-Object calls only.

1. **Evaluate** — run every runnable process until it suspends.  Immediate
   notifications issued here make processes runnable within the same phase.
2. **Delta notification** — fire events notified with a delta delay; if any
   process became runnable, start a new delta cycle at the same time.
3. **Timed notification** — otherwise advance simulated time to the earliest
   pending timed notification and fire it.

Simulation ends when no runnable process and no pending notification remain,
or when an optional time limit is reached.

Fast paths
----------

The kernel carries two scheduling representations for the common wait
patterns, selected per :class:`Simulator` by the ``fast`` flag (default on,
overridable with the ``REPRO_KERNEL_FAST`` environment variable or
:func:`set_default_fast`):

* ``yield SimTime(...)`` normally builds a throwaway :class:`Event`, routes
  it through the notification machinery and tears it down again.  The fast
  path instead parks the process directly on the timed heap
  (:class:`_TimedWake`) — one heap entry, no Event, no subscribe /
  unsubscribe churn.
* components can schedule plain callbacks into the delta-notification
  phase (:meth:`Simulator._schedule_delta_call`), which lets bus arbiters
  and Shared-Object schedulers run as end-of-delta callbacks instead of
  always-on processes.
* :meth:`Simulator.quiet_until` tells the running process how long
  nothing else can act, so a component can settle work it provably does
  alone in one step (the RMI status-poll fast-forward).

Both representations produce identical simulated timestamps and delta
counts for the visible behaviour; the reference (slow) mode is kept alive
so property tests can diff the two schedulers on random process graphs.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from time import perf_counter
from typing import Callable, Optional

from .event import Event
from .process import Process, ProcessBody, ProcessState
from .time import SimTime, ZERO_TIME
from .. import telemetry as _telemetry

#: Process-level default for the per-simulator ``fast`` flag.
_DEFAULT_FAST = os.environ.get("REPRO_KERNEL_FAST", "1") != "0"


def set_default_fast(enabled: bool) -> bool:
    """Set the default ``fast`` mode of newly built simulators.

    Returns the previous default so callers (the substrate-invariance
    test mainly) can restore it in a ``finally`` block.
    """
    global _DEFAULT_FAST
    previous = _DEFAULT_FAST
    _DEFAULT_FAST = bool(enabled)
    return previous


def default_fast() -> bool:
    """The current default of the ``fast`` flag."""
    return _DEFAULT_FAST


class SimulationError(RuntimeError):
    """A process raised, or the kernel detected an inconsistency."""


class ProcessError(SimulationError):
    """Wraps an exception escaping a process body."""

    def __init__(self, process: Process, cause: BaseException):
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.cause = cause


class _TimedEntry:
    """Heap entry for a timed event notification (lazily cancellable)."""

    __slots__ = ("at_fs", "seq", "event", "cancelled")

    def __init__(self, at_fs: int, seq: int, event: Event):
        self.at_fs = at_fs
        self.seq = seq
        self.event = event
        self.cancelled = False

    def fire(self) -> None:
        self.event._fire()

    def __lt__(self, other) -> bool:
        if self.at_fs != other.at_fs:
            return self.at_fs < other.at_fs
        return self.seq < other.seq


class _TimedWake:
    """Heap entry waking one process directly (timed-wait fast path)."""

    __slots__ = ("at_fs", "seq", "proc", "cancelled")

    def __init__(self, at_fs: int, seq: int, proc: Process):
        self.at_fs = at_fs
        self.seq = seq
        self.proc = proc
        self.cancelled = False

    def fire(self) -> None:
        self.proc._wake_from_timer()

    def __lt__(self, other) -> bool:
        if self.at_fs != other.at_fs:
            return self.at_fs < other.at_fs
        return self.seq < other.seq


class _DeltaEntry:
    """Delta-queue entry firing an event (lazily cancellable)."""

    __slots__ = ("event", "cancelled")

    def __init__(self, event: Event):
        self.event = event
        self.cancelled = False

    def fire(self) -> None:
        self.event._fire()


class _DeltaWake:
    """Delta-queue entry waking one process directly (zero-delay wait)."""

    __slots__ = ("proc", "cancelled")

    def __init__(self, proc: Process):
        self.proc = proc
        self.cancelled = False

    def fire(self) -> None:
        self.proc._wake_from_timer()


class _DeltaCall:
    """Delta-queue entry running a plain callback (arbiter fast path)."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.cancelled = False

    def fire(self) -> None:
        self.fn()


class Simulator:
    """Owns simulated time, the event queues, and all processes."""

    def __init__(self, fast: Optional[bool] = None):
        self._now_fs = 0
        self._now_cache: Optional[SimTime] = ZERO_TIME
        self._runnable: deque[Process] = deque()
        self._delta_queue: list = []
        self._timed_queue: list = []
        self._seq = itertools.count()
        self.processes: list[Process] = []
        self.delta_count = 0
        #: Raised process errors abort the run; kept for post-mortem access.
        self.failure: Optional[ProcessError] = None
        self._running = False
        #: The active ``run(until=...)`` limit [fs], or ``None``.
        self._limit_fs: Optional[int] = None
        #: Enables the kernel fast paths (direct timed process wakes and
        #: delta callbacks).  Components such as the VTA channels consult
        #: this flag to pick their own fast/reference scheduling.
        self.fast = _DEFAULT_FAST if fast is None else bool(fast)
        #: When set (see :class:`~repro.kernel.tracing.SimProfiler`), every
        #: process step is timed and attributed.
        self.profiler = None
        #: The telemetry recorder active at construction time, or ``None``.
        #: Components reach telemetry through this cached reference, so a
        #: disabled run costs one attribute read and a branch per site; the
        #: kernel loops below additionally hoist that check out of the hot
        #: path entirely.
        self.telemetry = _telemetry.active()
        if self.telemetry is not None:
            self.telemetry.bind_sim(self)

    # -- public API ----------------------------------------------------------

    @property
    def now(self) -> SimTime:
        cached = self._now_cache
        if cached is not None and cached._fs == self._now_fs:
            return cached
        cached = SimTime.from_fs(self._now_fs)
        self._now_cache = cached
        return cached

    def event(self, name: str = "event") -> Event:
        return Event(self, name)

    def spawn(self, body: ProcessBody, name: str = "process") -> Process:
        """Register a generator as a process, runnable at the current time."""
        proc = Process(self, body, name)
        self.processes.append(proc)
        self._runnable.append(proc)
        return proc

    def run(self, until: Optional[SimTime] = None) -> SimTime:
        """Run until quiescence or *until* (inclusive); returns final time."""
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        limit_fs = self._limit_fs = (
            until.femtoseconds if until is not None else None
        )
        observing = _telemetry.flight_recorder() is not None
        if observing:
            _telemetry.log_event(
                "kernel.run", processes=len(self.processes),
                from_fs=self._now_fs, until_fs=limit_fs,
            )
        try:
            while True:
                self._run_deltas()
                if self.failure is not None:
                    raise self.failure
                next_at = self._peek_timed()
                if next_at is None:
                    break
                if limit_fs is not None and next_at > limit_fs:
                    self._now_fs = limit_fs
                    break
                self._now_fs = next_at
                self._fire_due_timed()
        except BaseException as error:
            if observing:
                _telemetry.log_event(
                    "kernel.failed", error=type(error).__name__,
                    now_fs=self._now_fs,
                )
            raise
        finally:
            self._running = False
        if observing:
            _telemetry.log_event(
                "kernel.quiescent", now_fs=self._now_fs,
                deltas=self.delta_count,
            )
        return self.now

    def quiet_until(self) -> Optional[int]:
        """The instant [fs] before which only the running process can act.

        With nothing else runnable and no delta notification pending, the
        next activity is the earliest pending timed entry or the
        ``run(until=...)`` limit, whichever is sooner.  Returns the
        current time when anything else is runnable or delta-pending, and
        ``None`` when neither a timed entry nor a limit bounds the window.
        """
        if self._runnable or self._delta_queue:
            return self._now_fs
        next_at = self._peek_timed()
        limit_fs = self._limit_fs
        if next_at is None or limit_fs is None:
            return limit_fs if next_at is None else next_at
        return min(next_at, limit_fs)

    # -- scheduler internals ---------------------------------------------------

    def _run_deltas(self) -> None:
        """One or more delta cycles at the current time point."""
        if self.profiler is not None or self.telemetry is not None:
            self._run_deltas_instrumented()
            return
        runnable = self._runnable
        ready = ProcessState.READY
        while runnable or self._delta_queue:
            self.delta_count += 1
            # Evaluate phase.
            while runnable:
                proc = runnable.popleft()
                if proc.state is ready:
                    proc._step()
                    if self.failure is not None:
                        return
            # Delta-notification phase.
            if self._delta_queue:
                deltas, self._delta_queue = self._delta_queue, []
                for entry in deltas:
                    if not entry.cancelled:
                        entry.fire()

    def _run_deltas_instrumented(self) -> None:
        """The evaluate loop with profiler timing and/or telemetry counts.

        Kept separate from :meth:`_run_deltas` so a disabled run
        executes the bare loop with no per-step bookkeeping at all; the
        step/delta totals flush into the metrics registry once per time
        point, keeping the enabled overhead to one local int add per step.
        """
        runnable = self._runnable
        ready = ProcessState.READY
        steps = 0
        deltas_run = 0
        try:
            while runnable or self._delta_queue:
                self.delta_count += 1
                deltas_run += 1
                # Evaluate phase.
                profiler = self.profiler
                if profiler is None:
                    while runnable:
                        proc = runnable.popleft()
                        if proc.state is ready:
                            proc._step()
                            steps += 1
                            if self.failure is not None:
                                return
                else:
                    while runnable:
                        proc = runnable.popleft()
                        if proc.state is ready:
                            started = perf_counter()
                            proc._step()
                            profiler._record(
                                proc, perf_counter() - started, self.delta_count
                            )
                            steps += 1
                            if self.failure is not None:
                                return
                # Delta-notification phase.
                if self._delta_queue:
                    deltas, self._delta_queue = self._delta_queue, []
                    for entry in deltas:
                        if not entry.cancelled:
                            entry.fire()
        finally:
            tel = self.telemetry
            if tel is not None and deltas_run:
                metrics = tel.metrics
                metrics.count("kernel.delta_cycles", deltas_run)
                metrics.count("kernel.process_steps", steps)

    def _peek_timed(self) -> Optional[int]:
        queue = self._timed_queue
        while queue and queue[0].cancelled:
            heapq.heappop(queue)
        if not queue:
            return None
        return queue[0].at_fs

    def _fire_due_timed(self) -> None:
        """Fire every entry due now — same-timestamp wakes are batched."""
        queue = self._timed_queue
        now_fs = self._now_fs
        pop = heapq.heappop
        tel = self.telemetry
        if tel is None:
            while queue and (queue[0].cancelled or queue[0].at_fs == now_fs):
                entry = pop(queue)
                if not entry.cancelled:
                    entry.fire()
            return
        fired = 0
        while queue and (queue[0].cancelled or queue[0].at_fs == now_fs):
            entry = pop(queue)
            if not entry.cancelled:
                entry.fire()
                fired += 1
        if fired:
            tel.metrics.count("kernel.timer_pops", fired)

    # -- hooks used by Event / Process / channels ------------------------------

    def _trigger_now(self, event: Event) -> None:
        event._fire()

    def _schedule_delta(self, event: Event) -> _DeltaEntry:
        entry = _DeltaEntry(event)
        self._delta_queue.append(entry)
        return entry

    def _schedule_delta_wake(self, proc: Process) -> _DeltaWake:
        """Fast path: wake *proc* in the next delta cycle (zero-delay wait)."""
        entry = _DeltaWake(proc)
        self._delta_queue.append(entry)
        return entry

    def _schedule_delta_call(self, fn: Callable[[], None]) -> _DeltaCall:
        """Run *fn* in this timestamp's next delta-notification phase.

        The callback runs exactly where an always-on arbiter process woken
        by a delta-notified event would make its decision visible, so
        event-driven arbiters built on this hook reproduce the reference
        process-based timing without paying a process wake per decision.
        """
        entry = _DeltaCall(fn)
        self._delta_queue.append(entry)
        return entry

    def _schedule_timed(self, event: Event, at_fs: int) -> _TimedEntry:
        entry = _TimedEntry(at_fs, next(self._seq), event)
        heapq.heappush(self._timed_queue, entry)
        return entry

    def _schedule_timed_wake(self, proc: Process, at_fs: int) -> _TimedWake:
        """Fast path: park *proc* directly on the timed heap (no Event)."""
        entry = _TimedWake(at_fs, next(self._seq), proc)
        heapq.heappush(self._timed_queue, entry)
        return entry

    def _make_runnable(self, proc: Process) -> None:
        self._runnable.append(proc)

    def _process_failed(self, proc: Process, exc: BaseException) -> None:
        self.failure = ProcessError(proc, exc)

    def __repr__(self) -> str:
        return f"Simulator(now={self.now}, processes={len(self.processes)})"
