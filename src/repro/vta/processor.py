"""Software processors: N-to-1 task mapping with time-sharing.

``add_sw_task`` mirrors the paper's mapping call: the task keeps its
behaviour, but every EET it consumes now competes for the processor.  The
processor round-robins between ready tasks in fixed time slices
and charges a context-switch penalty whenever the running task changes,
so mapping four tasks onto one core really does cost ~4x plus overhead
(and mapping them onto four cores does not).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..kernel import Event, Module, SimTime, Simulator
from ..core.task import SoftwareTask
from ..core.timing import CycleBudget

#: Preemption quantum for time-sharing: 1 ms at 100 MHz.
TIME_SLICE_CYCLES = 100_000
#: Pipeline/refill penalty when the running task changes.
CONTEXT_SWITCH_CYCLES = 200


class SoftwareProcessor(Module):
    """A processor resource executing the EETs of its mapped tasks."""

    def __init__(self, sim: Simulator, name: str, budget: CycleBudget):
        super().__init__(sim, name)
        self.budget = budget
        self.time_slice = budget.cycles(TIME_SLICE_CYCLES)
        self.context_switch = budget.cycles(CONTEXT_SWITCH_CYCLES)
        self.tasks: list[SoftwareTask] = []
        self._run_queue: deque["_Slot"] = deque()
        self._cpu_free = Event(sim, f"{name}.cpu_free")
        self._running: Optional["_Slot"] = None
        self._last_task: Optional[SoftwareTask] = None
        self.busy_fs = 0
        self.switches = 0

    # -- mapping -----------------------------------------------------------------

    def add_sw_task(self, task: SoftwareTask) -> None:
        """Map *task* onto this processor (the paper's ``add_sw_task``)."""
        if task.mapped_processor is not None:
            raise RuntimeError(f"task {task.name!r} is already mapped")
        task.mapped_processor = self
        self.tasks.append(task)

    # -- execution service ----------------------------------------------------------

    def execute(self, task: SoftwareTask, duration: SimTime, body: Optional[Callable[[], object]] = None):
        """Consume *duration* of CPU time on behalf of *task* (blocking).

        The requested duration is split into time slices; between slices
        other ready tasks may run, and each change of the running task
        charges the context-switch penalty.
        """
        result = body() if body is not None else None
        remaining_fs = duration.femtoseconds
        if (
            self.sim.fast
            and len(self.tasks) <= 1
            and self._running is None
            and not self._run_queue
        ):
            # Single-task fast path: with no other task mapped (and no
            # competing request in flight) there is no preemption source,
            # so slicing the duration cannot change anything observable —
            # consume it in one timed wait.  The slice loop below remains
            # the reference semantics for shared processors.
            self._last_task = task
            if remaining_fs:
                yield SimTime.intern(remaining_fs)
                self.busy_fs += remaining_fs
            return result
        while remaining_fs > 0:
            slot = _Slot(self.sim, task)
            self._run_queue.append(slot)
            self._dispatch()
            yield slot.granted
            slice_fs = min(remaining_fs, self.time_slice.femtoseconds)
            if self._last_task is not None and self._last_task is not task:
                slice_fs += self.context_switch.femtoseconds
                self.switches += 1
                remaining_fs += self.context_switch.femtoseconds
            self._last_task = task
            yield SimTime.intern(slice_fs)
            self.busy_fs += slice_fs
            remaining_fs -= slice_fs
            self._running = None
            self._dispatch()
        return result

    def _dispatch(self) -> None:
        if self._running is None and self._run_queue:
            self._running = self._run_queue.popleft()
            self._running.granted.notify(delta=True)

    def __repr__(self) -> str:
        return f"SoftwareProcessor({self.name!r}, tasks={len(self.tasks)})"


class _Slot:
    __slots__ = ("task", "granted")

    def __init__(self, sim: Simulator, task: SoftwareTask):
        self.task = task
        self.granted = Event(sim, f"{task.name}.cpu_grant")
