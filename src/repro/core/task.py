"""Software Tasks: the single-process active components of OSSS.

A Software Task holds exactly one process (OSSS restriction) and is the
unit of software mapping: on the VTA layer, N tasks map onto one
:class:`~repro.vta.processor.SoftwareProcessor`.  On the Application Layer
the task runs unconstrained — conceptually on its own ideal processor —
which is why version 4's four tasks give a near-4x speed-up there.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..kernel import Module, Process, SimTime, Simulator
from .interfaces import Port
from .timing import eet


class SoftwareTask(Module):
    """Base class for software tasks; override :meth:`main`.

    Subclasses implement ``main(self)`` as a generator.  ``self.eet(t)``
    annotates computation time; ports are created with :meth:`port` and
    used with ``yield from port.call(...)``.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.ports: list[Port] = []
        self._process: Optional[Process] = None
        #: Set by VTA mapping: the processor this task was assigned to.
        self.mapped_processor = None
        #: Multiplies every EET duration; processors use it to model the
        #: slowdown of time-sharing one CPU among several tasks.
        self.eet_scale = 1.0

    def port(self, name: str = "port") -> Port:
        port = Port(self, name)
        self.ports.append(port)
        return port

    def start(self) -> Process:
        """Spawn the task's single process (idempotent)."""
        if self._process is None:
            self._process = self.add_thread(self.main, name="main")
        return self._process

    @property
    def process(self) -> Optional[Process]:
        return self._process

    @property
    def finished(self) -> bool:
        return self._process is not None and self._process.finished

    def main(self):
        raise NotImplementedError(f"{type(self).__name__} must implement main()")
        yield  # pragma: no cover - marks main() as a generator function

    def eet(self, duration: SimTime, body: Optional[Callable[[], object]] = None):
        """Estimated-execution-time block, scaled by the processor mapping.

        On the Application Layer this simply consumes *duration*.  Once the
        task is mapped (VTA layer), the same call competes for the
        processor's time slices instead — behavioural code is untouched by
        the refinement.
        """
        scaled = duration * self.eet_scale if self.eet_scale != 1.0 else duration
        if self.mapped_processor is not None:
            return self.mapped_processor.execute(self, scaled, body)
        return eet(scaled, body)


class FunctionTask(SoftwareTask):
    """A software task built from a free generator function.

    ``FunctionTask(sim, "dec", body_fn, arg1, ...)`` runs
    ``body_fn(task, arg1, ...)`` as the task body — convenient for the many
    small tasks of the case-study models.
    """

    def __init__(self, sim: Simulator, name: str, body_fn: Callable, *args):
        super().__init__(sim, name)
        self._body_fn = body_fn
        self._args = args

    def main(self):
        result = yield from self._body_fn(self, *self._args)
        return result
