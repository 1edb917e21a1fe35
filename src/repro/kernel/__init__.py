"""``repro.kernel`` — a SystemC-like discrete-event simulation kernel.

The kernel provides the substrate every OSSS model runs on: simulated time
(:class:`SimTime`), events with immediate/delta/timed notification
(:class:`Event`), generator-coroutine processes, evaluate/update signal
semantics (:class:`Signal`), clocks, FIFOs and synchronisation primitives,
all coordinated by :class:`Simulator`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "AllOf": ".process",
    "AnyOf": ".process",
    "Barrier": ".sync",
    "Clock": ".signal",
    "Event": ".event",
    "Fifo": ".fifo",
    "Module": ".module",
    "Mutex": ".sync",
    "Process": ".process",
    "ProcessError": ".scheduler",
    "ProcessState": ".process",
    "ResetSignal": ".signal",
    "Semaphore": ".sync",
    "Signal": ".signal",
    "SimProfiler": ".tracing",
    "SimTime": ".time",
    "SimulationError": ".scheduler",
    "Simulator": ".scheduler",
    "Timeout": ".process",
    "ZERO_TIME": ".time",
    "default_fast": ".scheduler",
    "fs": ".time",
    "join": ".process",
    "ms": ".time",
    "ns": ".time",
    "ps": ".time",
    "sec": ".time",
    "set_default_fast": ".scheduler",
    "us": ".time",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
