"""``repro.kernel`` — a SystemC-like discrete-event simulation kernel.

The kernel provides the substrate every OSSS model runs on: simulated time
(:class:`SimTime`), events with immediate/delta/timed notification
(:class:`Event`), generator-coroutine processes and bounded FIFOs, all
coordinated by :class:`Simulator`.  The models talk through transactions
(events, FIFOs, Shared-Object calls), so there are no pin-level signals
or clocks.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "AnyOf": ".process",
    "Event": ".event",
    "Fifo": ".fifo",
    "Module": ".module",
    "Process": ".process",
    "ProcessError": ".scheduler",
    "ProcessState": ".process",
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
