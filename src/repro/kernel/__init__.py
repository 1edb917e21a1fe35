"""``repro.kernel`` — a SystemC-like discrete-event simulation kernel.

The kernel provides the substrate every OSSS model runs on: simulated time
(:class:`SimTime`), events with immediate/delta/timed notification
(:class:`Event`), generator-coroutine processes, evaluate/update signal
semantics (:class:`Signal`), clocks, FIFOs and synchronisation primitives,
all coordinated by :class:`Simulator`.
"""

from .event import Event
from .fifo import Fifo
from .module import Module
from .process import AllOf, AnyOf, Process, ProcessState, Timeout, join
from .scheduler import (
    ProcessError,
    SimulationError,
    Simulator,
    default_fast,
    set_default_fast,
)
from .signal import Clock, ResetSignal, Signal
from .sync import Barrier, Mutex, Semaphore
from .time import ZERO_TIME, SimTime, fs, ms, ns, ps, sec, us
from .tracing import SimProfiler

__all__ = [
    "AllOf",
    "AnyOf",
    "Barrier",
    "Clock",
    "Event",
    "Fifo",
    "Module",
    "Mutex",
    "Process",
    "ProcessError",
    "ProcessState",
    "ResetSignal",
    "Semaphore",
    "Signal",
    "SimProfiler",
    "SimTime",
    "SimulationError",
    "Simulator",
    "Timeout",
    "ZERO_TIME",
    "default_fast",
    "fs",
    "join",
    "ms",
    "ns",
    "ps",
    "sec",
    "set_default_fast",
    "us",
]
