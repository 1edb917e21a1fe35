"""``repro.core`` — the OSSS Application Layer modelling library.

This is the paper's primary contribution, part 1: a synthesisable system
description vocabulary on top of the simulation kernel — hardware modules,
single-process Software Tasks, passive Shared Objects with guarded and
arbitrated method-based communication, EET timing annotations, and the
serialisation machinery that later feeds the VTA channels.  Data stays
plain Python values; bit widths enter only through the serialisation
(:func:`payload_bits`) and FOSSY's synthesis IR.
"""

from .arbiter import (
    ArbitrationPolicy,
    ClientHandle,
    Fcfs,
    Request,
    RoundRobin,
    StaticPriority,
)
from .guards import ALWAYS, Guard, guarded, guarded_args
from .interfaces import BindingError, Port
from .module import OsssModule
from .serialisation import (
    DEFAULT_SCALAR_BITS,
    Serialisable,
    SerialisationError,
    SerialisedPayload,
    payload_bits,
    serialise_call,
)
from .shared import MethodSpec, SharedObject, SharedObjectStats, osss_method
from .task import FunctionTask, SoftwareTask
from .timing import CycleBudget, eet

__all__ = [
    "ALWAYS",
    "ArbitrationPolicy",
    "BindingError",
    "ClientHandle",
    "CycleBudget",
    "DEFAULT_SCALAR_BITS",
    "Fcfs",
    "FunctionTask",
    "Guard",
    "MethodSpec",
    "OsssModule",
    "Port",
    "Request",
    "RoundRobin",
    "Serialisable",
    "SerialisationError",
    "SerialisedPayload",
    "SharedObject",
    "SharedObjectStats",
    "SoftwareTask",
    "StaticPriority",
    "eet",
    "guarded",
    "guarded_args",
    "osss_method",
    "payload_bits",
    "serialise_call",
]
