"""``repro.core`` — the OSSS Application Layer modelling library.

This is the paper's primary contribution, part 1: a synthesisable system
description vocabulary on top of the simulation kernel — hardware modules,
single-process Software Tasks, passive Shared Objects with guarded and
arbitrated method-based communication, EET timing annotations, and the
serialisation machinery that later feeds the VTA channels.  Data stays
plain Python values; bit widths enter only through the serialisation
(:func:`payload_bits`) and FOSSY's synthesis IR.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ALWAYS": ".guards",
    "ArbitrationPolicy": ".arbiter",
    "BindingError": ".interfaces",
    "ClientHandle": ".arbiter",
    "CycleBudget": ".timing",
    "DEFAULT_SCALAR_BITS": ".serialisation",
    "Fcfs": ".arbiter",
    "FunctionTask": ".task",
    "Guard": ".guards",
    "MethodSpec": ".shared",
    "OsssModule": ".module",
    "Port": ".interfaces",
    "Request": ".arbiter",
    "RoundRobin": ".arbiter",
    "Serialisable": ".serialisation",
    "SerialisationError": ".serialisation",
    "SerialisedPayload": ".serialisation",
    "SharedObject": ".shared",
    "SharedObjectStats": ".shared",
    "SoftwareTask": ".task",
    "StaticPriority": ".arbiter",
    "eet": ".timing",
    "guarded": ".guards",
    "guarded_args": ".guards",
    "osss_method": ".shared",
    "payload_bits": ".serialisation",
    "serialise_call": ".serialisation",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
