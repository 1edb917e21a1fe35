"""``repro.design`` — the declarative DesignSpec IR.

One design description — tasks, Shared Objects, hardware modules,
memories, and an explicit mapping onto processors, channels, block RAMs,
and RMI transports — statically validated and elaborated to every
abstraction level:

* :mod:`repro.design.spec` — the frozen dataclasses of the IR,
* :mod:`repro.design.validate` — the static validation pass,
* :mod:`repro.design.catalog` — the nine paper versions as pure data,
* :mod:`repro.design.elaborate` — Application-Layer / VTA elaboration,
* :mod:`repro.design.topology` — structural fingerprint of a built model
  (used by the parity tests that pin elaboration to the seed models).

The FOSSY flow (``repro.fossy.flow``) consumes the same specs for the
synthesis hand-off, closing the loop the paper calls seamless refinement.
"""

from . import catalog
from .._lazy import lazy_exports

_EXPORTS = {
    "BufferSpec": ".spec",
    "ChannelSpec": ".spec",
    "DatapathSpec": ".spec",
    "DecodingReport": ".elaborate",
    "DesignSpec": ".spec",
    "ElaboratedModel": ".elaborate",
    "HardwareModuleSpec": ".spec",
    "LinkSpec": ".spec",
    "MappingSpec": ".spec",
    "MemoryPlacementSpec": ".spec",
    "MemorySpec": ".spec",
    "ProcessorSpec": ".spec",
    "SharedObjectSpec": ".spec",
    "SpecValidationError": ".validate",
    "SynthesisBlockSpec": ".spec",
    "TaskSpec": ".spec",
    "ValidationIssue": ".validate",
    "check_spec": ".validate",
    "elaborate_design": ".elaborate",
    "model_topology": ".topology",
    "validate_spec": ".validate",
}

__all__ = sorted([*_EXPORTS, "catalog"])
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
