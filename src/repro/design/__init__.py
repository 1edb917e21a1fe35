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
from .elaborate import DecodingReport, ElaboratedModel, elaborate_design
from .spec import (
    BufferSpec,
    ChannelSpec,
    DatapathSpec,
    DesignSpec,
    ExternalMemorySpec,
    HardwareModuleSpec,
    LinkSpec,
    MappingSpec,
    MemoryPlacementSpec,
    MemorySpec,
    ProcessorSpec,
    SharedObjectSpec,
    SynthesisBlockSpec,
    TaskSpec,
    spec_from_dict,
)
from .topology import model_topology
from .validate import (
    SpecValidationError,
    ValidationIssue,
    check_spec,
    validate_spec,
)

__all__ = [
    "BufferSpec",
    "ChannelSpec",
    "DatapathSpec",
    "DecodingReport",
    "DesignSpec",
    "ElaboratedModel",
    "ExternalMemorySpec",
    "HardwareModuleSpec",
    "LinkSpec",
    "MappingSpec",
    "MemoryPlacementSpec",
    "MemorySpec",
    "ProcessorSpec",
    "SharedObjectSpec",
    "SpecValidationError",
    "SynthesisBlockSpec",
    "TaskSpec",
    "ValidationIssue",
    "catalog",
    "check_spec",
    "elaborate_design",
    "model_topology",
    "spec_from_dict",
    "validate_spec",
]
