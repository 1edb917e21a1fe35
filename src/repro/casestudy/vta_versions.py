"""The Virtual Target Architecture mappings of Table 1 (rows 6a-7b).

The behavioural models are versions 3 and 5 unchanged; the specs differ
only in their *mapping* section:

* **6a** — version 3 mapped; every link to the HW/SW Shared Object runs
  over one shared OPB bus.
* **6b** — version 3 mapped; the IDWT hardware links move to dedicated
  point-to-point channels, only the software traffic stays on the bus.
* **7a/7b** — the same two mappings applied to version 5, with each of the
  four software tasks on its own processor (all competing for the single
  OPB in 7a).

Links to the IDWT-params Shared Object are always point-to-point, and the
tasks always map onto processors — exactly the refinement steps listed in
section 3.2 of the paper (processor mapping, object sockets, data
serialisation, explicit memory insertion, channel mapping).

Like :mod:`repro.casestudy.versions`, these classes are thin shims: the
mappings live as data in :mod:`repro.design.catalog`, elaborated by
:class:`~repro.design.elaborate.ElaboratedModel`.
"""

from __future__ import annotations

from typing import Callable

from ..design import catalog
from ..design.elaborate import ElaboratedModel
from .profiles import BRAM_EXTRA_CYCLES_PER_SAMPLE, RMI_CHUNK_WORDS
from .workload import Workload

__all__ = [
    "CatalogVtaModel",
    "VTA_COMPUTE_INFLATION",
    "VTA_RAM_SECONDS_PER_WORD",
    "VTA_VERSIONS",
    "Version6aBusOnly",
    "Version6bBusAndP2p",
    "Version7aBusOnly",
    "Version7bBusAndP2p",
    "scaled_parallel_version",
]

#: Explicit-memory insertion: the hardware IQ/IDWT datapaths read and
#: write single-port block RAM instead of distributed registers, roughly
#: doubling the cycles per processed sample.
VTA_COMPUTE_INFLATION = 1.0 + BRAM_EXTRA_CYCLES_PER_SAMPLE

#: Block-RAM access time charged inside the Shared Object per stored word.
VTA_RAM_SECONDS_PER_WORD = catalog.RAM_SECONDS_PER_WORD


class CatalogVtaModel(ElaboratedModel):
    """A VTA model class pinned to one registered design spec."""

    spec_name = ""

    def __init__(self, workload: Workload):
        super().__init__(self._design_spec(), workload)

    @classmethod
    def _design_spec(cls):
        # ``RMI_CHUNK_WORDS`` is resolved at construction time so
        # experiments can rebind the module global and sweep the RMI
        # serialisation chunk (the ``ablation_chunking`` experiment).
        return catalog.with_chunk_words(catalog.get(cls.spec_name), RMI_CHUNK_WORDS)


class Version6aBusOnly(CatalogVtaModel):
    """6a — version 3 on the VTA, HW/SW SO reachable via the OPB only."""

    version = spec_name = "6a"


class Version6bBusAndP2p(CatalogVtaModel):
    """6b — version 3 on the VTA, IDWT links on point-to-point channels."""

    version = spec_name = "6b"


class Version7aBusOnly(CatalogVtaModel):
    """7a — version 5 on the VTA, four processors sharing the OPB."""

    version = spec_name = "7a"


class Version7bBusAndP2p(CatalogVtaModel):
    """7b — version 5 on the VTA, IDWT links on point-to-point channels."""

    version = spec_name = "7b"


#: VTA registry, in Table 1 order.
VTA_VERSIONS: dict[str, Callable[[Workload], ElaboratedModel]] = {
    "6a": Version6aBusOnly,
    "6b": Version6bBusAndP2p,
    "7a": Version7aBusOnly,
    "7b": Version7bBusAndP2p,
}


def scaled_parallel_version(num_tasks: int, idwt_links_p2p: bool):
    """A 7a/7b-style mapping with *num_tasks* processors.

    The paper closes on "7b does better scale with increasing parallelism";
    this factory builds the models that quantify it (the ``scaling``
    experiment, checked by ``tests/integration/test_ablations.py``).
    """
    if num_tasks < 1:
        raise ValueError("at least one software task is required")
    suffix = "b" if idwt_links_p2p else "a"

    def _design_spec(cls):
        return catalog.with_chunk_words(
            catalog.scaled_vta_spec(num_tasks, idwt_links_p2p), RMI_CHUNK_WORDS
        )

    return type(
        f"Scaled7{suffix}x{num_tasks}",
        (CatalogVtaModel,),
        {
            "version": f"7{suffix}-n{num_tasks}",
            "_design_spec": classmethod(_design_spec),
        },
    )
