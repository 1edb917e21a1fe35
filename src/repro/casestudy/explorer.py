"""Run one design version of the case study.

``run_version`` executes any of the nine catalog models *or* an
arbitrary :class:`~repro.design.spec.DesignSpec` (generated designs are
first-class — they elaborate straight through
:func:`repro.design.elaborate_design`).  Table 1 itself — the whole
matrix in both modes, its derived columns and the shape relations the
paper states in prose — is built by the experiment registry
(:mod:`repro.experiments.defs`).
"""

from __future__ import annotations

from typing import Optional, Union

from ..design import catalog, elaborate_design
from ..design.spec import DesignSpec
from .versions import APPLICATION_VERSIONS, DecodingReport
from .vta_versions import VTA_VERSIONS
from .workload import Workload, paper_workload

_MODEL_CLASSES = {**APPLICATION_VERSIONS, **VTA_VERSIONS}

#: All model versions — row order comes from the design catalog (the
#: single source of truth for version identifiers and ordering).
ALL_VERSIONS = {name: _MODEL_CLASSES[name] for name in catalog.names()}

#: Table 1 row labels (paper wording), from the registered specs.
ROW_LABELS = {name: catalog.get(name).label for name in catalog.names()}


def run_version(
    version: Union[str, DesignSpec],
    lossless: bool,
    workload: Optional[Workload] = None,
) -> DecodingReport:
    """Build and simulate one design; returns its report.

    *version* is a catalog identifier (runs the registered model class)
    or a :class:`DesignSpec` (validated and elaborated directly).
    """
    if workload is None:
        workload = paper_workload(lossless)
    if isinstance(version, DesignSpec):
        return elaborate_design(version, workload).run()
    if version not in ALL_VERSIONS:
        raise KeyError(f"unknown version {version!r}; pick one of {sorted(ALL_VERSIONS)}")
    model = ALL_VERSIONS[version](workload)
    return model.run()
