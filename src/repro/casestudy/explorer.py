"""Run one design version of the case study.

``run_version`` elaborates one of the nine catalog specs *or* an
arbitrary :class:`~repro.design.spec.DesignSpec` through
:func:`repro.design.elaborate_design` and simulates it.  Table 1 itself
— the whole matrix in both modes, its derived columns and the shape
relations the paper states in prose — is built by the experiment
registry (:mod:`repro.experiments.defs`).
"""

from __future__ import annotations

from typing import Optional, Union

from ..design import DecodingReport, DesignSpec, catalog, elaborate_design
from .workload import Workload, paper_workload

#: All catalog version identifiers, in Table 1 row order.
ALL_VERSIONS = tuple(catalog.names())


def run_version(
    version: Union[str, DesignSpec],
    lossless: bool,
    workload: Optional[Workload] = None,
) -> DecodingReport:
    """Build and simulate one design; returns its report.

    *version* is a catalog identifier or a :class:`DesignSpec`; either
    is validated and elaborated.
    """
    if workload is None:
        workload = paper_workload(lossless)
    spec = version if isinstance(version, DesignSpec) else catalog.get(version)
    return elaborate_design(spec, workload).run()
