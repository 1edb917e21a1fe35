"""``repro.casestudy`` — the JPEG 2000 decoder case study.

The behaviours the nine design versions of the paper's Table 1 are built
from (Shared Objects, IDWT hardware blocks, the workload), the Fig. 1
profiling model, and ``run_version``, which elaborates one catalog spec
(Application Layer 1-5, VTA 6a-7b) and simulates it.  The Table 1
reconstruction itself lives in the experiment registry
(``python -m repro sweep table1``).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ALL_VERSIONS": ".explorer",
    "ARITH_MS_PER_TILE": ".profiles",
    "CYCLES_PER_OP": ".profiles",
    "DecodingReport": "..design.elaborate",
    "PAPER_SHARES_LOSSLESS": ".profiles",
    "PAPER_SHARES_LOSSY": ".profiles",
    "PROFILE_LOSSLESS": ".profiles",
    "PROFILE_LOSSY": ".profiles",
    "ROW_LABELS": "..design.catalog",
    "StageTimes": ".profiles",
    "Workload": ".workload",
    "functional_workload": ".workload",
    "measured_shares": ".profiles",
    "measured_stage_times": ".profiles",
    "paper_workload": ".workload",
    "profile_for": ".profiles",
    "run_version": ".explorer",
    "stage_times_from_shares": ".profiles",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
