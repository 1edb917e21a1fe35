"""``repro.casestudy`` — the JPEG 2000 decoder case study.

All nine design versions of the paper's Table 1 as executable OSSS models
(Application Layer 1-5, VTA 6a-7b), the Fig. 1 profiling model, and
``run_version``, which simulates one of them.  The Table 1 reconstruction
itself lives in the experiment registry (``python -m repro sweep table1``).
"""

from .explorer import ALL_VERSIONS, ROW_LABELS, run_version
from .profiles import (
    ARITH_MS_PER_TILE,
    CYCLES_PER_OP,
    PAPER_SHARES_LOSSLESS,
    PAPER_SHARES_LOSSY,
    PROFILE_LOSSLESS,
    PROFILE_LOSSY,
    StageTimes,
    measured_shares,
    measured_stage_times,
    profile_for,
    stage_times_from_shares,
)
from .versions import APPLICATION_VERSIONS, DecodingReport
from .vta_versions import VTA_VERSIONS
from .workload import Workload, functional_workload, paper_workload

__all__ = [
    "ALL_VERSIONS",
    "APPLICATION_VERSIONS",
    "ARITH_MS_PER_TILE",
    "CYCLES_PER_OP",
    "DecodingReport",
    "PAPER_SHARES_LOSSLESS",
    "PAPER_SHARES_LOSSY",
    "PROFILE_LOSSLESS",
    "PROFILE_LOSSY",
    "ROW_LABELS",
    "StageTimes",
    "VTA_VERSIONS",
    "Workload",
    "functional_workload",
    "measured_shares",
    "measured_stage_times",
    "paper_workload",
    "profile_for",
    "run_version",
    "stage_times_from_shares",
]
