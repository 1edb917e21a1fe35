"""``repro.casestudy`` — the JPEG 2000 decoder case study.

The behaviours the nine design versions of the paper's Table 1 are built
from (Shared Objects, IDWT hardware blocks, the workload), the Fig. 1
profiling model, and ``run_version``, which elaborates one catalog spec
(Application Layer 1-5, VTA 6a-7b) and simulates it.  The Table 1
reconstruction itself lives in the experiment registry
(``python -m repro sweep table1``).
"""

from ..design import DecodingReport
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
from .workload import Workload, functional_workload, paper_workload

__all__ = [
    "ALL_VERSIONS",
    "ARITH_MS_PER_TILE",
    "CYCLES_PER_OP",
    "DecodingReport",
    "PAPER_SHARES_LOSSLESS",
    "PAPER_SHARES_LOSSY",
    "PROFILE_LOSSLESS",
    "PROFILE_LOSSY",
    "ROW_LABELS",
    "StageTimes",
    "Workload",
    "functional_workload",
    "measured_shares",
    "measured_stage_times",
    "paper_workload",
    "profile_for",
    "run_version",
    "stage_times_from_shares",
]
