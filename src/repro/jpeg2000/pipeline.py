"""Decoder stage instrumentation.

The case study profiles the decoder per pipeline stage (Fig. 1: arithmetic
decoding, IQ, IDWT, ICT, DC shift).  Every stage of our decoder reports
basic-operation counts into a :class:`StageOps` record; the case-study
profiler maps those to processor cycles.  Stage keys follow the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry as _telemetry

#: Stage identifiers, in pipeline order (Fig. 1).
STAGE_ARITH = "arith"
STAGE_IQ = "iq"
STAGE_IDWT = "idwt"
STAGE_ICT = "ict"
STAGE_DC = "dc"

ALL_STAGES = (STAGE_ARITH, STAGE_IQ, STAGE_IDWT, STAGE_ICT, STAGE_DC)


@dataclass
class StageOps:
    """Basic-operation counts per decoder stage.

    The unit is one primitive operation of the stage's inner loop:
    an MQ decode/renormalise step for ``arith``, a coefficient for ``iq``,
    a lifting add/multiply for ``idwt``, a sample for ``ict``/``dc``.
    """

    counts: dict = field(default_factory=lambda: {stage: 0 for stage in ALL_STAGES})

    def add(self, stage: str, amount: int) -> None:
        if stage not in self.counts:
            raise KeyError(f"unknown stage {stage!r}")
        self.counts[stage] += amount
        # Mirror the op counts into the metrics registry so traces carry
        # the Fig. 1 raw material; the module flag keeps this one branch
        # when telemetry is off (``merge`` bypasses it — merged ops were
        # already counted at their originating ``add``).
        if _telemetry._enabled:
            _telemetry._recorder.metrics.count("jpeg2000.ops." + stage, amount)

    def merge(self, other: "StageOps") -> None:
        for stage, amount in other.counts.items():
            self.counts[stage] += amount

    def __getitem__(self, stage: str) -> int:
        return self.counts[stage]

    def __repr__(self) -> str:
        parts = ", ".join(f"{stage}={self.counts[stage]}" for stage in ALL_STAGES)
        return f"StageOps({parts})"
