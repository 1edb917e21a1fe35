"""Timing calibration: every number the case-study models rest on.

The paper profiles its reference decoder on the target processor (Fig. 1)
and back-annotates the stage times as EETs.  This module is the single
source of those numbers for our reproduction:

* the paper's published stage shares (Fig. 1) and its one absolute anchor
  — "the arithmetic decoder takes approximately 180 ms for a single tile";
* the derived per-tile stage times used as EETs by every model version;
* the hardware-speed and architecture constants (HW IDWT speed-up, OPB
  and P2P protocol costs, block-RAM penalty, arbitration overheads) whose
  values are justified here once and imported everywhere else;
* the operation-cost model that maps our decoder's measured basic-op
  counts (``StageOps``) to processor cycles, reconstructing Fig. 1 from
  first principles rather than by fiat.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel.time import SimTime, ms, us
from ..jpeg2000.pipeline import (
    ALL_STAGES,
    STAGE_ARITH,
    STAGE_DC,
    STAGE_ICT,
    STAGE_IDWT,
    STAGE_IQ,
    StageOps,
)

#: Fig. 1 stage shares, in percent (sum to 100).
PAPER_SHARES_LOSSLESS = {
    STAGE_ARITH: 88.8,
    STAGE_IQ: 3.2,
    STAGE_IDWT: 5.5,
    STAGE_ICT: 0.7,
    STAGE_DC: 1.8,
}
PAPER_SHARES_LOSSY = {
    STAGE_ARITH: 78.6,
    STAGE_IQ: 4.2,
    STAGE_IDWT: 12.4,
    STAGE_ICT: 1.2,
    STAGE_DC: 3.6,
}

#: The paper's absolute anchor (section 3.2): software arithmetic decoding
#: of one tile on the 100 MHz target processor.
ARITH_MS_PER_TILE = 180.0

#: Application-layer estimate of the hardware IDWT/IQ speed-up over
#: software.  Chosen so version 2 reproduces the quoted ~10 %/19 %
#: speed-up, which the paper notes is essentially the communication-free
#: Amdahl bound (i.e. HW time nearly vanishes next to the software part).
HW_COPROCESSOR_SPEEDUP = 16.0

#: Arbitration cost of the HW/SW Shared Object per grant and per connected
#: client.  With seven clients (version 5) and per-stripe traffic this is
#: what makes 5 slightly slower than 4, as in the paper.
SO_GRANT_OVERHEAD = us(0.5)
SO_PER_CLIENT_OVERHEAD = us(0.2)

#: VTA constants: OPB single transfers cost ~3 bus cycles per 32-bit word
#: (arbitration + address + data); P2P links stream a word per cycle.
OPB_CYCLES_PER_WORD = 3.0
OPB_ARBITRATION_CYCLES = 2
P2P_CYCLES_PER_WORD = 1.0

#: The faster bus tier (``ablation_plb``): the 64-bit pipelined PLB moves
#: a 32-bit word in half a cycle after one arbitration cycle.
PLB_CYCLES_PER_WORD = 0.5
PLB_ARBITRATION_CYCLES = 1

#: Explicit-memory insertion: extra block-RAM access cycles charged per
#: sample visit inside the hardware IDWT datapath on the VTA.  Dual-port
#: RAMB16s and line buffers absorb most accesses; the residual penalty is
#: a quarter cycle per sample.
BRAM_EXTRA_CYCLES_PER_SAMPLE = 0.25

#: RMI transactions are chunked so a bulk transfer does not monopolise the
#: bus; 128 words ~ one tile line.
RMI_CHUNK_WORDS = 128


@dataclass(frozen=True)
class StageTimes:
    """Per-tile software stage times in milliseconds (the EET values)."""

    arith: float
    iq: float
    idwt: float
    ict: float
    dc: float

    @property
    def total(self) -> float:
        return self.arith + self.iq + self.idwt + self.ict + self.dc

    def as_dict(self) -> dict:
        return {
            STAGE_ARITH: self.arith,
            STAGE_IQ: self.iq,
            STAGE_IDWT: self.idwt,
            STAGE_ICT: self.ict,
            STAGE_DC: self.dc,
        }

    def scaled(self, factor: float) -> "StageTimes":
        """Scale all stages (e.g. for smaller functional-mode tiles)."""
        return StageTimes(
            arith=self.arith * factor,
            iq=self.iq * factor,
            idwt=self.idwt * factor,
            ict=self.ict * factor,
            dc=self.dc * factor,
        )

    def eet(self, stage: str) -> SimTime:
        return ms(self.as_dict()[stage])


def stage_times_from_shares(shares: dict) -> StageTimes:
    """Derive absolute per-tile stage times from Fig. 1 shares + the anchor."""
    scale = ARITH_MS_PER_TILE / shares[STAGE_ARITH]
    return StageTimes(
        arith=ARITH_MS_PER_TILE,
        iq=shares[STAGE_IQ] * scale,
        idwt=shares[STAGE_IDWT] * scale,
        ict=shares[STAGE_ICT] * scale,
        dc=shares[STAGE_DC] * scale,
    )


#: The back-annotated per-tile profiles used by all model versions.
PROFILE_LOSSLESS = stage_times_from_shares(PAPER_SHARES_LOSSLESS)
PROFILE_LOSSY = stage_times_from_shares(PAPER_SHARES_LOSSY)


def profile_for(lossless: bool) -> StageTimes:
    return PROFILE_LOSSLESS if lossless else PROFILE_LOSSY


# -- the operation-cost model (reconstructing Fig. 1 from measurements) ------------
#
# Cycle weights per basic operation on the 100 MHz embedded RISC target.
# The MQ decoder's inner loop is branch-heavy, touches the context state
# and the probability table, and renormalises bit-serially: tens of cycles
# per primitive step; the transform stages are tight array loops.  The
# weights were calibrated once against the paper's lossless profile (the
# same role the authors' profiling run plays in their flow) and are then
# used unchanged for the lossy mode — a genuine prediction.
CYCLES_PER_OP = {
    STAGE_ARITH: 42.0,  # per MQ decode/renormalise primitive
    STAGE_IQ: 16.0,  # per coefficient (load, scale, sign logic, store)
    STAGE_IDWT: 2.4,  # per lifting add/multiply (unrolled array loop)
    STAGE_ICT: 3.5,  # per sample of a 3-term MAC row
    STAGE_DC: 9.0,  # per sample (round, clamp branches, store)
}


def measured_shares(ops: StageOps, weights: dict = CYCLES_PER_OP) -> dict:
    """Stage shares in percent from measured op counts + the cost model."""
    cycles = {stage: ops[stage] * weights[stage] for stage in ALL_STAGES}
    total = sum(cycles.values())
    if total == 0:
        raise ValueError("no operations recorded")
    return {stage: 100.0 * cycles[stage] / total for stage in ALL_STAGES}


def measured_stage_times(
    ops: StageOps,
    frequency_hz: float = 100e6,
) -> dict:
    """Absolute stage times in ms implied by op counts at *frequency_hz*."""
    return {
        stage: ops[stage] * CYCLES_PER_OP[stage] / frequency_hz * 1e3
        for stage in ALL_STAGES
    }
