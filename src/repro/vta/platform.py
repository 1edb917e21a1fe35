"""Target platform descriptions.

The case study targets a Xilinx ML401 evaluation board: a Virtex-4 LX25
FPGA, an on-chip processor subsystem, the IBM CoreConnect OPB bus and a
multi-channel DDR-RAM controller, everything clocked at 100 MHz.  The
platform object is the single place those facts live; VTA building blocks
take their clocking from it, and FOSSY's platform-file generator reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernel import SimTime
from ..core.timing import CycleBudget


@dataclass(frozen=True)
class FpgaDevice:
    """Resource envelope of an FPGA part (used by the synthesis estimator)."""

    part: str
    slices: int
    slice_flip_flops: int
    luts4: int
    block_rams: int
    dsp48: int


#: The paper's device: Virtex-4 LX25 (10,752 slices, 21,504 FF/LUT).
VIRTEX4_LX25 = FpgaDevice(
    part="xc4vlx25",
    slices=10752,
    slice_flip_flops=21504,
    luts4=21504,
    block_rams=72,
    dsp48=48,
)


#: The on-chip processor of the case-study platform.
PROCESSOR_KIND = "ppc405"


@dataclass
class TargetPlatform:
    """A board-level target: device plus system clock."""

    name: str
    device: FpgaDevice
    frequency_hz: float

    @property
    def budget(self) -> CycleBudget:
        return CycleBudget(self.frequency_hz)

    @property
    def clock_period(self) -> SimTime:
        return self.budget.cycle


def ml401() -> TargetPlatform:
    """The case study's Xilinx ML401 board at 100 MHz."""
    return TargetPlatform(name="ml401", device=VIRTEX4_LX25, frequency_hz=100e6)
