"""The target platform: one board, as module constants.

The case study targets a Xilinx ML401 evaluation board: a Virtex-4 LX25
FPGA, an on-chip processor subsystem, the IBM CoreConnect OPB bus and a
multi-channel DDR-RAM controller, everything clocked at 100 MHz.  Every
VTA version maps onto this one board, so its facts are constants: the
VTA building blocks take their clocking from here, and FOSSY's
platform-file generator reads the names.
"""

from __future__ import annotations

from ..casestudy.profiles import FREQUENCY_HZ
from ..core.timing import CycleBudget

#: The board and its FPGA part (Virtex-4 LX25).
BOARD = "ml401"
PART = "xc4vlx25"

#: The on-chip processor of the case-study platform.
PROCESSOR_KIND = "ppc405"

#: Cycle budget of the 100 MHz system clock, and one clock period.
BUDGET = CycleBudget(FREQUENCY_HZ)
CLOCK_PERIOD = BUDGET.cycle
