"""The IBM CoreConnect On-chip Peripheral Bus (OPB) model.

The case study maps the communication links of the HW/SW Shared Object
onto an OPB instance (models 6a/7a: bus only; 6b/7b: bus for SW traffic,
point-to-point for the IDWT pipeline).  The model reproduces the costs
that matter for Table 1:

* a shared medium — concurrent masters serialise, so four processors in
  model 7a visibly pile up behind each other;
* per-transaction arbitration plus an address phase before data moves;
* two bus cycles per 32-bit single data beat (OPB is not pipelined for
  single transfers); sequential-address bursts amortise that to one.

Defaults follow the OPB v2.0 timing for single transfers at 100 MHz.
"""

from __future__ import annotations

from typing import Optional

from ..kernel import SimTime, Simulator
from ..core.arbiter import StaticPriority
from .channel_base import OsssChannel

#: Address-phase cycles before each transaction's data beats.
SETUP_CYCLES = 1
#: Cycles per word of a sequential-address burst.
BURST_CYCLES_PER_WORD = 1.0


class OpbBus(OsssChannel):
    """Shared 32-bit peripheral bus with static-priority arbitration."""

    def __init__(
        self,
        sim: Simulator,
        cycle: SimTime,
        name: str = "opb",
        arbitration_cycles: int = 2,
        cycles_per_word: float = 2.0,
    ):
        super().__init__(
            sim,
            name,
            cycle=cycle,
            arbitration_cycles=arbitration_cycles,
            setup_cycles=SETUP_CYCLES,
            cycles_per_word=cycles_per_word,
            policy=StaticPriority(),
        )
        #: Transactions longer than this use sequential-address bursts.
        #: ``None`` (the default) disables bursts: the case-study peripherals
        #: only support single acknowledged transfers, which is precisely why
        #: the bus-only mappings 6a/7a inflate the IDWT time so badly.
        self.burst_threshold_words: Optional[int] = None

    def transfer_time(self, words: int) -> SimTime:
        """OPB occupancy: bursts (when enabled) amortise the per-word handshake."""
        if self.burst_threshold_words is not None and words > self.burst_threshold_words:
            cycles = self.setup_cycles + BURST_CYCLES_PER_WORD * words
        else:
            cycles = self.setup_cycles + self.cycles_per_word * words
        return SimTime.intern(round(self.cycle.femtoseconds * cycles))
