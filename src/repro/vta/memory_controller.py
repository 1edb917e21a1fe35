"""The multi-channel DDR-RAM controller front end.

The case-study platform keeps the coded image and the decoded output in
external DDR RAM behind a multi-channel memory controller (the MCH block of
the paper's figures).  Processors and DMA-capable blocks issue bulk
read/write requests; channels are arbitrated first-come-first-served and a
burst costs activation latency plus a per-word streaming cost.
"""

from __future__ import annotations

from ..kernel import SimTime, Simulator
from ..core.arbiter import ClientHandle, Fcfs
from .channel_base import OsssChannel

#: Activate + CAS latency of one burst, in controller cycles.
ACTIVATION_CYCLES = 20


class DdrMemoryController(OsssChannel):
    """Bulk-transfer interface to external DDR memory.

    It models a DDR-266 style part behind a 100 MHz controller:
    ~20 cycles activate+CAS latency per burst, then one 32-bit word per
    controller cycle.
    """

    def __init__(self, sim: Simulator, cycle: SimTime):
        super().__init__(
            sim,
            "ddr",
            cycle=cycle,
            arbitration_cycles=1,
            setup_cycles=ACTIVATION_CYCLES,
            cycles_per_word=1.0,
            policy=Fcfs(),
        )

    def read_burst(self, master: ClientHandle, words: int):
        """Blocking burst read of *words* words."""
        yield from self.transport(master, words)

    def write_burst(self, master: ClientHandle, words: int):
        """Blocking burst write of *words* words."""
        yield from self.transport(master, words)
