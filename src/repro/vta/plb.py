"""The IBM CoreConnect Processor Local Bus (PLB) model.

The paper's platform keeps peripherals on the OPB; the PLB is the faster
CoreConnect tier (64-bit data, address pipelining, burst transfers).  The
case study never moves the Shared Object there, but the model makes the
"what if" exploration a one-line change — exactly the kind of alternative
mapping the OSSS Channel abstraction exists to enable (and the
``ablation_plb`` experiment quantifies it).

Defaults model PLB v3.4 at the same 100 MHz clock: one 64-bit beat per
cycle (half a cycle per 32-bit word), single-cycle arbitration thanks to
address pipelining, and bursts enabled from 4 words up.
"""

from __future__ import annotations

from ..kernel import SimTime, Simulator
from ..core.arbiter import StaticPriority
from .channel_base import OsssChannel

#: Address and burst set-up cycles per transaction.
SETUP_CYCLES = 2


class PlbBus(OsssChannel):
    """Pipelined 64-bit system bus with burst support."""

    def __init__(
        self,
        sim: Simulator,
        cycle: SimTime,
        name: str = "plb",
        arbitration_cycles: int = 1,
        cycles_per_word: float = 0.5,
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
