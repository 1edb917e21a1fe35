"""Dedicated point-to-point OSSS channels.

A P2P channel connects exactly one initiator to one target.  There is no
arbitration; after a one-cycle setup the link streams one word per cycle,
and the request/response wire pairs are full duplex, so transfers in both
directions proceed concurrently.
Models 6b/7b map the IDWT <-> Shared Object links onto these, which is what
decouples the IDWT pipeline from the processor traffic on the OPB.
"""

from __future__ import annotations

from ..kernel import SimTime, Simulator
from .channel_base import OsssChannel

#: Link set-up cycles per transaction.
SETUP_CYCLES = 1


class P2PChannel(OsssChannel):
    """A dedicated full-bandwidth link between two endpoints."""

    def __init__(
        self,
        sim: Simulator,
        cycle: SimTime,
        name: str = "p2p",
        cycles_per_word: float = 1.0,
    ):
        super().__init__(
            sim,
            name,
            cycle=cycle,
            arbitration_cycles=0,
            setup_cycles=SETUP_CYCLES,
            cycles_per_word=cycles_per_word,
            max_masters=1,
            full_duplex=True,
        )
