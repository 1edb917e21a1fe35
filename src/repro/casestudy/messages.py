"""Payload types exchanged through the case-study Shared Objects.

Everything crossing a Shared Object boundary is serialisable (the OSSS
'no pointers' rule); payload sizes drive the VTA channel transfer times.
In performance mode payloads carry only their wire size; in functional
mode they additionally reference the real data being decoded — the
reference travels zero-copy inside the simulator while the declared wire
size still pays for the transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.serialisation import Serialisable


class WirePayload(Serialisable):
    """A payload with an explicit wire size plus optional real content."""

    __slots__ = ("words", "content")

    def __init__(self, words: int, content: object = None):
        if words < 0:
            raise ValueError("payload word count must be non-negative")
        self.words = words
        self.content = content

    def payload_bits(self) -> int:
        return self.words * 32

    def __repr__(self) -> str:
        kind = type(self.content).__name__ if self.content is not None else "synthetic"
        return f"WirePayload({self.words} words, {kind})"


@dataclass
class TileComponentJob(Serialisable):
    """A unit of IDWT work: one component of one tile.

    Only this small descriptor travels through the IDWT-params Shared
    Object — the bulk data moves separately as stripe payloads through
    the HW/SW Shared Object, exactly as in the paper's architecture.
    """

    tile_index: int
    component: int
    lossless: bool
    words: int

    def payload_bits(self) -> int:
        return 4 * 32  # tile, component, mode, size descriptor

    @property
    def mode(self) -> str:
        return "5/3" if self.lossless else "9/7"


@dataclass
class IdwtResult(Serialisable):
    """Completion notice for one tile-component job."""

    tile_index: int
    component: int
    plane: Optional[object] = None  # functional mode: the spatial samples

    def payload_bits(self) -> int:
        return 2 * 32
