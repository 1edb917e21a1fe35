"""Data serialisation for method-call payloads (``osss_serialisable``).

The VTA refinement "cuts large user-defined data structures into manageable
chunks of data to be transferred efficiently via OSSS Channels" (paper,
section 3.2).  This module computes the wire size of arbitrary payloads and
splits them into channel words, so physical channels can charge the correct
number of transfer cycles while the object itself travels by reference
inside the simulator.

Pointers and references are not synthesisable in OSSS; mirroring that, any
payload type without a known wire size is rejected.
"""

from __future__ import annotations

import math

import numpy as np

#: Default wire width of a Python int/float payload, matching the 32-bit
#: buses of the case-study platform.
DEFAULT_SCALAR_BITS = 32


class SerialisationError(TypeError):
    """Payload cannot be serialised (the OSSS 'no pointers' rule)."""


class Serialisable:
    """Base for user payload types: subclasses say how big they are."""

    def payload_bits(self) -> int:
        raise NotImplementedError(f"{type(self).__name__} must implement payload_bits()")


def payload_bits(obj: object) -> int:
    """Wire size of *obj* in bits."""
    if obj is None:
        return 0
    if isinstance(obj, Serialisable):
        return obj.payload_bits()
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return DEFAULT_SCALAR_BITS
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) * 8
    if isinstance(obj, np.generic):
        return int(obj.nbytes) * 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) * 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8")) * 8
    if isinstance(obj, (tuple, list)):
        return sum(payload_bits(item) for item in obj)
    if isinstance(obj, dict):
        return sum(payload_bits(k) + payload_bits(v) for k, v in obj.items())
    raise SerialisationError(
        f"cannot serialise {type(obj).__name__!r} payloads; pointers/references "
        "are not allowed in OSSS method calls — implement Serialisable"
    )


class SerialisedPayload:
    """A payload prepared for transport over a word-oriented channel."""

    __slots__ = ("obj", "bits", "word_bits", "words")

    def __init__(self, obj: object, word_bits: int):
        if word_bits < 1:
            raise ValueError("channel word width must be at least 1 bit")
        self.obj = obj
        self.bits = payload_bits(obj)
        self.word_bits = word_bits
        # Pure payload size; protocol headers (at least one word per RMI
        # direction) are accounted by the transport layer.
        self.words = math.ceil(self.bits / word_bits)

    def __repr__(self) -> str:
        return f"SerialisedPayload({self.bits} bits, {self.words}x{self.word_bits}b words)"


def serialise_call(args: tuple, kwargs: dict, word_bits: int) -> SerialisedPayload:
    """Serialise a method call's argument list as one payload."""
    items: list[object] = list(args)
    for key in sorted(kwargs):
        items.append(key)
        items.append(kwargs[key])
    return SerialisedPayload(tuple(items), word_bits)
