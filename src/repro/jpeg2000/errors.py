"""Decoder-level error types, shared by the stage modules.

Lives in its own module so the stage implementations
(:mod:`repro.jpeg2000.stages`) and the public façade
(:mod:`repro.jpeg2000.decoder`) can both raise/catch the same types
without importing each other.

Every error a malformed codestream raises belongs to one family,
:class:`DecodeError`: ``CodestreamError`` (marker syntax),
``PacketError`` (Tier-2 packets), :class:`DecodingError` and
``TranscodeError``.  Each keeps its ``ValueError``/``RuntimeError`` base
as well, so an ``except`` written against that base still catches it.
"""

from __future__ import annotations


class DecodeError(Exception):
    """A codestream that cannot be parsed, decoded or transcoded."""


class DecodingError(DecodeError, RuntimeError):
    """The codestream is structurally valid but cannot be decoded."""
