"""Packet-header bit I/O with JPEG 2000 byte stuffing (ITU-T T.800, B.10.1).

Packet headers are bit-packed MSB first; after emitting a 0xFF byte only
seven bits go into the next byte (the MSB is forced to 0) so that no marker
codes can appear inside a header.  The reader mirrors the rule.

Two readers implement the same contract: :class:`BitReader` is the
bit-by-bit specification mirror of :class:`BitWriter`, and
:class:`FastBitReader` is a word-at-a-time accumulator that consumes
whole runs of bytes between 0xFF stuffing boundaries in one
``int.from_bytes`` call.  The boundaries are located up front with a
NumPy scan (:func:`ff_positions`) that callers parsing many packets out
of one buffer compute once and share.  Differential tests hold the two
readers bit-for-bit and error-for-error equal.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


def ff_positions(data) -> list:
    """Sorted positions of every 0xFF byte in *data* (NumPy scan).

    Each 0xFF starts a stuffing boundary: the byte after it carries only
    seven payload bits.  :class:`FastBitReader` uses this index to find
    how far it may consume bytes in bulk; compute it once per buffer and
    pass it to every reader over that buffer.
    """
    return np.flatnonzero(
        np.frombuffer(bytes(data), dtype=np.uint8) == 0xFF
    ).tolist()


class BitWriter:
    """MSB-first bit packer with 0xFF stuffing."""

    def __init__(self):
        self._bytes = bytearray()
        self._capacity = 8  # payload bits of the current byte (7 after 0xFF)
        self._used = 0
        self._current = 0

    def put_bit(self, bit: int) -> None:
        self._current = (self._current << 1) | (bit & 1)
        self._used += 1
        if self._used == self._capacity:
            self._bytes.append(self._current)
            # After an 0xFF, the next byte carries only 7 payload bits.
            self._capacity = 7 if self._current == 0xFF else 8
            self._used = 0
            self._current = 0

    def put_bits(self, value: int, count: int) -> None:
        for shift in range(count - 1, -1, -1):
            self.put_bit((value >> shift) & 1)

    def flush(self) -> bytes:
        """Pad the final byte with zeros and return the packed header."""
        if self._used > 0:
            self._current <<= self._capacity - self._used
            self._bytes.append(self._current)
        elif self._bytes and self._bytes[-1] == 0xFF:
            # A header may not end in 0xFF; pad the stuffing byte.
            self._bytes.append(0)
        self._capacity = 8
        self._used = 0
        self._current = 0
        return bytes(self._bytes)


class BitReader:
    """Mirror of :class:`BitWriter` over a byte buffer."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self._pos = offset
        self._bit_pos = 0  # bits already consumed from the current byte
        self._last_byte = 0

    def get_bit(self) -> int:
        if self._bit_pos == 0:
            if self._pos >= len(self._data):
                raise EOFError("bit reader ran past the end of the header")
            unstuffed = self._last_byte == 0xFF
            self._last_byte = self._data[self._pos]
            self._pos += 1
            self._bit_pos = 7 if unstuffed else 8
        self._bit_pos -= 1
        return (self._last_byte >> self._bit_pos) & 1

    def get_bits(self, count: int) -> int:
        value = 0
        for _ in range(count):
            value = (value << 1) | self.get_bit()
        return value

    def align(self) -> int:
        """Finish the current byte (and any stuffing byte); return position."""
        self._bit_pos = 0
        if self._last_byte == 0xFF:
            # Skip the stuffed zero byte terminating the header.
            if self._pos < len(self._data) and self._data[self._pos] == 0x00:
                self._pos += 1
        self._last_byte = 0
        return self._pos


class FastBitReader:
    """Word-at-a-time drop-in for :class:`BitReader`.

    Bits are served MSB-first out of an integer accumulator that is
    refilled in bulk: all bytes up to and including the next 0xFF (the
    last byte whose successor is stuffed) are appended with a single
    ``int.from_bytes``, and only the stuffed 7-bit bytes are handled
    individually.  The 0xFF boundaries come from :func:`ff_positions`;
    pass the index in as *ff_index* when parsing many packets from one
    buffer so the scan happens once.

    The contract matches :class:`BitReader` exactly: same bit sequence,
    ``EOFError`` raised on the same call, and ``align()`` /
    ``position`` report the same byte offsets — pre-loaded but fully
    unconsumed bytes are handed back by rewinding the accumulator.
    """

    #: Upper bound on bytes pulled into the accumulator per refill run;
    #: keeps the accumulator a small int even over long stuff-free spans.
    _MAX_RUN = 16

    __slots__ = ("_data", "_len", "_ff", "_pos", "_start", "_acc", "_nbits")

    def __init__(self, data: bytes, offset: int = 0, ff_index=None):
        self._data = data
        self._len = len(data)
        self._ff = ff_positions(data) if ff_index is None else ff_index
        self._pos = offset  # first byte not yet loaded into the accumulator
        self._start = offset  # first byte loaded since the last align()
        self._acc = 0
        self._nbits = 0

    def _byte_width(self, index: int) -> int:
        """Payload bits of byte *index*: 7 iff it follows an (in-run) 0xFF."""
        return 7 if index > self._start and self._data[index - 1] == 0xFF else 8

    def _fill(self, need: int) -> None:
        data, length, ff = self._data, self._len, self._ff
        pos, nbits = self._pos, self._nbits
        acc = self._acc & ((1 << nbits) - 1)  # drop already-served high bits
        while nbits < need:
            if pos >= length:
                self._pos, self._acc, self._nbits = pos, acc, nbits
                raise EOFError("bit reader ran past the end of the header")
            if pos > self._start and data[pos - 1] == 0xFF:
                # Stuffed byte: seven payload bits, MSB forced to zero.
                acc = (acc << 7) | (data[pos] & 0x7F)
                nbits += 7
                pos += 1
                continue
            # Bulk run of full bytes: everything up to and including the
            # next 0xFF has width 8 (only the byte *after* an 0xFF is
            # stuffed), so the whole run is one int.from_bytes.
            j = bisect_left(ff, pos)
            run_end = ff[j] + 1 if j < len(ff) else length
            count = min(run_end, length) - pos
            if count > self._MAX_RUN:
                count = self._MAX_RUN
            acc = (acc << (8 * count)) | int.from_bytes(
                data[pos:pos + count], "big"
            )
            nbits += 8 * count
            pos += count
        self._pos, self._acc, self._nbits = pos, acc, nbits

    def get_bit(self) -> int:
        if self._nbits == 0:
            self._fill(1)
        self._nbits -= 1
        return (self._acc >> self._nbits) & 1

    def get_bits(self, count: int) -> int:
        if self._nbits < count:
            self._fill(count)
        self._nbits -= count
        return (self._acc >> self._nbits) & ((1 << count) - 1)

    def _rewind(self) -> int:
        """Index of the current byte (last byte with a consumed bit) + 1.

        Walks back over fully-unconsumed pre-loaded bytes; equals the
        reference reader's ``_pos``.  Returns ``_start`` when nothing
        has been consumed since construction or the last ``align()``.
        """
        pos, start, nbits = self._pos, self._start, self._nbits
        if pos <= start:
            return start
        i = pos - 1
        while i >= start:
            width = self._byte_width(i)
            if nbits < width:
                break
            nbits -= width
            i -= 1
        return i + 1 if i >= start else start

    def align(self) -> int:
        """Finish the current byte (and any stuffing byte); return position."""
        pos = self._rewind()
        if pos > self._start and self._data[pos - 1] == 0xFF:
            # Skip the stuffed zero byte terminating the header.
            if pos < self._len and self._data[pos] == 0x00:
                pos += 1
        self._pos = pos
        self._start = pos
        self._acc = 0
        self._nbits = 0
        return pos
