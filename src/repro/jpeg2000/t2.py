"""EBCOT Tier-2: packet headers and bodies (ITU-T T.800, B.10).

A packet carries, for one (layer, resolution, component) — with whole-
subband precincts, as this reproduction uses — the contributions of every
code block of that resolution: inclusion information (a tag tree for the
first-inclusion layer, a single bit afterwards), the number of missing
all-zero bit-planes (tag-tree coded at first inclusion), the number of
coding passes in this layer (comma-style code) and the segment length
(LBlock code, persistent per code block), followed by the concatenated MQ
codeword segments.

Quality layers split each code block's pass sequence into consecutive
segments; the per-pass byte marks recorded by Tier-1
(:class:`~repro.jpeg2000.t1.CodeBlockResult.pass_lengths`) define the
truncation points.  All inter-layer coding state (first inclusion, LBlock,
accumulated passes/bytes, the two tag trees) lives on the band/block
objects, which therefore must persist across the packets of one tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .bitio import BitReader, BitWriter, FastBitReader
from .errors import DecodeError
from .structure import CodeBlockGeometry, grid_dimensions
from .tagtree import FlatTagTree, TagTree

#: Error-resilience marker codes (main codestream syntax, Annex A).
SOP_MARKER = b"\xff\x91"
EPH_MARKER = b"\xff\x92"


def sop_segment(sequence: int) -> bytes:
    """A start-of-packet marker segment with its 16-bit sequence number."""
    return SOP_MARKER + (4).to_bytes(2, "big") + (sequence & 0xFFFF).to_bytes(2, "big")


def consume_sop(data: bytes, offset: int, expected_sequence: int) -> int:
    """Check and skip an SOP segment; raises on desynchronisation."""
    if data[offset:offset + 2] != SOP_MARKER:
        raise PacketError(
            f"expected SOP marker at offset {offset}: packet stream desynchronised"
        )
    sequence = int.from_bytes(data[offset + 4:offset + 6], "big")
    if sequence != expected_sequence & 0xFFFF:
        raise PacketError(
            f"SOP sequence mismatch at offset {offset}: "
            f"expected {expected_sequence & 0xFFFF}, found {sequence}"
        )
    return offset + 6


@dataclass
class CodeBlockContribution:
    """One code block's data and inter-layer coding state."""

    geometry: CodeBlockGeometry
    data: bytes = b""
    num_passes: int = 0
    num_bitplanes: int = 0
    missing_msbs: int = 0
    #: Decoder side: ``(start, end)`` spans of this block's codeword
    #: segments *within the tile-part buffer*, one per contributing
    #: packet.  The parallel decode path ships these spans (plus the tile
    #: buffer, once, via shared memory) instead of materialised per-block
    #: bytes — the segment layout that makes the arena zero-copy.
    segments: list = field(default_factory=list)
    #: Encoder side: per-pass cumulative byte marks from Tier-1.
    pass_lengths: Optional[list] = None
    #: Encoder side: cumulative pass count included up to each layer.
    layer_allocation: Optional[list] = None
    # inter-layer state (both sides)
    included_before: bool = False
    passes_done: int = 0
    bytes_done: int = 0
    lblock: int = 3

    @property
    def included(self) -> bool:
        """Single-layer view: does the block contribute at all?"""
        return self.num_passes > 0

    # -- encoder-side helpers ------------------------------------------------------

    def allocation(self, num_layers: int) -> list:
        """Cumulative passes per layer (default: spread evenly)."""
        if self.layer_allocation is not None:
            return self.layer_allocation
        if num_layers == 1:
            return [self.num_passes]
        return [
            math.ceil(self.num_passes * (layer + 1) / num_layers)
            for layer in range(num_layers)
        ]

    def first_layer(self, num_layers: int) -> int:
        """The first layer with a non-empty contribution (or num_layers)."""
        previous = 0
        for layer, cumulative in enumerate(self.allocation(num_layers)):
            if cumulative > previous:
                return layer
            previous = cumulative
        return num_layers

    def bytes_for(self, passes: int) -> int:
        if self.pass_lengths is None:
            return len(self.data) if passes >= self.num_passes else 0
        if passes <= 0:
            return 0
        return self.pass_lengths[min(passes, self.num_passes) - 1]

    # -- decoder-side helpers ------------------------------------------------------

    def codeword(self, source: bytes) -> bytes:
        """The block's MQ codeword, joined from its spans into *source*.

        Equivalent to the eagerly-materialised ``data`` of a
        ``decode_packet(..., materialise=True)`` run, but computed on
        demand so the decode path can defer (or entirely avoid) the
        per-block byte copies.
        """
        segments = self.segments
        if not segments:
            return self.data
        if len(segments) == 1:
            start, end = segments[0]
            return source[start:end]
        return b"".join(source[start:end] for start, end in segments)


@dataclass
class PacketBand:
    """A subband's code blocks as one packet constituent.

    Holds the two per-band tag trees, which persist across the layers of a
    tile (the inter-layer state of the packet protocol).
    """

    orientation: str
    band_width: int
    band_height: int
    cb_size: int
    blocks: list = field(default_factory=list)
    _inclusion_tree: Optional[TagTree] = None
    _zero_tree: Optional[TagTree] = None
    #: Decode-side: use the array-backed :class:`FlatTagTree` (bit-for-bit
    #: identical to :class:`TagTree`; no encoder half).
    fast: bool = False

    @property
    def grid(self) -> tuple[int, int]:
        return grid_dimensions(self.band_width, self.band_height, self.cb_size)

    def trees(self) -> tuple[TagTree, TagTree]:
        if self._inclusion_tree is None:
            across, down = self.grid
            tree_cls = FlatTagTree if self.fast else TagTree
            self._inclusion_tree = tree_cls(across, down)
            self._zero_tree = tree_cls(across, down)
        return self._inclusion_tree, self._zero_tree


class PacketError(DecodeError, ValueError):
    """Inconsistent packet header or body."""


def _encode_num_passes(writer: BitWriter, count: int) -> None:
    """T.800 Table B.4 coding of the number of passes (1..164)."""
    if count < 1 or count > 164:
        raise PacketError(f"pass count {count} outside 1..164")
    if count == 1:
        writer.put_bit(0)
    elif count == 2:
        writer.put_bits(0b10, 2)
    elif count <= 5:
        writer.put_bits(0b11, 2)
        writer.put_bits(count - 3, 2)
    elif count <= 36:
        writer.put_bits(0b1111, 4)
        writer.put_bits(count - 6, 5)
    else:
        writer.put_bits(0b111111111, 9)
        writer.put_bits(count - 37, 7)


def _decode_num_passes(reader: BitReader) -> int:
    if not reader.get_bit():
        return 1
    if not reader.get_bit():
        return 2
    two = reader.get_bits(2)
    if two != 0b11:
        return 3 + two
    five = reader.get_bits(5)
    if five != 0b11111:
        return 6 + five
    return 37 + reader.get_bits(7)


def _length_bits(num_passes: int, lblock: int) -> int:
    return lblock + int(math.floor(math.log2(num_passes)))


def encode_packet(
    bands: list,
    max_bitplanes: dict,
    layer: int = 0,
    num_layers: int = 1,
    use_eph: bool = False,
) -> bytes:
    """Build the packet of one (layer, resolution, component).

    Must be called with ``layer`` ascending for each band set, since the
    protocol state (tag trees, LBlock, inclusion) is carried on the bands
    and blocks.
    """
    writer = BitWriter()
    contributions: list[tuple[CodeBlockContribution, int, int]] = []
    for band in bands:
        for block in band.blocks:
            allocation = block.allocation(num_layers)
            new_total = allocation[layer]
            if new_total > block.passes_done:
                contributions.append((block, new_total - block.passes_done, new_total))
    writer.put_bit(1 if contributions else 0)
    body = bytearray()
    if contributions:
        contributing = {id(block) for block, _, _ in contributions}
        for band in bands:
            across, down = band.grid
            if across == 0:
                continue
            inclusion, zero_planes = band.trees()
            for block in band.blocks:
                geo = block.geometry
                if not block.included_before:
                    inclusion.set_value(geo.index_x, geo.index_y,
                                        block.first_layer(num_layers))
                    missing = max_bitplanes[band.orientation] - block.num_bitplanes
                    if block.num_passes > 0 and missing < 0:
                        raise PacketError(
                            f"block exceeds signalled bit-plane bound in "
                            f"{band.orientation}: {block.num_bitplanes} > "
                            f"{max_bitplanes[band.orientation]}"
                        )
                    zero_planes.set_value(geo.index_x, geo.index_y, max(missing, 0))
            for block in band.blocks:
                geo = block.geometry
                contributes = id(block) in contributing
                if block.included_before:
                    writer.put_bit(1 if contributes else 0)
                else:
                    inclusion.encode(writer, geo.index_x, geo.index_y, layer + 1)
                if not contributes:
                    continue
                new_passes = next(
                    count for blk, count, _ in contributions if blk is block
                )
                total_after = next(
                    total for blk, _, total in contributions if blk is block
                )
                if not block.included_before:
                    block.missing_msbs = (
                        max_bitplanes[band.orientation] - block.num_bitplanes
                    )
                    zero_planes.encode(
                        writer, geo.index_x, geo.index_y, block.missing_msbs + 1
                    )
                    block.included_before = True
                _encode_num_passes(writer, new_passes)
                segment_end = block.bytes_for(total_after)
                length = segment_end - block.bytes_done
                needed = max(1, length.bit_length())
                while _length_bits(new_passes, block.lblock) < needed:
                    writer.put_bit(1)
                    block.lblock += 1
                writer.put_bit(0)
                writer.put_bits(length, _length_bits(new_passes, block.lblock))
                body += block.data[block.bytes_done:segment_end]
                block.bytes_done = segment_end
                block.passes_done = total_after
    header = writer.flush()
    if use_eph:
        header += EPH_MARKER
    return header + bytes(body)


def decode_packet(
    data: bytes,
    offset: int,
    bands: list,
    max_bitplanes: dict,
    layer: int = 0,
    use_eph: bool = False,
    materialise: bool = True,
    fast: bool = False,
    ff_index=None,
) -> int:
    """Parse the packet at *offset*; accumulates into the bands' blocks.

    Returns the offset just past the packet body.  Must be called with
    ``layer`` ascending over persistent band objects, mirroring
    :func:`encode_packet`.

    Each contributing block's segment span ``(start, end)`` into *data*
    is appended to ``block.segments``; with ``materialise=True`` (the
    default) the bytes are additionally concatenated onto ``block.data``.
    The decoder passes ``materialise=False`` and works from the spans,
    so per-block codeword bytes are never copied on the parent side.

    ``fast=True`` parses through :class:`~repro.jpeg2000.bitio.FastBitReader`
    (pass *ff_index* — :func:`~repro.jpeg2000.bitio.ff_positions` over
    *data* — to share the stuffing-boundary scan across the packets of a
    tile); pair it with ``PacketBand(fast=True)`` so the tag trees are
    array-backed too.  Both parses are bit-for-bit identical.
    """
    if fast:
        reader = FastBitReader(data, offset, ff_index)
    else:
        reader = BitReader(data, offset)
    if not reader.get_bit():
        position = reader.align()
        return _skip_eph(data, position, use_eph)
    lengths: list[tuple[CodeBlockContribution, int]] = []
    for band in bands:
        across, down = band.grid
        if across == 0:
            continue
        inclusion, zero_planes = band.trees()
        for block in band.blocks:
            geo = block.geometry
            if block.included_before:
                contributes = bool(reader.get_bit())
            else:
                contributes = inclusion.decode(reader, geo.index_x, geo.index_y, layer + 1)
            if not contributes:
                continue
            if not block.included_before:
                threshold = 1
                while not zero_planes.decode(reader, geo.index_x, geo.index_y, threshold):
                    threshold += 1
                block.missing_msbs = zero_planes.value_of(geo.index_x, geo.index_y)
                block.num_bitplanes = (
                    max_bitplanes[band.orientation] - block.missing_msbs
                )
                if block.num_bitplanes < 0:
                    raise PacketError("negative bit-plane count decoded")
                block.included_before = True
            new_passes = _decode_num_passes(reader)
            block.num_passes += new_passes
            block.passes_done += new_passes
            while reader.get_bit():
                block.lblock += 1
            length = reader.get_bits(_length_bits(new_passes, block.lblock))
            lengths.append((block, length))
    position = _skip_eph(data, reader.align(), use_eph)
    for block, length in lengths:
        end = position + length
        if end > len(data):
            raise PacketError("packet body exceeds tile data")
        block.segments.append((position, end))
        if materialise:
            block.data = block.data + data[position:end]
        position = end
    return position


def _skip_eph(data: bytes, position: int, use_eph: bool) -> int:
    if not use_eph:
        return position
    if data[position:position + 2] != EPH_MARKER:
        raise PacketError(
            f"expected EPH marker at offset {position}: packet header corrupt"
        )
    return position + 2
