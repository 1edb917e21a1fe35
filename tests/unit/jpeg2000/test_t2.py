"""Tier-2 packet coding: pass counts, lengths, inclusion."""

import random

import pytest

from repro.jpeg2000.bitio import BitReader, BitWriter
from repro.jpeg2000.structure import codeblock_grid
from repro.jpeg2000.t2 import (
    CodeBlockContribution,
    PacketBand,
    PacketError,
    _decode_num_passes,
    _encode_num_passes,
    decode_packet,
    encode_packet,
)


class TestNumPassesCode:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 36, 37, 100, 164])
    def test_roundtrip(self, count):
        writer = BitWriter()
        _encode_num_passes(writer, count)
        reader = BitReader(writer.flush())
        assert _decode_num_passes(reader) == count

    def test_out_of_range_rejected(self):
        writer = BitWriter()
        with pytest.raises(PacketError):
            _encode_num_passes(writer, 0)
        with pytest.raises(PacketError):
            _encode_num_passes(writer, 165)

    def test_small_counts_are_short(self):
        writer = BitWriter()
        _encode_num_passes(writer, 1)
        assert len(writer.flush()) == 1  # a single bit, padded


def make_band(width, height, cb_size, orientation="HL"):
    return PacketBand(
        orientation=orientation,
        band_width=width,
        band_height=height,
        cb_size=cb_size,
        blocks=[
            CodeBlockContribution(geometry=geo)
            for geo in codeblock_grid(width, height, cb_size)
        ],
    )


def fresh_bands_like(band):
    return make_band(band.band_width, band.band_height, band.cb_size, band.orientation)


def codeword(block, packet):
    """The bytes of *block*'s segment spans into *packet*."""
    return b"".join(packet[start:end] for start, end in block.segments)


class TestPacketRoundtrip:
    def test_empty_packet_is_one_byte(self):
        band = make_band(64, 64, 32)
        packet = encode_packet([band], {"HL": 8})
        assert packet == b"\x00"
        out = fresh_bands_like(band)
        end = decode_packet(packet, 0, [out], {"HL": 8})
        assert end == 1
        assert all(blk.num_passes == 0 for blk in out.blocks)

    def test_single_block_roundtrip(self):
        rng = random.Random(1)
        band = make_band(32, 32, 32)
        band.blocks[0].data = bytes(rng.randrange(256) for _ in range(57))
        band.blocks[0].num_passes = 7
        band.blocks[0].num_bitplanes = 5
        packet = encode_packet([band], {"HL": 8})
        out = fresh_bands_like(band)
        end = decode_packet(packet, 0, [out], {"HL": 8})
        block = out.blocks[0]
        assert end == len(packet)
        assert block.num_passes == 7
        assert block.num_bitplanes == 5
        assert codeword(block, packet) == band.blocks[0].data

    def test_mixed_inclusion(self):
        rng = random.Random(2)
        band = make_band(96, 64, 32)  # 3x2 blocks
        for index, block in enumerate(band.blocks):
            if index % 2 == 0:
                block.data = bytes(rng.randrange(256) for _ in range(index * 3 + 1))
                block.num_passes = index + 1
                block.num_bitplanes = 3
        packet = encode_packet([band], {"HL": 6})
        out = fresh_bands_like(band)
        decode_packet(packet, 0, [out], {"HL": 6})
        for index, (mine, theirs) in enumerate(zip(band.blocks, out.blocks)):
            assert theirs.num_passes == mine.num_passes
            if mine.num_passes:
                assert codeword(theirs, packet) == mine.data
                assert theirs.num_passes == mine.num_passes

    def test_multiple_bands_in_one_packet(self):
        rng = random.Random(3)
        bands = [make_band(32, 32, 32, orient) for orient in ("HL", "LH", "HH")]
        for band in bands:
            band.blocks[0].data = bytes(rng.randrange(256) for _ in range(20))
            band.blocks[0].num_passes = 4
            band.blocks[0].num_bitplanes = 4
        bounds = {"HL": 8, "LH": 8, "HH": 7}
        packet = encode_packet(bands, bounds)
        outs = [fresh_bands_like(band) for band in bands]
        decode_packet(packet, 0, outs, bounds)
        for mine, theirs in zip(bands, outs):
            assert codeword(theirs.blocks[0], packet) == mine.blocks[0].data

    def test_sequential_packets_share_buffer(self):
        rng = random.Random(4)
        packets = []
        originals = []
        for index in range(3):
            band = make_band(32, 32, 32)
            band.blocks[0].data = bytes(rng.randrange(256) for _ in range(index + 5))
            band.blocks[0].num_passes = 2
            band.blocks[0].num_bitplanes = 2
            originals.append(band)
            packets.append(encode_packet([band], {"HL": 4}))
        buffer = b"".join(packets)
        offset = 0
        for band in originals:
            out = fresh_bands_like(band)
            offset = decode_packet(buffer, offset, [out], {"HL": 4})
            assert codeword(out.blocks[0], buffer) == band.blocks[0].data
        assert offset == len(buffer)

    def test_large_body_uses_lblock_expansion(self):
        band = make_band(32, 32, 32)
        band.blocks[0].data = bytes(10_000)
        band.blocks[0].num_passes = 1
        band.blocks[0].num_bitplanes = 8
        packet = encode_packet([band], {"HL": 10})
        out = fresh_bands_like(band)
        decode_packet(packet, 0, [out], {"HL": 10})
        assert len(codeword(out.blocks[0], packet)) == 10_000

    def test_bitplane_bound_violation_rejected(self):
        band = make_band(32, 32, 32)
        band.blocks[0].data = b"x"
        band.blocks[0].num_passes = 1
        band.blocks[0].num_bitplanes = 9  # exceeds the signalled bound
        with pytest.raises(PacketError, match="bound"):
            encode_packet([band], {"HL": 8})

    def test_truncated_body_detected(self):
        band = make_band(32, 32, 32)
        band.blocks[0].data = bytes(100)
        band.blocks[0].num_passes = 1
        band.blocks[0].num_bitplanes = 2
        packet = encode_packet([band], {"HL": 4})
        out = fresh_bands_like(band)
        with pytest.raises(PacketError, match="exceeds"):
            decode_packet(packet[:-50], 0, [out], {"HL": 4})
