"""Packet-header bit I/O (with stuffing) and tag trees."""

import pytest

from repro.jpeg2000.bitio import BitReader, BitWriter
from repro.jpeg2000.tagtree import TagTree


class TestBitWriter:
    def test_bits_pack_msb_first(self):
        writer = BitWriter()
        writer.put_bits(0b1010, 4)
        data = writer.flush()
        assert data == bytes([0b10100000])

    def test_stuffing_after_ff(self):
        writer = BitWriter()
        writer.put_bits(0xFF, 8)
        writer.put_bits(0b1111111, 7)  # exactly fills the 7-bit byte
        data = writer.flush()
        assert data[0] == 0xFF
        assert data[1] == 0x7F  # MSB forced to 0

    def test_header_cannot_end_in_ff(self):
        writer = BitWriter()
        writer.put_bits(0xFF, 8)
        data = writer.flush()
        assert data == b"\xff\x00"

    def test_roundtrip_various_lengths(self):
        for n in (1, 7, 8, 9, 15, 16, 17, 64):
            writer = BitWriter()
            bits = [(i * 7 + 3) % 2 for i in range(n)]
            for bit in bits:
                writer.put_bit(bit)
            reader = BitReader(writer.flush())
            assert [reader.get_bit() for _ in range(n)] == bits


class TestBitReader:
    def test_eof_raises(self):
        reader = BitReader(b"\x80")
        for _ in range(8):
            reader.get_bit()
        with pytest.raises(EOFError):
            reader.get_bit()

    def test_get_bits_value(self):
        writer = BitWriter()
        writer.put_bits(0b110101, 6)
        reader = BitReader(writer.flush())
        assert reader.get_bits(6) == 0b110101

    def test_align_returns_next_byte_position(self):
        writer = BitWriter()
        writer.put_bits(0b101, 3)
        data = writer.flush() + b"\xAB"
        reader = BitReader(data)
        reader.get_bits(3)
        position = reader.align()
        assert data[position] == 0xAB

    def test_align_skips_stuffed_zero_after_ff(self):
        writer = BitWriter()
        writer.put_bits(0xFF, 8)
        data = writer.flush() + b"\xCD"
        reader = BitReader(data)
        reader.get_bits(8)
        position = reader.align()
        assert data[position] == 0xCD


class TestTagTree:
    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            TagTree(0, 1)

    def test_1x1_tree(self):
        enc, dec = TagTree(1, 1), TagTree(1, 1)
        enc.set_value(0, 0, 2)
        writer = BitWriter()
        enc.encode(writer, 0, 0, 3)
        reader = BitReader(writer.flush())
        assert dec.decode(reader, 0, 0, 3)
        assert dec.value_of(0, 0) == 2

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            TagTree(2, 2).set_value(0, 0, -1)

    def test_value_of_undetermined_leaf(self):
        tree = TagTree(2, 2)
        with pytest.raises(ValueError, match="not determined"):
            tree.value_of(0, 0)

    def test_threshold_boundary(self):
        enc, dec = TagTree(1, 1), TagTree(1, 1)
        enc.set_value(0, 0, 5)
        writer = BitWriter()
        enc.encode(writer, 0, 0, 5)  # value == threshold: not below
        enc.encode(writer, 0, 0, 6)  # now resolved
        reader = BitReader(writer.flush())
        assert not dec.decode(reader, 0, 0, 5)
        assert dec.decode(reader, 0, 0, 6)

    def test_quadtree_sharing_compresses_headers(self):
        # A uniform grid should cost far fewer bits than leaves x value.
        size = 8
        enc = TagTree(size, size)
        for y in range(size):
            for x in range(size):
                enc.set_value(x, y, 3)
        writer = BitWriter()
        for y in range(size):
            for x in range(size):
                enc.encode(writer, x, y, 4)
        # 64 leaves of value 3, naive cost 64 x 4 zero-bits + stop bits;
        # the shared ancestors make it much cheaper.
        assert len(writer.flush()) < 20

    def test_non_square_and_non_power_of_two(self):
        enc, dec = TagTree(3, 5), TagTree(3, 5)
        values = {(x, y): (x * 5 + y) % 4 for x in range(3) for y in range(5)}
        for (x, y), value in values.items():
            enc.set_value(x, y, value)
        writer = BitWriter()
        for threshold in range(1, 5):
            for (x, y) in values:
                enc.encode(writer, x, y, threshold)
        reader = BitReader(writer.flush())
        for threshold in range(1, 5):
            for (x, y), value in values.items():
                assert dec.decode(reader, x, y, threshold) == (value < threshold)
