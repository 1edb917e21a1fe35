"""Codestream marker syntax: writer/parser inverse, error handling."""

import struct

import pytest

from repro.jpeg2000.codestream import (
    MAX_DECODED_SAMPLES,
    CodestreamError,
    CodingParameters,
    TilePart,
    parse_codestream,
    write_codestream,
)
from repro.jpeg2000.quant import StepSize


def params_lossless(**overrides):
    defaults = dict(
        width=256,
        height=256,
        num_components=3,
        tile_width=128,
        tile_height=128,
        num_levels=3,
        lossless=True,
    )
    defaults.update(overrides)
    params = CodingParameters(**defaults)
    params.exponents = [10] * params.num_subbands()
    return params


def params_lossy(**overrides):
    params = params_lossless(lossless=False, **overrides)
    params.exponents = []
    params.step_sizes = [StepSize(12, 512)] * params.num_subbands()
    return params


class TestRoundtrip:
    def test_lossless_header_roundtrip(self):
        params = params_lossless()
        tiles = [TilePart(i, bytes([i] * 10)) for i in range(4)]
        data = write_codestream(params, tiles)
        parsed = parse_codestream(data)
        out = parsed.parameters
        assert (out.width, out.height) == (256, 256)
        assert out.num_components == 3
        assert out.tile_width == 128
        assert out.num_levels == 3
        assert out.lossless
        assert out.exponents == params.exponents
        assert [t.tile_index for t in parsed.tile_parts] == [0, 1, 2, 3]
        assert parsed.tile_parts[2].data == bytes([2] * 10)

    def test_lossy_header_roundtrip(self):
        params = params_lossy(base_step=1 / 16)
        data = write_codestream(params, [TilePart(0, b"xx")])
        out = parse_codestream(data).parameters
        assert not out.lossless
        assert out.step_sizes == params.step_sizes
        assert out.guard_bits == params.guard_bits

    def test_markers_present(self):
        data = write_codestream(params_lossless(), [TilePart(0, b"")])
        assert data.startswith(b"\xff\x4f")  # SOC
        assert data.endswith(b"\xff\xd9")  # EOC
        assert b"\xff\x51" in data  # SIZ
        assert b"\xff\x52" in data  # COD
        assert b"\xff\x5c" in data  # QCD

    def test_empty_tile_list(self):
        data = write_codestream(params_lossless(), [])
        assert parse_codestream(data).tile_parts == []


class TestValidation:
    def test_missing_soc(self):
        with pytest.raises(CodestreamError, match="SOC"):
            parse_codestream(b"\x00\x00")

    def test_truncated_stream(self):
        data = write_codestream(params_lossless(), [TilePart(0, b"abcdef")])
        for cut in (1, 3, 10, 20, 30, 60, len(data) - 4):
            with pytest.raises(CodestreamError, match="truncated"):
                parse_codestream(data[:cut])

    def test_unknown_marker_rejected(self):
        data = bytearray(write_codestream(params_lossless(), []))
        # Corrupt the COD marker into an unknown one.
        index = bytes(data).find(b"\xff\x52")
        data[index + 1] = 0x7E
        with pytest.raises(CodestreamError, match="unsupported marker"):
            parse_codestream(bytes(data))

    def test_bad_dimensions_rejected(self):
        with pytest.raises(CodestreamError):
            write_codestream(params_lossless(width=0), [])

    def test_mct_needs_three_components(self):
        params = params_lossless(num_components=1, use_mct=True)
        with pytest.raises(CodestreamError, match="colour transform"):
            write_codestream(params, [])

    def test_bit_depth_range(self):
        with pytest.raises(CodestreamError):
            write_codestream(params_lossless(bit_depth=17), [])

    def test_qcd_exponent_count_checked(self):
        params = params_lossless()
        params.exponents = [10]  # wrong count
        data = write_codestream(params_lossless(), [])
        # build bad stream manually: reuse good header but patch levels
        bad = params_lossless(num_levels=2)
        bad.exponents = [10] * params_lossless().num_subbands()  # too many
        with pytest.raises(CodestreamError, match="count"):
            parse_codestream(write_codestream(bad, []))


class TestDerivedProperties:
    def test_num_subbands(self):
        assert params_lossless(num_levels=0).num_subbands() == 1
        assert params_lossless(num_levels=3).num_subbands() == 10

    def test_codeblock_size(self):
        assert params_lossless(codeblock_exp=5).codeblock_size == 32

    def test_transform_name(self):
        assert params_lossless().transform == "5/3"
        assert params_lossy().transform == "9/7"


class TestHostileGeometry:
    """A SIZ that claims a huge image fails at parse time, in bounded
    time and memory, before any code-block grid or sample array exists."""

    @pytest.fixture(scope="class")
    def four_tile_stream(self):
        from repro.jpeg2000 import encode_image, synthetic_image

        params = CodingParameters(
            width=64, height=64, num_components=3,
            tile_width=32, tile_height=32, num_levels=3, lossless=True,
        )
        return encode_image(synthetic_image(64, 64, 3, seed=1), params)

    @staticmethod
    def _rewrite_siz(data, size, tile_size):
        # After SOC: SIZ marker, Lsiz, Rsiz, then Xsiz/Ysiz at offset 8
        # and XTsiz/YTsiz at offset 24 (T.800 Table A.9).
        data = bytearray(data)
        struct.pack_into(">II", data, 8, size, size)
        struct.pack_into(">II", data, 24, tile_size, tile_size)
        return bytes(data)

    def test_tile_parts_beyond_the_siz_tile_count(self, four_tile_stream):
        hostile = self._rewrite_siz(four_tile_stream, 40000, 40000)
        with pytest.raises(CodestreamError, match="tile-part for tile 1"):
            parse_codestream(hostile)

    def test_decoded_sample_count_is_bounded(self, four_tile_stream):
        single = write_codestream(
            parse_codestream(four_tile_stream).parameters,
            [TilePart(0, b"")],
        )
        hostile = self._rewrite_siz(single, 40000, 40000)
        with pytest.raises(CodestreamError, match="decoded samples"):
            parse_codestream(hostile)
        assert 40000 * 40000 * 3 > MAX_DECODED_SAMPLES >= 512 * 512 * 3

    def test_zero_tile_size_rejected(self, four_tile_stream):
        with pytest.raises(CodestreamError, match="tile dimensions"):
            parse_codestream(self._rewrite_siz(four_tile_stream, 64, 0))

    def test_decoder_rejects_a_tile_without_tile_part(self, four_tile_stream):
        from repro.jpeg2000 import Jpeg2000Decoder

        parsed = parse_codestream(four_tile_stream)
        partial = write_codestream(parsed.parameters, parsed.tile_parts[:3])
        with pytest.raises(CodestreamError, match="no tile-part for tile 3 "):
            Jpeg2000Decoder(partial)
