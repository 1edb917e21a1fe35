"""Tier-1 code-block coding."""

import random

import pytest

from repro.jpeg2000.t1 import CodeBlockDecoder, CodeBlockEncoder


def encode_decode(coeffs, width, height, orientation="HL", passes=None):
    result = CodeBlockEncoder(coeffs, width, height, orientation).encode()
    limit = passes if passes is not None else result.num_passes
    decoder = CodeBlockDecoder(
        result.data, width, height, orientation, result.num_bitplanes, limit
    )
    return result, decoder.decode()


class TestRoundtrip:
    def test_all_zero_block(self):
        result, decoded = encode_decode([0] * 16, 4, 4)
        assert result.num_bitplanes == 0
        assert result.num_passes == 0
        assert result.data == b""
        assert decoded == [0] * 16

    def test_all_zero_block_needs_no_bytes_for_any_pass(self):
        result = CodeBlockEncoder([0] * 16, 4, 4, "LL").encode()
        assert result.pass_lengths == []

    def test_single_coefficient(self):
        coeffs = [0] * 16
        coeffs[5] = -37
        _, decoded = encode_decode(coeffs, 4, 4)
        assert decoded == coeffs

    def test_all_orientations(self):
        rng = random.Random(5)
        coeffs = [rng.randrange(-63, 64) for _ in range(64)]
        for orientation in ("LL", "HL", "LH", "HH"):
            _, decoded = encode_decode(coeffs, 8, 8, orientation)
            assert decoded == coeffs

    def test_non_multiple_of_four_height(self):
        # stripes of 4: heights 5, 6, 7 exercise the truncated last stripe
        rng = random.Random(6)
        for height in (1, 2, 3, 5, 6, 7):
            coeffs = [rng.randrange(-15, 16) for _ in range(3 * height)]
            _, decoded = encode_decode(coeffs, 3, height)
            assert decoded == coeffs

    def test_single_row_and_column(self):
        _, decoded = encode_decode([1, -2, 3, -4], 4, 1)
        assert decoded == [1, -2, 3, -4]
        _, decoded = encode_decode([1, -2, 3, -4], 1, 4)
        assert decoded == [1, -2, 3, -4]

    def test_wide_dynamic_range(self):
        coeffs = [0, (1 << 15) - 1, -(1 << 15), 1]
        result, decoded = encode_decode(coeffs, 2, 2)
        assert decoded == coeffs
        assert result.num_bitplanes == 16

    def test_dense_block(self):
        rng = random.Random(7)
        coeffs = [rng.randrange(-255, 256) for _ in range(32 * 32)]
        _, decoded = encode_decode(coeffs, 32, 32)
        assert decoded == coeffs


class TestPassStructure:
    def test_pass_count_formula(self):
        coeffs = [0] * 16
        coeffs[0] = 7  # 3 bitplanes
        result, _ = encode_decode(coeffs, 4, 4)
        assert result.num_bitplanes == 3
        assert result.num_passes == 3 * 3 - 2

    def test_truncated_passes_give_progressive_quality(self):
        rng = random.Random(8)
        coeffs = [rng.randrange(-127, 128) for _ in range(64)]
        result = CodeBlockEncoder(coeffs, 8, 8, "HL").encode()
        errors = []
        for passes in range(1, result.num_passes + 1):
            decoder = CodeBlockDecoder(
                result.data, 8, 8, "HL", result.num_bitplanes, passes
            )
            decoded = decoder.decode()
            errors.append(sum((a - b) ** 2 for a, b in zip(coeffs, decoded)))
        assert errors[-1] == 0  # all passes = exact
        assert errors[0] >= errors[-1]
        # quality must be (weakly) monotone in decoded pass count
        assert all(errors[i] >= errors[i + 1] for i in range(len(errors) - 1))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            CodeBlockEncoder([0] * 5, 2, 2, "HL")

    def test_sparse_blocks_use_run_mode_efficiently(self):
        # A nearly-empty block should cost only a few bytes thanks to the
        # cleanup pass run-length mode.
        coeffs = [0] * (32 * 32)
        coeffs[500] = 3
        result = CodeBlockEncoder(coeffs, 32, 32, "HH").encode()
        assert len(result.data) < 40


class TestOps:
    def test_decoder_ops_scale_with_content(self):
        rng = random.Random(9)
        sparse = [0] * 256
        sparse[10] = 5
        dense = [rng.randrange(-255, 256) for _ in range(256)]
        sparse_result = CodeBlockEncoder(sparse, 16, 16, "HL").encode()
        dense_result = CodeBlockEncoder(dense, 16, 16, "HL").encode()
        sparse_decoder = CodeBlockDecoder(
            sparse_result.data, 16, 16, "HL", sparse_result.num_bitplanes
        )
        dense_decoder = CodeBlockDecoder(
            dense_result.data, 16, 16, "HL", dense_result.num_bitplanes
        )
        sparse_decoder.decode()
        dense_decoder.decode()
        assert dense_decoder.ops > sparse_decoder.ops
