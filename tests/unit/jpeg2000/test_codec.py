"""End-to-end codec behaviour."""

import numpy as np
import pytest

from repro.jpeg2000 import (
    CodingParameters,
    EncodingError,
    Jpeg2000Decoder,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000.image import Image


def params(size=64, tile=32, lossless=True, components=3, **overrides):
    defaults = dict(
        width=size,
        height=size,
        num_components=components,
        tile_width=tile,
        tile_height=tile,
        num_levels=3,
        lossless=lossless,
        use_mct=components >= 3,
        base_step=1 / 8,
    )
    defaults.update(overrides)
    return CodingParameters(**defaults)


class TestLossless:
    def test_roundtrip_exact_multi_tile(self):
        image = synthetic_image(64, 64, 3, seed=20)
        assert Jpeg2000Decoder(encode_image(image, params())).decode() == image

    def test_roundtrip_exact_single_tile(self):
        image = synthetic_image(32, 32, 3, seed=21)
        assert Jpeg2000Decoder(
            encode_image(image, params(size=32, tile=32))
        ).decode() == image

    def test_roundtrip_grayscale(self):
        image = synthetic_image(32, 32, 1, seed=22)
        out = Jpeg2000Decoder(encode_image(image, params(size=32, components=1))).decode()
        assert out == image

    def test_roundtrip_without_mct(self):
        image = synthetic_image(32, 32, 3, seed=23)
        p = params(size=32, use_mct=False)
        assert Jpeg2000Decoder(encode_image(image, p)).decode() == image

    def test_non_square_non_tile_aligned(self):
        image = synthetic_image(48, 80, 3, seed=24)
        p = params()
        p.width, p.height = 48, 80
        assert Jpeg2000Decoder(encode_image(image, p)).decode() == image

    def test_compresses_below_raw(self):
        image = synthetic_image(64, 64, 3, seed=25)
        data = encode_image(image, params())
        assert len(data) < 64 * 64 * 3  # less than 8 bpp raw

    def test_pathological_flat_image(self):
        flat = Image([np.full((32, 32), 200, dtype=np.int64)] * 3, bit_depth=8)
        p = params(size=32)
        data = encode_image(flat, p)
        assert Jpeg2000Decoder(data).decode() == flat
        assert len(data) < 600  # near-empty packets

    def test_extreme_values(self):
        rng = np.random.default_rng(26)
        extreme = Image(
            [rng.choice([0, 255], size=(32, 32)).astype(np.int64) for _ in range(3)],
            bit_depth=8,
        )
        assert Jpeg2000Decoder(encode_image(extreme, params(size=32))).decode() == extreme


class TestLossy:
    def test_quality_improves_with_finer_steps(self):
        image = synthetic_image(64, 64, 3, seed=27)
        psnrs = []
        for base in (1 / 2, 1 / 8, 1 / 32):
            p = params(lossless=False, base_step=base)
            out = Jpeg2000Decoder(encode_image(image, p)).decode()
            psnrs.append(out.psnr(image))
        assert psnrs[0] < psnrs[1] < psnrs[2]

    def test_rate_decreases_with_coarser_steps(self):
        image = synthetic_image(64, 64, 3, seed=28)
        fine = len(encode_image(image, params(lossless=False, base_step=1 / 32)))
        coarse = len(encode_image(image, params(lossless=False, base_step=1 / 2)))
        assert coarse < fine

    def test_reasonable_quality_at_moderate_rate(self):
        image = synthetic_image(64, 64, 3, seed=29)
        out = Jpeg2000Decoder(encode_image(image, params(lossless=False, base_step=1 / 8))).decode()
        assert out.psnr(image) > 35.0


class TestStageInstrumentation:
    def test_ops_recorded_per_stage(self):
        image = synthetic_image(32, 32, 3, seed=30)
        decoder = Jpeg2000Decoder(encode_image(image, params(size=32)))
        decoder.decode()
        ops = decoder.ops
        assert ops["arith"] > 0
        assert ops["iq"] > 0
        assert ops["idwt"] > 0
        assert ops["ict"] == 3 * 32 * 32
        assert ops["dc"] == 3 * 32 * 32

    def test_tile_stages_match_full_decode(self):
        image = synthetic_image(64, 64, 3, seed=31)
        data = encode_image(image, params())
        full = Jpeg2000Decoder(data).decode()
        decoder = Jpeg2000Decoder(data)
        from repro.jpeg2000 import TileGrid

        grid = TileGrid(64, 64, 32, 32)
        pieces = [
            np.zeros((64, 64), dtype=np.int64) for _ in range(3)
        ]
        for tile_index in range(grid.num_tiles):
            planes = decoder.tile_stages(tile_index).run()
            x0, y0, x1, y1 = grid.tile_bounds(tile_index)
            for target, plane in zip(pieces, planes):
                target[y0:y1, x0:x1] = plane
        assert all(
            np.array_equal(a, b) for a, b in zip(pieces, full.components)
        )


class TestEncoderValidation:
    def test_size_mismatch_rejected(self):
        image = synthetic_image(32, 32, 3)
        with pytest.raises(EncodingError, match="size"):
            encode_image(image, params(size=64))

    def test_component_mismatch_rejected(self):
        image = synthetic_image(32, 32, 1)
        with pytest.raises(EncodingError, match="component"):
            encode_image(image, params(size=32, components=3))

    def test_bit_depth_mismatch_rejected(self):
        image = synthetic_image(32, 32, 3, bit_depth=10)
        with pytest.raises(EncodingError, match="depth"):
            encode_image(image, params(size=32))
