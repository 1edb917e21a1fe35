"""Progression orders and resolution scalability."""

import numpy as np
import pytest

from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000.codestream import (
    PROGRESSION_LRCP,
    PROGRESSION_RLCP,
    CodestreamError,
)
from repro.jpeg2000.decoder import DecodingError


def params(progression, layers=1, lossless=True, size=64, tile=32):
    return CodingParameters(
        width=size,
        height=size,
        num_components=3,
        tile_width=tile,
        tile_height=tile,
        num_levels=3,
        lossless=lossless,
        num_layers=layers,
        progression=progression,
        base_step=1 / 8,
    )


def _assert_mosaic(spec, out):
    """*out* is *spec*'s per-stage tiles packed edge to edge in grid order."""
    params = spec.parameters
    across = -(-params.width // params.tile_width)
    tiles = [
        spec.tile_stages(index).run() for index in range(params.num_tiles())
    ]
    xs = np.cumsum([0] + [planes[0].shape[1] for planes in tiles[:across]])
    ys = np.cumsum([0] + [planes[0].shape[0] for planes in tiles[::across]])
    assert (out.width, out.height) == (xs[-1], ys[-1])
    for index, planes in enumerate(tiles):
        x, y = xs[index % across], ys[index // across]
        for component, plane in zip(out.components, planes):
            height, width = plane.shape
            assert np.array_equal(
                component[y:y + height, x:x + width], plane
            ), (index, spec.max_resolution)


@pytest.fixture(scope="module")
def image():
    return synthetic_image(64, 64, 3, seed=31)


class TestProgressionOrders:
    @pytest.mark.parametrize("progression", [PROGRESSION_LRCP, PROGRESSION_RLCP])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_roundtrip_exact(self, image, progression, layers):
        codestream = encode_image(image, params(progression, layers))
        assert Jpeg2000Decoder(codestream).decode() == image

    def test_same_payload_different_order(self, image):
        lrcp = encode_image(image, params(PROGRESSION_LRCP, layers=2))
        rlcp = encode_image(image, params(PROGRESSION_RLCP, layers=2))
        # identical content, reordered packets: near-identical size
        assert abs(len(lrcp) - len(rlcp)) < len(lrcp) * 0.02

    def test_progression_signalled_in_codestream(self, image):
        codestream = encode_image(image, params(PROGRESSION_RLCP))
        assert Jpeg2000Decoder(codestream).parameters.progression == PROGRESSION_RLCP

    def test_layer_truncation_requires_lrcp(self, image):
        codestream = encode_image(image, params(PROGRESSION_RLCP, layers=3))
        with pytest.raises(DecodingError, match="LRCP"):
            Jpeg2000Decoder(codestream, max_layers=1).decode()


class TestResolutionScalability:
    @pytest.mark.parametrize("progression", [PROGRESSION_LRCP, PROGRESSION_RLCP])
    def test_reduced_sizes(self, image, progression):
        codestream = encode_image(image, params(progression))
        for resolution, size in ((0, 8), (1, 16), (2, 32), (3, 64)):
            out = Jpeg2000Decoder(codestream, max_resolution=resolution).decode()
            assert (out.width, out.height) == (size, size)

    def test_full_resolution_request_is_exact(self, image):
        codestream = encode_image(image, params(PROGRESSION_LRCP))
        out = Jpeg2000Decoder(codestream, max_resolution=3).decode()
        assert out == image

    def test_thumbnail_resembles_downsampled_original(self, image):
        """The 5/3 LL band is a (lifting) local average of the image."""
        codestream = encode_image(image, params(PROGRESSION_LRCP))
        thumb = Jpeg2000Decoder(codestream, max_resolution=1).decode()
        reference = image.components[0].reshape(16, 4, 16, 4).mean(axis=(1, 3))
        got = thumb.components[0].astype(np.float64)
        correlation = np.corrcoef(reference.flatten(), got.flatten())[0, 1]
        # the 5/3 low band aliases the synthetic texture somewhat, so the
        # match is strong but not perfect
        assert correlation > 0.75

    def test_reduced_decode_does_less_entropy_work(self, image):
        codestream = encode_image(image, params(PROGRESSION_RLCP))
        small = Jpeg2000Decoder(codestream, max_resolution=0)
        small.decode()
        full = Jpeg2000Decoder(codestream)
        full.decode()
        assert small.ops["arith"] < full.ops["arith"] / 4

    def test_lrcp_reduced_decode_still_works(self, image):
        """With LRCP the packets interleave; truncation still reconstructs."""
        codestream = encode_image(image, params(PROGRESSION_LRCP))
        out = Jpeg2000Decoder(codestream, max_resolution=1).decode()
        assert (out.width, out.height) == (16, 16)

    def test_multi_tile_mosaic_alignment(self):
        """Every tile lands whole at its offset in the mosaic, at every
        resolution, on grids whose edge tiles are smaller, under both
        wavelets and both Tier-1 kernels (so both reconstruct paths):
        each tile's window equals the per-stage specification path
        (``TileStages.run``), and the windows tile the frame edge to
        edge."""
        for width, height, tile in ((200, 120, 64), (130, 70, 32)):
            image = synthetic_image(width, height, 3, seed=5)
            for lossless in (True, False):
                # The reference kernel's Tier-1 is slow: its cases use
                # RLCP, so a reduced decode reads only the kept
                # resolutions' packets, and leave the full-size decode
                # to test_plan_matrix.py.
                for kernel, progression, resolutions in (
                    ("native", PROGRESSION_LRCP, range(4)),
                    ("reference", PROGRESSION_RLCP, range(3)),
                ):
                    p = CodingParameters(
                        width=width, height=height, num_components=3,
                        tile_width=tile, tile_height=tile, num_levels=3,
                        lossless=lossless, progression=progression,
                    )
                    codestream = encode_image(image, p)
                    for resolution in resolutions:
                        decoder = Jpeg2000Decoder(
                            codestream, max_resolution=resolution,
                            options=DecodeOptions(kernel=kernel),
                        )
                        spec = Jpeg2000Decoder(
                            codestream, max_resolution=resolution
                        )
                        _assert_mosaic(spec, decoder.decode())

    def test_unpackable_reduced_grid_is_a_codestream_error(self):
        """A 2x1 corner tile stops its DWT after one level, so at
        resolutions 1 and 2 it is wider than its column: the decode
        raises a ``CodestreamError`` naming the tile and the resolution
        instead of failing inside NumPy, and decodes where it packs."""
        image = synthetic_image(66, 65, 1)
        codestream = encode_image(image, CodingParameters(
            width=66, height=65, num_components=1, tile_width=64,
            tile_height=64, num_levels=3, lossless=True, use_mct=False,
        ))
        for resolution in (1, 2):
            decoder = Jpeg2000Decoder(codestream, max_resolution=resolution)
            with pytest.raises(CodestreamError,
                               match=f"tile 3 .* resolution {resolution}"):
                decoder.decode()
        sizes = {
            resolution: Jpeg2000Decoder(
                codestream, max_resolution=resolution
            ).decode().components[0].shape
            for resolution in (0, 3, None)
        }
        assert sizes == {0: (9, 9), 3: (65, 66), None: (65, 66)}

    def test_negative_resolution_rejected(self, image):
        codestream = encode_image(image, params(PROGRESSION_LRCP))
        with pytest.raises(ValueError):
            Jpeg2000Decoder(codestream, max_resolution=-1)
