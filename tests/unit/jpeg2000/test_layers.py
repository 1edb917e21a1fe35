"""Quality layers: layered Tier-2, prefix decoding, rate scalability."""

import pytest

from repro.jpeg2000 import (
    CodingParameters,
    Jpeg2000Decoder,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000.t1 import CodeBlockEncoder
from repro.jpeg2000.t2 import CodeBlockContribution


def params(layers, lossless=False, size=64, tile=32):
    return CodingParameters(
        width=size,
        height=size,
        num_components=3,
        tile_width=tile,
        tile_height=tile,
        num_levels=3,
        lossless=lossless,
        num_layers=layers,
        base_step=1 / 8,
    )


@pytest.fixture(scope="module")
def image():
    return synthetic_image(64, 64, 3, seed=77)


class TestLayeredRoundtrip:
    @pytest.mark.parametrize("layers", [1, 2, 3, 8])
    def test_lossless_exact_any_layer_count(self, image, layers):
        codestream = encode_image(image, params(layers, lossless=True))
        assert Jpeg2000Decoder(codestream).decode() == image

    @pytest.mark.parametrize("layers", [2, 5])
    def test_lossy_full_decode_matches_single_layer_quality(self, image, layers):
        single = Jpeg2000Decoder(encode_image(image, params(1))).decode()
        layered = Jpeg2000Decoder(encode_image(image, params(layers))).decode()
        assert layered.psnr(image) == pytest.approx(single.psnr(image), abs=0.2)

    def test_layer_overhead_is_modest(self, image):
        single = len(encode_image(image, params(1, lossless=True)))
        five = len(encode_image(image, params(5, lossless=True)))
        assert five > single  # extra packet headers
        assert five < single * 1.15  # ... but only a few percent


class TestPrefixDecoding:
    def test_quality_monotone_in_layers(self, image):
        codestream = encode_image(image, params(5))
        psnrs = [
            Jpeg2000Decoder(codestream, max_layers=count).decode().psnr(image)
            for count in range(1, 6)
        ]
        assert all(a <= b + 0.01 for a, b in zip(psnrs, psnrs[1:]))
        assert psnrs[-1] - psnrs[0] > 10.0  # the progression is real

    def test_prefix_of_lossless_stream_is_lossy(self, image):
        codestream = encode_image(image, params(4, lossless=True))
        partial = Jpeg2000Decoder(codestream, max_layers=1).decode()
        full = Jpeg2000Decoder(codestream).decode()
        assert full == image
        assert partial != image
        assert partial.psnr(image) > 15.0

    def test_max_layers_beyond_available_is_full_decode(self, image):
        codestream = encode_image(image, params(2, lossless=True))
        assert Jpeg2000Decoder(codestream, max_layers=99).decode() == image

    def test_layer_count_validated(self, image):
        from repro.jpeg2000.codestream import CodestreamError

        with pytest.raises(CodestreamError, match="layer count"):
            encode_image(image, params(0))
        good = params(2, lossless=True)
        data = bytearray(encode_image(image, good))
        # corrupt the layer count field in COD (offset: find marker)
        cod = bytes(data).find(b"\xff\x52")
        data[cod + 6] = 0xFF  # layers high byte -> 65280
        data[cod + 7] = 0x00
        with pytest.raises(CodestreamError, match="layer count"):
            Jpeg2000Decoder(bytes(data))


class TestPassSegmentation:
    def test_pass_lengths_monotone(self):
        import random

        rng = random.Random(5)
        coeffs = [rng.randrange(-255, 256) for _ in range(256)]
        result = CodeBlockEncoder(coeffs, 16, 16, "HL").encode()
        assert len(result.pass_lengths) == result.num_passes
        assert all(
            a <= b for a, b in zip(result.pass_lengths, result.pass_lengths[1:])
        )
        assert result.pass_lengths[-1] == len(result.data)

    def test_truncated_segment_decodes_identically(self):
        import random

        from repro.jpeg2000.t1 import CodeBlockDecoder

        rng = random.Random(6)
        coeffs = [rng.randrange(-127, 128) if rng.random() < 0.5 else 0
                  for _ in range(256)]
        result = CodeBlockEncoder(coeffs, 16, 16, "HL").encode()
        for passes in range(1, result.num_passes + 1):
            prefix = result.data[: result.pass_lengths[passes - 1]]
            full = CodeBlockDecoder(
                result.data, 16, 16, "HL", result.num_bitplanes, passes
            ).decode()
            truncated = CodeBlockDecoder(
                prefix, 16, 16, "HL", result.num_bitplanes, passes
            ).decode()
            assert truncated == full

    def test_default_allocation_spreads_passes(self):
        from repro.jpeg2000.structure import CodeBlockGeometry

        block = CodeBlockContribution(
            geometry=CodeBlockGeometry(0, 0, 0, 0, 4, 4), num_passes=10
        )
        allocation = block.allocation(3)
        assert allocation[-1] == 10
        assert allocation == sorted(allocation)
        assert block.first_layer(3) == 0

    def test_empty_block_never_included(self):
        from repro.jpeg2000.structure import CodeBlockGeometry

        block = CodeBlockContribution(
            geometry=CodeBlockGeometry(0, 0, 0, 0, 4, 4), num_passes=0
        )
        assert block.first_layer(4) == 4
