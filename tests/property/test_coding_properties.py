"""Property-based tests of Tier-1, tag trees, bit I/O and the full codec."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.jpeg2000 import CodingParameters, Jpeg2000Decoder, encode_image
from repro.jpeg2000.bitio import BitReader, BitWriter
from repro.jpeg2000.image import Image
from repro.jpeg2000.t1 import CodeBlockDecoder, CodeBlockEncoder
from repro.jpeg2000.tagtree import TagTree


@given(st.lists(st.integers(0, 1), min_size=0, max_size=400))
@settings(max_examples=150, deadline=None)
def test_bitio_roundtrip(bits):
    writer = BitWriter()
    for bit in bits:
        writer.put_bit(bit)
    reader = BitReader(writer.flush())
    assert [reader.get_bit() for _ in range(len(bits))] == bits


@given(st.lists(st.integers(0, 1), min_size=0, max_size=400))
@settings(max_examples=100, deadline=None)
def test_bitio_never_emits_marker_prefix(bits):
    """Stuffing guarantees no 0xFF byte is followed by a byte > 0x7F."""
    writer = BitWriter()
    for bit in bits:
        writer.put_bit(bit)
    data = writer.flush()
    for index in range(len(data) - 1):
        if data[index] == 0xFF:
            assert data[index + 1] <= 0x7F


@st.composite
def tag_grids(draw):
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    values = draw(
        st.lists(
            st.integers(0, 10), min_size=width * height, max_size=width * height
        )
    )
    return width, height, values


@given(tag_grids())
@settings(max_examples=100, deadline=None)
def test_tagtree_per_leaf_resolution(grid):
    """Zero-bitplane usage: resolve each leaf with ascending thresholds."""
    width, height, values = grid
    encoder_tree, decoder_tree = TagTree(width, height), TagTree(width, height)
    for y in range(height):
        for x in range(width):
            encoder_tree.set_value(x, y, values[y * width + x])
    writer = BitWriter()
    for y in range(height):
        for x in range(width):
            encoder_tree.encode(writer, x, y, values[y * width + x] + 1)
    reader = BitReader(writer.flush())
    for y in range(height):
        for x in range(width):
            threshold = 1
            while not decoder_tree.decode(reader, x, y, threshold):
                threshold += 1
            assert decoder_tree.value_of(x, y) == values[y * width + x]


@st.composite
def code_blocks(draw):
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 12))
    coeffs = draw(
        st.lists(
            st.integers(-1023, 1023),
            min_size=width * height,
            max_size=width * height,
        )
    )
    orientation = draw(st.sampled_from(["LL", "HL", "LH", "HH"]))
    return width, height, coeffs, orientation


@given(code_blocks())
@settings(max_examples=100, deadline=None)
def test_t1_roundtrip(block):
    width, height, coeffs, orientation = block
    result = CodeBlockEncoder(coeffs, width, height, orientation).encode()
    decoder = CodeBlockDecoder(
        result.data, width, height, orientation, result.num_bitplanes, result.num_passes
    )
    assert decoder.decode() == coeffs


@st.composite
def small_images(draw):
    size = draw(st.sampled_from([16, 32]))
    components = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    planes = [
        rng.integers(0, 256, (size, size), dtype=np.int64).astype(np.int64)
        for _ in range(components)
    ]
    return Image(components=planes, bit_depth=8), size, components


@given(small_images())
@settings(max_examples=20, deadline=None)
def test_lossless_codec_roundtrip_random_images(image_spec):
    image, size, components = image_spec
    params = CodingParameters(
        width=size,
        height=size,
        num_components=components,
        tile_width=16,
        tile_height=16,
        num_levels=2,
        lossless=True,
        use_mct=components >= 3,
    )
    assert Jpeg2000Decoder(encode_image(image, params)).decode() == image


@given(
    st.integers(1, 6),
    st.sampled_from([0, 1]),  # LRCP / RLCP
    st.integers(0, 2**31),
)
@settings(max_examples=15, deadline=None)
def test_layered_lossless_roundtrip_any_progression(layers, progression, seed):
    rng = np.random.default_rng(seed)
    image = Image(
        components=[rng.integers(0, 256, (32, 32)).astype(np.int64) for _ in range(3)],
        bit_depth=8,
    )
    params = CodingParameters(
        width=32, height=32, num_components=3,
        tile_width=16, tile_height=16, num_levels=2,
        lossless=True, num_layers=layers, progression=progression,
    )
    assert Jpeg2000Decoder(encode_image(image, params)).decode() == image
