"""Property-based parity: the native reconstruct kernel vs the spec.

The native kernel (``reconstruct_tile`` in ``t1_native.c``) gathers,
dequantises and inverts one tile in one call; the ``vectorised`` stages
(:func:`~repro.jpeg2000.stages.reconstruct.scatter_entropy`,
:func:`~repro.jpeg2000.stages.reconstruct.dequantise` and
:func:`~repro.jpeg2000.dwt.inverse`) are its executable specification.
Over random tile shapes (1-wide, odd, up to 130 a side), 0-5 levels,
both transforms, resolution truncation, code-block sizes, QCD steps and
coefficients spanning the int32 range — plus the int64 output of deep
blocks — the two must produce byte-identical planes, identical samples
after the colour transform and DC shift, and identical ``StageOps``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jpeg2000 import t1_native
from repro.jpeg2000.codestream import CodingParameters
from repro.jpeg2000.encoder import subband_order
from repro.jpeg2000.pipeline import StageOps
from repro.jpeg2000.plan import RECONSTRUCT_NATIVE
from repro.jpeg2000.quant import StepSize
from repro.jpeg2000.stages import reconstruct
from repro.jpeg2000.structure import band_shapes, codeblock_grid
from repro.jpeg2000.t2 import CodeBlockContribution, PacketBand

pytestmark = pytest.mark.skipif(
    not t1_native.available(), reason="no C compiler for the native kernel"
)

INT32 = np.iinfo(np.int32)
INT64 = np.iinfo(np.int64)


def _layout(params, width, height):
    """The per-component band layout the Tier-2 parse hands the gather."""
    return [
        {
            (shape.resolution, shape.orientation): PacketBand(
                orientation=shape.orientation,
                band_width=shape.width,
                band_height=shape.height,
                cb_size=params.codeblock_size,
                blocks=[
                    CodeBlockContribution(geometry=geo)
                    for geo in codeblock_grid(
                        shape.width, shape.height, params.codeblock_size
                    )
                ],
            )
            for shape in band_shapes(width, height, params.num_levels)
        }
        for _ in range(params.num_components)
    ]


@st.composite
def tiles(draw, wide=False):
    width = draw(st.integers(1, 130))
    height = draw(st.integers(1, 130))
    levels = draw(st.integers(0, 5))
    lossless = draw(st.booleans())
    components = draw(st.sampled_from([1, 3]))
    params = CodingParameters(
        width=width, height=height, num_components=components,
        tile_width=width, tile_height=height, num_levels=levels,
        codeblock_exp=draw(st.integers(2, 6)), lossless=lossless,
        use_mct=components == 3 and draw(st.booleans()),
        bit_depth=draw(st.sampled_from([1, 8, 12])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if not lossless:
        params.step_sizes = [
            StepSize.unpack(int(value))
            for value in rng.integers(0, 1 << 16, len(subband_order(levels)))
        ]
    top = band_shapes(width, height, levels)[-1].resolution
    max_resolution = draw(st.one_of(st.none(), st.integers(0, top + 1)))
    layout = _layout(params, width, height)
    sizes = [
        block.geometry.width * block.geometry.height
        for bands in layout for band in bands.values() for block in band.blocks
    ]
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    if wide:
        flat = rng.integers(-(1 << 52), 1 << 52, offsets[-1], dtype=np.int64,
                            endpoint=True)
    else:
        bound = 1 << draw(st.integers(0, 31))
        flat = rng.integers(max(-bound, INT32.min), min(bound, INT32.max),
                            offsets[-1], dtype=np.int32, endpoint=True)
    # Sparse like real Tier-1 output, with the extremes present (int64's
    # wrap at both ends: the 5/3 lifting and |q| wrap like NumPy's).
    flat[rng.random(len(flat)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
    extremes = (INT64.min, INT64.max) if wide else (INT32.min + 1, INT32.max)
    if len(flat) and draw(st.booleans()):
        flat[rng.integers(0, len(flat), 2)] = extremes
    block_ops = rng.integers(0, 1000, len(sizes)).tolist()
    return params, layout, flat, offsets, block_ops, max_resolution


def _vectorised(params, layout, flat, offsets, block_ops, max_resolution):
    ops = StageOps()
    bands = reconstruct.scatter_entropy(
        params, params.tile_width, params.tile_height, layout, flat, offsets,
        block_ops, ops,
    )
    subbands = reconstruct.dequantise(params, bands, ops, max_resolution)
    return reconstruct.inverse_dwt(subbands, ops), ops


def _native(params, layout, flat, offsets, block_ops, max_resolution):
    ops = StageOps()
    tile = reconstruct.scatter_entropy(
        params, params.tile_width, params.tile_height, layout, flat, offsets,
        block_ops, ops, RECONSTRUCT_NATIVE,
    )
    assert isinstance(tile, reconstruct.FlatTile)
    planes = reconstruct.reconstruct_native(
        params, params.tile_width, params.tile_height, tile, ops,
        max_resolution,
    )
    return planes, ops


def _assert_parity(case):
    params = case[0]
    expected, expected_ops = _vectorised(*case)
    actual, actual_ops = _native(*case)
    assert len(actual) == len(expected) == params.num_components
    for ours, theirs in zip(actual, expected):
        assert ours.dtype == theirs.dtype
        assert ours.shape == theirs.shape
        assert ours.tobytes() == np.ascontiguousarray(theirs).tobytes()
    assert actual_ops.counts == expected_ops.counts
    ops = StageOps()
    samples = []
    for planes in (actual, expected):
        out = [np.zeros(plane.shape, dtype=np.int64) for plane in planes]
        reconstruct.finish_mct_dc(params, planes, ops, out=out)
        samples.append(out)
    for ours, theirs in zip(*samples):
        assert ours.tobytes() == theirs.tobytes()


@given(tiles())
@settings(max_examples=150, deadline=None)
def test_native_reconstruct_matches_vectorised(case):
    _assert_parity(case)


@given(tiles(wide=True))
@settings(max_examples=40, deadline=None)
def test_native_reconstruct_matches_vectorised_on_int64_input(case):
    _assert_parity(case)


def test_native_reconstruct_rejects_blocks_outside_the_input():
    params = CodingParameters(width=8, height=8, num_components=1,
                              tile_width=8, tile_height=8, num_levels=1)
    layout = reconstruct.native_layout(8, 8, 1, params.codeblock_size, None)
    flat = np.zeros(63, dtype=np.int32)  # the last block's is one short
    offsets = np.arange(0, 64, 16, dtype=np.int64)
    with pytest.raises(ValueError, match="block row"):
        t1_native.reconstruct_tile(
            flat, offsets, layout.blocks_per_component, layout.blocks,
            layout.levels, (1, 8, 8),
        )
    with pytest.raises(ValueError, match="int32 or int64"):
        t1_native.reconstruct_tile(
            flat.astype(np.float64), offsets, layout.blocks_per_component,
            layout.blocks, layout.levels, (1, 8, 8),
        )
