"""Decode memory is the output frame plus about one tile.

The frame is allocated before the first tile decodes and every tile's
reconstruction writes straight into its window of it, so no finished
tile plane is kept; the driver drains each tile through entropy, gather
and reconstruction before the next, and the pool decodes only one tile
ahead of the drain.  A 16-tile decode's traced peak is about 1.2x the
frame's bytes inline and 1.3x under the pool (both start methods), and
about 1.4x for a decode one resolution level down (the frame is a
quarter the size, the one-tile transient is not).  The bound here is
1.5x; holding every reconstructed tile until a separate assembly pass
reads about 2x, and decoding the whole image before reconstructing any
tile about 9x.

With 4 tiles one tile is a quarter of the frame, so the lossy colour
transform's transient shows: it holds the tile's float64 planes and
their transform at once, 1.63x the frame inline.  The bound there is
1.75x; stacking a third copy of the planes before the transform read
1.88x.
"""

import multiprocessing
import os
import tracemalloc

import pytest

from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    encode_image,
    shutdown_pool,
    synthetic_image,
)

START_METHODS = ["fork", "spawn"] if hasattr(os, "fork") else ["spawn"]

#: Plan name -> (options, max_resolution).
PLANS = {"inline": (DecodeOptions(), None)} | {
    f"pool-{method}": (
        DecodeOptions(workers=2, oversubscribe=True, start_method=method),
        None,
    )
    for method in START_METHODS
} | {"inline-reduced": (DecodeOptions(), 2)}

#: Traced peak of one decode, as a multiple of the output frame's bytes.
MAX_PEAK_RATIO = 1.5
#: The same for the 4-tile lossy decode (one tile is a quarter frame).
MAX_LOSSY_4_TILE_PEAK_RATIO = 1.75


@pytest.fixture(scope="module", params=[True, False], ids=["lossless", "lossy"])
def codestream(request):
    params = CodingParameters(
        width=256, height=256, num_components=3, tile_width=64,
        tile_height=64, num_levels=3, lossless=request.param,
    )
    return encode_image(synthetic_image(256, 256, 3, seed=23), params)


@pytest.fixture(autouse=True)
def _clean_pool():
    shutdown_pool()
    yield
    shutdown_pool()
    assert multiprocessing.active_children() == [], "worker processes leaked"


def _peak_ratio(codestream, options, max_resolution=None) -> tuple:
    """``(tiles, traced peak over the output frame's bytes)`` of one decode."""
    # Warm up first: the pool, the native kernel and the lifting-index
    # memo are one-time costs, not per-decode memory.
    Jpeg2000Decoder(
        codestream, options=options, max_resolution=max_resolution
    ).decode()
    decoder = Jpeg2000Decoder(
        codestream, options=options, max_resolution=max_resolution
    )
    tracemalloc.start()
    try:
        image = decoder.decode()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frame = sum(component.nbytes for component in image.components)
    return decoder.parameters.num_tiles(), peak / frame


@pytest.mark.parametrize("plan", list(PLANS))
def test_peak_stays_under_three_frames(codestream, plan):
    options, max_resolution = PLANS[plan]
    tiles, ratio = _peak_ratio(codestream, options, max_resolution)
    assert tiles == 16
    assert ratio < MAX_PEAK_RATIO, (
        f"{plan}: traced peak {ratio:.2f}x the output frame"
    )


def test_four_tile_lossy_peak():
    params = CodingParameters(
        width=256, height=256, num_components=3, tile_width=128,
        tile_height=128, num_levels=3, lossless=False,
    )
    codestream = encode_image(synthetic_image(256, 256, 3, seed=23), params)
    tiles, ratio = _peak_ratio(codestream, DecodeOptions())
    assert tiles == 4
    assert ratio < MAX_LOSSY_4_TILE_PEAK_RATIO, (
        f"4-tile lossy: traced peak {ratio:.2f}x the output frame"
    )
