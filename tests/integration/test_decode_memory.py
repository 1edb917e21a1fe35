"""Decode memory tracks one tile, not the image.

The driver drains each tile through entropy, gather and reconstruction
before the next tile decodes, so a tile's flat coefficients and band
planes are gone by then.  What stays is the reconstructed tile planes
and the output frame they are assembled into: about twice the frame's
bytes.  The bound here is 3x the frame, under the inline executor and
under the pool (both start methods); decoding the whole image before
reconstructing any tile reads about 9x on this 16-tile image.
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

PLANS = {"inline": DecodeOptions()} | {
    f"pool-{method}": DecodeOptions(
        workers=2, oversubscribe=True, start_method=method,
    )
    for method in START_METHODS
}

#: Traced peak of one decode, as a multiple of the output frame's bytes.
MAX_PEAK_RATIO = 3.0


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


@pytest.mark.parametrize("plan", list(PLANS))
def test_peak_stays_under_three_frames(codestream, plan):
    options = PLANS[plan]
    # Warm up first: the pool, the native kernel and the lifting-index
    # memo are one-time costs, not per-decode memory.
    Jpeg2000Decoder(codestream, options=options).decode()
    decoder = Jpeg2000Decoder(codestream, options=options)
    assert decoder.parameters.num_tiles() == 16
    tracemalloc.start()
    try:
        image = decoder.decode()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frame = sum(component.nbytes for component in image.components)
    assert peak < MAX_PEAK_RATIO * frame, (
        f"{plan}: traced peak {peak / frame:.2f}x the output frame"
    )
