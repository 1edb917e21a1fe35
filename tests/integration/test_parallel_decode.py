"""Parallel decode must equal sequential decode, bit for bit.

Covers both case-study modes (lossless 5/3 and lossy 9/7) end to end:
real codestreams, multiple tiles, and every scheduling variant of
:class:`~repro.jpeg2000.options.DecodeOptions` — the parity guarantee
that makes the worker pool a pure wall-clock optimisation.
"""

import numpy as np
import pytest

from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    KERNEL_REFERENCE,
    encode_image,
    shutdown_pool,
    synthetic_image,
)


@pytest.fixture(scope="module", params=[True, False], ids=["lossless", "lossy"])
def codestream(request):
    lossless = request.param
    image = synthetic_image(96, 96, 3, seed=41)
    params = CodingParameters(
        width=96,
        height=96,
        num_components=3,
        tile_width=48,
        tile_height=48,
        num_levels=3,
        lossless=lossless,
        base_step=1 / 8,
    )
    return encode_image(image, params)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


def _decode(codestream, options):
    decoder = Jpeg2000Decoder(codestream, options=options)
    return decoder.decode(), decoder.ops


def test_parallel_equals_sequential(codestream):
    sequential, seq_ops = _decode(codestream, DecodeOptions())
    parallel, par_ops = _decode(codestream, DecodeOptions(workers=2, chunk_size=3))
    for ours, theirs in zip(parallel.components, sequential.components):
        assert np.array_equal(ours, theirs)
    assert par_ops.counts == seq_ops.counts


def test_fast_kernel_equals_reference_kernel(codestream):
    reference, ref_ops = _decode(codestream, DecodeOptions(kernel=KERNEL_REFERENCE))
    native, native_ops = _decode(codestream, DecodeOptions())
    for ours, theirs in zip(native.components, reference.components):
        assert np.array_equal(ours, theirs)
    assert native_ops.counts == ref_ops.counts


def test_parallel_reference_kernel_also_identical(codestream):
    sequential, _ = _decode(codestream, DecodeOptions(kernel=KERNEL_REFERENCE))
    parallel, _ = _decode(
        codestream, DecodeOptions(workers=2, kernel=KERNEL_REFERENCE, chunk_size=1)
    )
    for ours, theirs in zip(parallel.components, sequential.components):
        assert np.array_equal(ours, theirs)
