"""Property-based parity: the native Tier-1 encoder vs the reference.

``t1_native.encode_codeblock_batch`` exists purely for speed; these
properties pin it to the readable specification coder,
:class:`~repro.jpeg2000.t1.CodeBlockEncoder`, field for field: the
codeword segment, the pass and bit-plane counts, the pass lengths that
Tier-2 truncates layers at, and the basic-operation count.  Every native
segment must also decode back to its coefficients through the native
decoder.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jpeg2000 import t1_native
from repro.jpeg2000.t1 import CodeBlockEncoder
from repro.jpeg2000.t1_native import decode_codeblock_batch, encode_codeblock_batch

ORIENTATIONS = ("LL", "HL", "LH", "HH")
AMPLITUDES = (0, 1, 7, 127, 2047, 2**30 - 1)


def _fields(result):
    return (result.data, result.num_passes, result.num_bitplanes, result.ops,
            list(result.pass_lengths))


def _assert_parity(blocks):
    """Native batch == reference per block, and each segment round-trips."""
    native = encode_codeblock_batch(blocks)
    assert len(native) == len(blocks)
    for (coeffs, width, height, orientation), result in zip(blocks, native):
        reference = CodeBlockEncoder(coeffs, width, height, orientation).encode()
        assert _fields(result) == _fields(reference)
        out, _ = decode_codeblock_batch(
            [(result.data, width, height, orientation, result.num_bitplanes,
              None, 0)]
        )
        assert out.tolist() == list(coeffs)


@st.composite
def blocks(draw):
    """A block of 1xN, Nx1, ragged-stripe or small rectangular shape."""
    shape = draw(st.sampled_from(["row", "column", "ragged", "rect"]))
    long_side = draw(st.integers(min_value=1, max_value=40))
    if shape == "row":
        width, height = long_side, 1
    elif shape == "column":
        width, height = 1, long_side
    elif shape == "ragged":
        width = draw(st.integers(min_value=1, max_value=9))
        height = 4 * draw(st.integers(min_value=0, max_value=3)) + draw(
            st.integers(min_value=1, max_value=3)
        )
    else:
        width = draw(st.integers(min_value=1, max_value=12))
        height = draw(st.integers(min_value=1, max_value=12))
    amplitude = draw(st.sampled_from(AMPLITUDES))
    value = st.integers(min_value=-amplitude, max_value=amplitude)
    # Sparse blocks exercise the cleanup pass's run mode.
    coeffs = draw(st.lists(
        st.one_of(st.just(0), value) if draw(st.booleans()) else value,
        min_size=width * height, max_size=width * height,
    ))
    return coeffs, width, height, draw(st.sampled_from(ORIENTATIONS))


@given(st.lists(blocks(), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_native_encoder_matches_reference(batch):
    _assert_parity(batch)


@pytest.mark.parametrize("amplitude", AMPLITUDES)
@pytest.mark.parametrize("width,height", [(64, 64), (1024, 4), (4, 1024)])
def test_largest_blocks_match_reference(width, height, amplitude):
    rng = np.random.default_rng(amplitude + width)
    coeffs = rng.integers(-amplitude, amplitude + 1, width * height).tolist()
    orientation = ORIENTATIONS[AMPLITUDES.index(amplitude) % 4]
    _assert_parity([(coeffs, width, height, orientation)])


@given(st.lists(blocks(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_full_output_buffer_resumes_identically(batch):
    """With no first-try room the first coded block finds the buffer
    full: the kernel stops there, and the wrapper resumes from that block
    with more room; the results do not change."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(t1_native, "_capacity", lambda samples, planes: samples * 0)
        _assert_parity(batch)
