"""Property-based parity: the native Tier-1 kernel vs the reference.

The native C kernel (``t1_native.c``) exists purely for speed; these
properties pin it to the readable specification kernel bit for bit —
identical coefficients AND identical basic-operation counts (the Fig. 1
/ Table 1 cycle models read the op counter, so a drift there would
silently skew the paper reproduction).  Truncated pass counts, odd
shapes, garbage codewords and over-deep blocks are all compared
differentially against :class:`~repro.jpeg2000.t1.CodeBlockDecoder`.
A batch split over several threads must decode exactly like one call,
and must reject a bad block before any helper thread starts.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jpeg2000 import t1_native
from repro.jpeg2000.options import KERNEL_NATIVE
from repro.jpeg2000.stages.entropy import decode_batch
from repro.jpeg2000.t1 import CodeBlockDecoder, CodeBlockEncoder
from repro.jpeg2000.t1_native import decode_codeblock_batch

ORIENTATIONS = st.sampled_from(["LL", "HL", "LH", "HH"])


def _encoded(draw, width, height, amplitudes=(1, 7, 127, 2047)):
    orientation = draw(ORIENTATIONS)
    amplitude = draw(st.sampled_from(amplitudes))
    coeffs = draw(
        st.lists(
            st.integers(min_value=-amplitude, max_value=amplitude),
            min_size=width * height,
            max_size=width * height,
        )
    )
    result = CodeBlockEncoder(coeffs, width, height, orientation).encode()
    if result.num_passes:
        num_passes = draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=result.num_passes))
        )
    else:
        num_passes = None
    if num_passes is None:
        data = result.data
    else:
        data = result.data[: result.bytes_for_passes(num_passes)]
    return data, width, height, orientation, result.num_bitplanes, num_passes, coeffs


@st.composite
def coded_blocks(draw):
    """A random encoded code block plus its decode parameters."""
    width = draw(st.integers(min_value=1, max_value=12))
    height = draw(st.integers(min_value=1, max_value=12))
    return _encoded(draw, width, height)


@st.composite
def odd_shaped_blocks(draw):
    """Strips (1xN, Nx1) and heights that leave a partial last stripe."""
    long_side = draw(st.integers(min_value=1, max_value=40))
    shape = draw(st.sampled_from(["row", "column", "ragged"]))
    if shape == "row":
        width, height = long_side, 1
    elif shape == "column":
        width, height = 1, long_side
    else:
        width = draw(st.integers(min_value=1, max_value=9))
        height = 4 * draw(st.integers(min_value=0, max_value=3)) + draw(
            st.integers(min_value=1, max_value=3)
        )
    return _encoded(draw, width, height)


def _reference(block):
    data, width, height, orientation, num_bitplanes, num_passes = block[:6]
    decoder = CodeBlockDecoder(
        data, width, height, orientation, num_bitplanes, num_passes
    )
    return decoder.decode(), decoder.ops


def _batch(blocks, gap=0):
    """Blocks laid end to end (``gap`` samples apart) in one output."""
    batch = []
    offset = gap
    for data, width, height, orientation, num_bitplanes, num_passes, *_ in blocks:
        batch.append(
            (data, width, height, orientation, num_bitplanes, num_passes, offset)
        )
        offset += width * height + gap
    return batch, offset


def _assert_matches_reference(blocks, batch, out, op_counts):
    assert len(op_counts) == len(blocks)
    for block, entry, ops in zip(blocks, batch, op_counts):
        start = entry[6]
        values, reference_ops = _reference(block)
        assert out[start : start + block[1] * block[2]].tolist() == values
        assert ops == reference_ops


@given(coded_blocks())
@settings(max_examples=120, deadline=None)
def test_fast_kernel_matches_reference(block):
    """Single blocks, truncated pass counts included."""
    batch, _ = _batch([block])
    out, op_counts = decode_codeblock_batch(batch)
    _assert_matches_reference([block], batch, out, op_counts)


@given(coded_blocks())
@settings(max_examples=60, deadline=None)
def test_fast_kernel_roundtrips_full_blocks(block):
    data, width, height, orientation, num_bitplanes, num_passes, coeffs = block
    if num_passes is not None:
        return  # truncated segments reconstruct approximations by design
    out, _ = decode_codeblock_batch(
        [(data, width, height, orientation, num_bitplanes, None, 0)]
    )
    assert out.tolist() == coeffs


@given(st.lists(coded_blocks(), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_batched_kernel_matches_single_block_and_reference(blocks):
    """One call over a whole chunk decodes every block exactly like a
    one-block call AND like the reference kernel, op counts included."""
    batch, _ = _batch(blocks)
    out, op_counts = decode_codeblock_batch(batch)
    assert out.dtype == np.int32
    _assert_matches_reference(blocks, batch, out, op_counts)
    for entry, ops in zip(batch, op_counts):
        alone, (alone_ops,) = decode_codeblock_batch([entry[:6] + (0,)])
        start = entry[6]
        assert alone.tolist() == out[start : start + len(alone)].tolist()
        assert alone_ops == ops


@given(st.lists(coded_blocks(), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_batched_kernel_writes_into_caller_buffer(blocks):
    """With a caller-supplied output array the batch writes in place at
    the given offsets and leaves untouched gaps at zero."""
    batch, end = _batch(blocks)
    out = np.zeros(end + 5, dtype=np.int32)  # trailing gap stays zero
    returned, _ = decode_codeblock_batch(batch, out)
    assert returned is out
    auto, _ = decode_codeblock_batch(batch)
    assert out[:end].tolist() == auto[:end].tolist()
    assert out[end:].tolist() == [0] * 5


@given(st.lists(odd_shaped_blocks(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_native_kernel_matches_reference_on_odd_shapes(blocks):
    batch, _ = _batch(blocks)
    out, op_counts = decode_codeblock_batch(batch)
    _assert_matches_reference(blocks, batch, out, op_counts)


@st.composite
def garbage_blocks(draw):
    """Random bytes posing as a codeword, with random geometry/planes."""
    width = draw(st.integers(min_value=1, max_value=16))
    height = draw(st.integers(min_value=1, max_value=16))
    data = draw(st.binary(min_size=0, max_size=48))
    num_bitplanes = draw(st.integers(min_value=0, max_value=12))
    num_passes = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=40)))
    return data, width, height, draw(ORIENTATIONS), num_bitplanes, num_passes


@given(st.lists(garbage_blocks(), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_native_kernel_matches_reference_on_garbage_codewords(blocks):
    """Hostile codewords: the native kernel agrees with the reference
    (which reads 0xFF past a codeword's end).  The codewords sit back to
    back in one buffer, so a read past one block's codeword would see
    its neighbour's bytes and diverge; canary samples between blocks
    catch any write outside a block."""
    canary = -0x5A5A5A5
    batch, end = _batch(blocks, gap=3)
    out = np.full(end, canary, dtype=np.int32)
    _, op_counts = decode_codeblock_batch(batch, out)
    _assert_matches_reference(blocks, batch, out, op_counts)
    written = np.zeros(end, dtype=bool)
    for entry in batch:
        written[entry[6] : entry[6] + entry[1] * entry[2]] = True
    assert (out[~written] == canary).all()


@given(st.integers(min_value=31, max_value=40), st.integers(min_value=1, max_value=6))
@settings(max_examples=10, deadline=None)
def test_deep_blocks_route_to_the_reference_kernel(bitplanes, side):
    """Blocks over 30 bit planes overflow int32: the native kernel
    refuses them, and the entropy stage decodes them through the
    reference kernel into an int64 output, next to native blocks."""
    peak = (1 << bitplanes) - 1
    coeffs = [-peak // 3 if index % 2 else peak for index in range(side * side)]
    deep = CodeBlockEncoder(coeffs, side, side, "HH").encode()
    assert deep.num_bitplanes == bitplanes
    shallow_coeffs = list(range(-8, 8))
    shallow = CodeBlockEncoder(shallow_coeffs, 4, 4, "LL").encode()
    deep_task = (deep.data, side, side, "HH", bitplanes, None)
    with pytest.raises(ValueError, match="bit planes"):
        decode_codeblock_batch([deep_task + (0,)])
    batch = [
        (shallow.data, 4, 4, "LL", shallow.num_bitplanes, None, 0),
        deep_task + (16,),
    ]
    out = np.zeros(16 + side * side, dtype=np.int64)
    ops = decode_batch(batch, out, KERNEL_NATIVE)
    assert out[:16].tolist() == shallow_coeffs
    assert out[16:].tolist() == coeffs
    assert ops == [_reference(block)[1] for block in batch]


@st.composite
def zero_plane_blocks(draw):
    """Blocks with no coded bit plane: all-zero output, no ops."""
    width = draw(st.integers(min_value=1, max_value=16))
    height = draw(st.integers(min_value=1, max_value=16))
    data = draw(st.binary(max_size=8))
    return data, width, height, draw(ORIENTATIONS), 0, None


@given(st.lists(
    st.one_of(coded_blocks(), garbage_blocks(), zero_plane_blocks()),
    min_size=1, max_size=7,
))
@settings(max_examples=80, deadline=None)
def test_thread_split_matches_the_single_call(blocks):
    """Splitting a batch over 1..4 threads (more threads than blocks
    included) decodes every block exactly like one call: coefficients,
    untouched gaps and per-block op counts."""
    canary = -0x5A5A5A5
    batch, end = _batch([block[:6] for block in blocks], gap=2)
    single = np.full(end, canary, dtype=np.int32)
    _, single_ops = decode_codeblock_batch(batch, single)
    for threads in range(1, 5):
        out = np.full(end, canary, dtype=np.int32)
        returned, ops = decode_codeblock_batch(batch, out, threads=threads)
        assert returned is out
        assert out.tolist() == single.tolist(), threads
        assert ops == single_ops, threads


@given(st.lists(st.integers(min_value=1, max_value=5000), max_size=40),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_thread_runs_cover_the_batch_in_order(costs, threads):
    runs = t1_native._runs(np.array(costs, dtype=np.int64), threads)
    assert 1 <= len(runs) <= max(1, min(threads, len(costs)))
    assert runs[0][0] == 0 and runs[-1][1] == len(costs)
    for (_, last), (first, _) in zip(runs, runs[1:]):
        assert last == first
    assert all(last > first for first, last in runs) or costs == []


class _ThreadSpy:
    """Counts helper threads started through ``threading.Thread``."""

    def __init__(self, monkeypatch):
        self.started = 0
        original = threading.Thread.start

        def start(thread):
            self.started += 1
            original(thread)

        monkeypatch.setattr(threading.Thread, "start", start)


def _two_blocks():
    coded = CodeBlockEncoder(list(range(-8, 8)), 4, 4, "LL").encode()
    block = (coded.data, 4, 4, "LL", coded.num_bitplanes, None)
    return [block + (0,), block + (16,)]


def test_split_starts_helper_threads(monkeypatch):
    spy = _ThreadSpy(monkeypatch)
    before = threading.active_count()
    out, _ = decode_codeblock_batch(_two_blocks(), threads=4)
    assert spy.started == 1  # two blocks: one helper, one calling thread
    assert out.tolist() == list(range(-8, 8)) * 2
    assert threading.active_count() == before


@pytest.mark.parametrize("bad,out", [
    ((b"", 0, 4, "LL", 1, None, 0), None),
    ((b"", 2048, 2, "LL", 1, None, 0), None),
    ((b"", 4, 4, "XX", 1, None, 0), None),
    ((b"", 4, 4, "LL", 31, None, 0), None),
    ((b"", 4, 4, "LL", 1, None, -1), None),
    (None, np.zeros(20, np.int32)),
], ids=["zero-side", "too-wide", "orientation", "too-deep", "offset",
        "overrun"])
def test_geometry_errors_precede_helper_threads(monkeypatch, bad, out):
    spy = _ThreadSpy(monkeypatch)
    blocks = _two_blocks() + ([bad] if bad else [])
    with pytest.raises(ValueError):
        decode_codeblock_batch(blocks, out, threads=4)
    assert spy.started == 0


def test_unavailable_kernel_precedes_helper_threads(monkeypatch):
    spy = _ThreadSpy(monkeypatch)
    monkeypatch.setattr(t1_native, "_load", lambda: (None, "no compiler"))
    with pytest.raises(t1_native.NativeUnavailable, match="no compiler"):
        decode_codeblock_batch(_two_blocks(), threads=4)
    assert spy.started == 0
