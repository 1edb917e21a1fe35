"""Differential property tests for the fast Tier-2 paths.

The optimised word-at-a-time :class:`FastBitReader` and the array-backed
:class:`FlatTagTree` are required to be *observationally identical* to
their readable reference counterparts — same bits, same positions, same
exception timing.  These tests drive reference and fast implementations
in lockstep over random (and adversarially 0xFF-stuffed) inputs and
assert they never diverge.
"""

from hypothesis import given, settings, strategies as st

from repro.jpeg2000.bitio import BitReader, BitWriter, FastBitReader, ff_positions
from repro.jpeg2000.tagtree import FlatTagTree, TagTree

# -- bit reader strategies ----------------------------------------------------
#
# The readers interpret arbitrary byte strings (the stuffing rule is a
# property of *reading*: after a 0xFF byte only 7 payload bits follow),
# so plain random bytes exercise them — but unbiased random bytes hit
# 0xFF only 1/256 of the time, so a dedicated strategy biases runs of
# 0xFF in, including streams that *end* in 0xFF.

_plain_bytes = st.binary(min_size=0, max_size=48)

_stuffed_bytes = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=6),
        st.just(b"\xff"),
        st.just(b"\xff\xff"),
        st.just(b"\xff\x00"),
        st.just(b"\xff\x7f"),
    ),
    min_size=0,
    max_size=10,
).map(b"".join)

_ff_tail = st.binary(min_size=0, max_size=12).map(lambda b: b + b"\xff")

reader_inputs = st.one_of(_plain_bytes, _stuffed_bytes, _ff_tail)

#: A random op program for the lockstep drive: read single bits, short
#: runs, comma codes, and byte alignments in arbitrary order.
reader_ops = st.lists(
    st.one_of(
        st.just(("bit",)),
        st.tuples(st.just("bits"), st.integers(min_value=1, max_value=17)),
        st.just(("comma",)),
        st.just(("align",)),
    ),
    min_size=1,
    max_size=40,
)


def _apply(reader, op):
    if op[0] == "bit":
        return reader.get_bit()
    if op[0] == "bits":
        return reader.get_bits(op[1])
    if op[0] == "comma":
        return reader.get_comma_code()
    return reader.align()


@given(reader_inputs, st.integers(min_value=0, max_value=4), reader_ops)
@settings(max_examples=400, deadline=None)
def test_fast_bit_reader_matches_reference(data, offset, ops):
    offset = min(offset, len(data))
    reference = BitReader(data, offset)
    fast = FastBitReader(data, offset, ff_index=ff_positions(data))
    for op in ops:
        try:
            expected = _apply(reference, op)
            raised = False
        except EOFError:
            raised = True
        try:
            actual = _apply(fast, op)
            assert not raised, f"reference raised EOFError on {op}, fast did not"
        except EOFError:
            assert raised, f"fast raised EOFError on {op}, reference did not"
            break
        if raised:
            break
        assert actual == expected, f"op {op}: fast {actual} != reference {expected}"
        assert fast.position == reference.position, (
            f"after {op}: fast position {fast.position} "
            f"!= reference {reference.position}"
        )


@given(st.binary(min_size=0, max_size=32))
@settings(max_examples=200, deadline=None)
def test_fast_bit_reader_round_trips_writer_output(payload_bits):
    # Bits written through BitWriter (which inserts the stuffing) must
    # read back identically through both readers.
    writer = BitWriter()
    bits = [(b >> i) & 1 for b in payload_bits for i in range(8)]
    for bit in bits:
        writer.put_bit(bit)
    data = writer.flush()
    reference = BitReader(data)
    fast = FastBitReader(data, ff_index=ff_positions(data))
    for index, bit in enumerate(bits):
        assert reference.get_bit() == bit
        assert fast.get_bit() == bit, f"bit {index} diverged"
    assert fast.position == reference.position


# -- tag trees ----------------------------------------------------------------

_tree_dims = st.tuples(
    st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
)


@given(
    _tree_dims,
    st.binary(min_size=1, max_size=64),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_flat_tag_tree_matches_reference(dims, data, drawn):
    width, height = dims
    reference_tree = TagTree(width, height)
    flat_tree = FlatTagTree(width, height)
    reference_reader = BitReader(data)
    fast_reader = FastBitReader(data, ff_index=ff_positions(data))
    queries = drawn.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=width - 1),
                st.integers(min_value=0, max_value=height - 1),
                st.integers(min_value=1, max_value=12),
            ),
            min_size=1,
            max_size=12,
        )
    )
    for x, y, threshold in queries:
        try:
            expected = reference_tree.decode(reference_reader, x, y, threshold)
            raised = False
        except EOFError:
            raised = True
        try:
            actual = flat_tree.decode(fast_reader, x, y, threshold)
            assert not raised
        except EOFError:
            assert raised
            return
        if raised:
            return
        assert actual == expected
        assert fast_reader.position == reference_reader.position
        if actual:  # leaf resolved below threshold -> value is defined
            assert flat_tree.value_of(x, y) == reference_tree.value_of(x, y)
