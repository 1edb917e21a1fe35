"""Property-based tests of the MQ coder (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.jpeg2000.mq import ContextState, MqDecoder, MqEncoder


@st.composite
def decision_streams(draw):
    """A random (bits, context ids) pair over a random context bank size."""
    num_contexts = draw(st.integers(min_value=1, max_value=19))
    length = draw(st.integers(min_value=0, max_value=600))
    bits = draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    contexts = draw(
        st.lists(st.integers(0, num_contexts - 1), min_size=length, max_size=length)
    )
    return num_contexts, bits, contexts


@given(decision_streams())
@settings(max_examples=200, deadline=None)
def test_roundtrip_is_identity(stream):
    num_contexts, bits, context_ids = stream
    encoder = MqEncoder()
    enc_bank = [ContextState() for _ in range(num_contexts)]
    for bit, ctx in zip(bits, context_ids):
        encoder.encode(bit, enc_bank[ctx])
    data = encoder.flush()
    decoder = MqDecoder(data)
    dec_bank = [ContextState() for _ in range(num_contexts)]
    decoded = [decoder.decode(dec_bank[ctx]) for ctx in context_ids]
    assert decoded == bits


@given(decision_streams())
@settings(max_examples=100, deadline=None)
def test_context_states_converge_identically(stream):
    """Encoder and decoder context adaptation must track exactly."""
    num_contexts, bits, context_ids = stream
    encoder = MqEncoder()
    enc_bank = [ContextState() for _ in range(num_contexts)]
    for bit, ctx in zip(bits, context_ids):
        encoder.encode(bit, enc_bank[ctx])
    decoder = MqDecoder(encoder.flush())
    dec_bank = [ContextState() for _ in range(num_contexts)]
    for ctx in context_ids:
        decoder.decode(dec_bank[ctx])
    for enc_ctx, dec_ctx in zip(enc_bank, dec_bank):
        assert (enc_ctx.index, enc_ctx.mps) == (dec_ctx.index, dec_ctx.mps)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=100, max_value=2000),
    st.randoms(use_true_random=False),
)
@settings(max_examples=50, deadline=None)
def test_skewed_streams_never_expand_catastrophically(p_one, length, rng):
    bits = [1 if rng.random() < p_one else 0 for _ in range(length)]
    encoder = MqEncoder()
    ctx = ContextState()
    for bit in bits:
        encoder.encode(bit, ctx)
    data = encoder.flush()
    # The MQ coder's worst-case expansion is tightly bounded.
    assert len(data) <= length // 4 + 16


@given(st.binary(min_size=0, max_size=64))
@settings(max_examples=100, deadline=None)
def test_decoder_total_on_arbitrary_data(data):
    """Decoding garbage never crashes and always yields bits."""
    decoder = MqDecoder(data)
    ctx = ContextState()
    for _ in range(256):
        assert decoder.decode(ctx) in (0, 1)
