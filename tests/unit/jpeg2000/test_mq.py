"""MQ arithmetic coder: table integrity, roundtrips, edge cases."""

import random

from repro.jpeg2000.mq import ContextState, MqDecoder, MqEncoder, QE_TABLE


def roundtrip(bits, context_ids, num_contexts) -> bool:
    """Encode then decode a decision sequence; True if it survives."""
    encoder = MqEncoder()
    bank = [ContextState() for _ in range(num_contexts)]
    for bit, cid in zip(bits, context_ids):
        encoder.encode(bit, bank[cid])
    decoder = MqDecoder(encoder.flush())
    bank = [ContextState() for _ in range(num_contexts)]
    return [decoder.decode(bank[cid]) for cid in context_ids] == list(bits)


class TestQeTable:
    def test_has_47_states(self):
        assert len(QE_TABLE) == 47

    def test_transitions_stay_in_table(self):
        for qe, nmps, nlps, switch in QE_TABLE:
            assert 0 <= nmps < 47
            assert 0 <= nlps < 47
            assert switch in (0, 1)
            assert 0 < qe <= 0x5601

    def test_state_zero_is_startup(self):
        qe, nmps, nlps, switch = QE_TABLE[0]
        assert qe == 0x5601 and switch == 1

    def test_terminal_state_is_absorbing(self):
        qe, nmps, nlps, switch = QE_TABLE[46]
        assert nmps == 46 and nlps == 46

    def test_mps_path_probability_non_increasing(self):
        # Following NMPS from state 0 (skipping the fast-attack states)
        # must reach ever smaller Qe eventually ending at a fixed point.
        state = 14
        visited = []
        for _ in range(60):
            visited.append(state)
            state = QE_TABLE[state][1]
        assert state == visited[-1]  # converged


class TestRoundtrips:
    def test_single_bits(self):
        assert roundtrip([0], [0], 1)
        assert roundtrip([1], [0], 1)

    def test_long_runs(self):
        assert roundtrip([0] * 4096, [0] * 4096, 1)
        assert roundtrip([1] * 4096, [0] * 4096, 1)

    def test_alternating(self):
        bits = [0, 1] * 1000
        assert roundtrip(bits, [0] * len(bits), 1)

    def test_multi_context(self):
        rng = random.Random(1)
        bits = [rng.randrange(2) for _ in range(2000)]
        ctxs = [rng.randrange(19) for _ in range(2000)]
        assert roundtrip(bits, ctxs, 19)

    def test_skewed_streams_compress(self):
        rng = random.Random(2)
        bits = [1 if rng.random() < 0.02 else 0 for _ in range(8000)]
        encoder = MqEncoder()
        ctx = ContextState()
        for bit in bits:
            encoder.encode(bit, ctx)
        data = encoder.flush()
        assert len(data) < 8000 / 8 / 4  # far better than 1 bit per symbol


class TestByteStuffing:
    def test_ff_bytes_followed_by_small_byte(self):
        # Streams heavy in MPS hits produce 0xFF bytes; the byte after any
        # 0xFF must have its top bit clear (value <= 0x8F per the spec).
        rng = random.Random(3)
        bits = [1 if rng.random() < 0.9 else 0 for _ in range(4000)]
        encoder = MqEncoder()
        ctx = ContextState()
        for bit in bits:
            encoder.encode(bit, ctx)
        data = encoder.flush()
        for index in range(len(data) - 1):
            if data[index] == 0xFF:
                assert data[index + 1] <= 0x8F

    def test_flush_never_ends_in_ff(self):
        for seed in range(20):
            rng = random.Random(seed)
            bits = [rng.randrange(2) for _ in range(rng.randrange(1, 500))]
            encoder = MqEncoder()
            ctx = ContextState()
            for bit in bits:
                encoder.encode(bit, ctx)
            assert not encoder.flush().endswith(b"\xff")

    def test_decoder_survives_truncated_data(self):
        # Reading past the end must behave like 0xFF fill, not crash.
        decoder = MqDecoder(b"\x12")
        ctx = ContextState()
        for _ in range(100):
            assert decoder.decode(ctx) in (0, 1)


class TestContextState:
    def test_reset(self):
        ctx = ContextState(index=5, mps=1)
        ctx.reset()
        assert ctx.index == 0 and ctx.mps == 0

    def test_adaptation_changes_state(self):
        encoder = MqEncoder()
        ctx = ContextState()
        for _ in range(10):
            encoder.encode(0, ctx)
        assert ctx.index != 0  # the state adapted towards skewed MPS


class TestOpsCounter:
    def test_encoder_counts_work(self):
        encoder = MqEncoder()
        ctx = ContextState()
        for _ in range(100):
            encoder.encode(0, ctx)
        assert encoder.ops >= 100

    def test_decoder_counts_work(self):
        encoder = MqEncoder()
        ctx = ContextState()
        for _ in range(100):
            encoder.encode(1, ctx)
        decoder = MqDecoder(encoder.flush())
        ctx = ContextState()
        for _ in range(100):
            decoder.decode(ctx)
        assert decoder.ops >= 100
