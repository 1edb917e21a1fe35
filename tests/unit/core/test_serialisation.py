"""Wire-size computation and chunking for method-call payloads."""

import numpy as np
import pytest

from repro.core import (
    Serialisable,
    SerialisationError,
    SerialisedPayload,
    payload_bits,
    serialise_call,
)


class TestPayloadBits:
    def test_none_is_empty(self):
        assert payload_bits(None) == 0

    def test_scalars(self):
        assert payload_bits(True) == 1
        assert payload_bits(7) == 32
        assert payload_bits(3.14) == 32

    def test_bytes_and_str(self):
        assert payload_bits(b"abcd") == 32
        assert payload_bits("hi") == 16

    def test_numpy_arrays(self):
        arr = np.zeros((4, 4), dtype=np.int32)
        assert payload_bits(arr) == 4 * 4 * 32
        assert payload_bits(np.int16(3)) == 16

    def test_containers_sum(self):
        assert payload_bits((1, 2, 3)) == 96
        assert payload_bits([1, "ab"]) == 48
        assert payload_bits({1: 2}) == 64

    def test_custom_serialisable(self):
        class Tile(Serialisable):
            def payload_bits(self):
                return 1000

        assert payload_bits(Tile()) == 1000

    def test_unserialisable_rejected(self):
        class Pointerish:
            pass

        with pytest.raises(SerialisationError, match="pointers"):
            payload_bits(Pointerish())


class TestSerialisedPayload:
    def test_word_count_rounds_up(self):
        payload = SerialisedPayload((1, 2, 3), word_bits=32)
        assert payload.words == 3
        payload = SerialisedPayload("abcde", word_bits=32)  # 40 bits
        assert payload.words == 2

    def test_empty_payload_has_zero_words(self):
        # headers are charged by the transport layer, not here
        assert SerialisedPayload(None, word_bits=32).words == 0

    def test_word_width_validation(self):
        with pytest.raises(ValueError):
            SerialisedPayload(1, word_bits=0)


class TestSerialiseCall:
    def test_args_and_kwargs_counted(self):
        payload = serialise_call((1, 2), {"flag": True}, word_bits=32)
        # 2 x 32 (args) + 32 ("flag" is 4 utf-8 bytes) + 1 (bool) = 97 bits
        assert payload.bits == 97
        assert payload.words == 4

    def test_kwarg_order_is_canonical(self):
        a = serialise_call((), {"b": 1, "a": 2}, 32)
        b = serialise_call((), {"a": 2, "b": 1}, 32)
        assert a.bits == b.bits
