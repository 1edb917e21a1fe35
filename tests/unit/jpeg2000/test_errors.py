"""One decode error family: every malformed input raises a DecodeError."""

import pytest

from repro.jpeg2000 import (
    CodestreamError,
    CodingParameters,
    DecodeError,
    DecodingError,
    Jpeg2000Decoder,
    TranscodeError,
    decode_codestream,
    drop_layers,
    encode_image,
    parse_codestream,
    synthetic_image,
    write_codestream,
)
from repro.jpeg2000.codestream import PROGRESSION_RLCP, TilePart
from repro.jpeg2000.t2 import PacketError


def _stream(**overrides):
    params = CodingParameters(**{
        "width": 32, "height": 32, "num_components": 3,
        "tile_width": 16, "tile_height": 16, "num_levels": 2,
        "lossless": True, **overrides,
    })
    return encode_image(synthetic_image(32, 32, 3, seed=5), params)


def _unsupported_marker():
    parse_codestream(b"\xff\x4f\xff\xff")


def _truncated_packet_body():
    parsed = parse_codestream(_stream())
    parts = [
        TilePart(part.tile_index, part.data[:5] if part.tile_index == 0
                 else part.data)
        for part in parsed.tile_parts
    ]
    decode_codestream(write_codestream(parsed.parameters, parts))


def _layer_truncation_of_rlcp():
    stream = _stream(progression=PROGRESSION_RLCP, num_layers=2)
    Jpeg2000Decoder(stream, max_layers=1).decode()


def _drop_every_layer():
    drop_layers(_stream(num_layers=2), 0)


@pytest.mark.parametrize("expected, malformed", [
    (CodestreamError, _unsupported_marker),
    (PacketError, _truncated_packet_body),
    (DecodingError, _layer_truncation_of_rlcp),
    (TranscodeError, _drop_every_layer),
], ids=lambda value: getattr(value, "__name__", None))
def test_malformed_input_raises_a_decode_error(expected, malformed):
    try:
        malformed()
    except DecodeError as error:
        assert type(error) is expected
        # The historical base stays, so existing handlers keep working.
        assert isinstance(error, (ValueError, RuntimeError))
    else:
        pytest.fail(f"{malformed.__name__} raised nothing")
