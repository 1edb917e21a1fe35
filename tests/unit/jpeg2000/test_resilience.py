"""Error-resilience markers: SOP sequence numbers and EPH."""

import pytest

from repro.jpeg2000 import (
    CodingParameters,
    Jpeg2000Decoder,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000.t2 import EPH_MARKER, PacketError, SOP_MARKER, consume_sop, sop_segment


def params(use_sop=False, use_eph=False, **overrides):
    defaults = dict(
        width=64, height=64, num_components=3,
        tile_width=32, tile_height=32, num_levels=3,
        lossless=True, use_sop=use_sop, use_eph=use_eph,
    )
    defaults.update(overrides)
    return CodingParameters(**defaults)


@pytest.fixture(scope="module")
def image():
    return synthetic_image(64, 64, 3, seed=44)


class TestMarkers:
    def test_sop_segment_layout(self):
        segment = sop_segment(0x1234)
        assert segment == b"\xff\x91\x00\x04\x12\x34"

    def test_sop_sequence_wraps_16_bits(self):
        assert sop_segment(0x1_0005)[-2:] == b"\x00\x05"
        assert consume_sop(sop_segment(0x1_0005), 0, 0x1_0005) == 6

    def test_consume_sop_rejects_wrong_marker(self):
        with pytest.raises(PacketError, match="desynchronised"):
            consume_sop(b"\x00\x00\x00\x04\x00\x00", 0, 0)

    def test_consume_sop_rejects_wrong_sequence(self):
        with pytest.raises(PacketError, match="sequence mismatch"):
            consume_sop(sop_segment(3), 0, 4)


class TestRoundtrips:
    @pytest.mark.parametrize("use_sop,use_eph", [
        (True, False), (False, True), (True, True),
    ])
    def test_exact_with_markers(self, image, use_sop, use_eph):
        codestream = encode_image(image, params(use_sop, use_eph))
        assert Jpeg2000Decoder(codestream).decode() == image

    def test_markers_signalled_in_cod(self, image):
        from repro.jpeg2000 import parse_codestream

        codestream = encode_image(image, params(True, True))
        parsed = parse_codestream(codestream).parameters
        assert parsed.use_sop and parsed.use_eph

    def test_markers_present_in_stream(self, image):
        plain = encode_image(image, params())
        marked = encode_image(image, params(True, True))
        assert SOP_MARKER not in _tile_body(plain)
        assert marked.count(SOP_MARKER) >= 4  # one per packet
        assert EPH_MARKER in marked

    def test_layered_streams_with_markers(self, image):
        codestream = encode_image(image, params(True, True, num_layers=3))
        assert Jpeg2000Decoder(codestream).decode() == image


def _tile_body(codestream):
    sod = codestream.find(b"\xff\x93")
    return codestream[sod + 2:]


class TestCorruptionDetection:
    def test_sequence_corruption_detected(self, image):
        codestream = bytearray(encode_image(image, params(True, False)))
        position = bytes(codestream).find(SOP_MARKER, 200)
        codestream[position + 5] ^= 0x01
        with pytest.raises(PacketError, match="sequence mismatch"):
            Jpeg2000Decoder(bytes(codestream)).decode()

    def test_missing_eph_detected(self, image):
        codestream = bytearray(encode_image(image, params(False, True)))
        position = bytes(codestream).find(EPH_MARKER)
        codestream[position] = 0x00
        with pytest.raises(PacketError, match="EPH"):
            Jpeg2000Decoder(bytes(codestream)).decode()

    def test_plain_stream_has_no_detection(self, image):
        """Without markers the same corruption passes silently or decodes
        to garbage — the motivation for the resilience options."""
        codestream = bytearray(encode_image(image, params()))
        # flip a bit deep inside a packet body
        codestream[len(codestream) // 2] ^= 0x10
        try:
            out = Jpeg2000Decoder(bytes(codestream)).decode()
            assert out != image  # silently wrong
        except Exception:
            pass  # or some downstream error: either way, no clean detection
