"""Unit tests of the native Tier-1 kernel's loader and ctypes wrapper."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.jpeg2000 import encode_image, encoder, synthetic_image, t1_native
from repro.jpeg2000.codestream import (
    PROGRESSION_LRCP,
    PROGRESSION_RLCP,
    CodingParameters,
)
from repro.jpeg2000.t1 import CodeBlockEncoder

SRC = Path(__file__).resolve().parents[3] / "src"


class _NeverCalled:
    """Stands in for the loaded library: entering C fails the test."""

    @property
    def t1_decode_batch(self):
        raise AssertionError("bad geometry reached the C kernel")

    @property
    def t1_encode_batch(self):
        raise AssertionError("bad input reached the C kernel")


@pytest.fixture
def no_c_entry(monkeypatch):
    monkeypatch.setattr(t1_native, "_load", lambda: (_NeverCalled(), None))


def _block(width=4, height=4, orientation="HH", planes=3, offset=0):
    return (b"\x12\x34", width, height, orientation, planes, None, offset)


class TestGeometryValidation:
    @pytest.mark.parametrize("width,height", [
        (0, 4), (4, 0), (-1, 4), (1025, 1), (1, 1025), (65, 64),
    ])
    def test_bad_dimensions_rejected(self, no_c_entry, width, height):
        with pytest.raises(ValueError, match="geometry"):
            t1_native.decode_codeblock_batch([_block(width, height)])

    def test_largest_legal_shapes_accepted(self):
        for width, height in ((1024, 4), (4, 1024), (64, 64), (1, 1024)):
            out, ops = t1_native.decode_codeblock_batch(
                [(b"", width, height, "LL", 0, None, 0)]
            )
            assert out.shape == (width * height,)
            assert ops == [0]

    def test_unknown_orientation_rejected(self, no_c_entry):
        with pytest.raises(ValueError, match="orientation"):
            t1_native.decode_codeblock_batch([_block(orientation="XX")])

    def test_too_many_bitplanes_rejected(self, no_c_entry):
        with pytest.raises(ValueError, match="bit planes"):
            t1_native.decode_codeblock_batch([_block(planes=31)])

    @pytest.mark.parametrize("offset,length", [(0, 15), (1, 16), (-1, 32)])
    def test_block_overrunning_out_rejected(self, no_c_entry, offset, length):
        out = np.zeros(length, dtype=np.int32)
        with pytest.raises(ValueError):
            t1_native.decode_codeblock_batch([_block(offset=offset)], out)

    @pytest.mark.parametrize("out", [
        np.zeros(16, dtype=np.int64),
        np.zeros(32, dtype=np.int32)[::2],
        np.zeros((4, 4), dtype=np.int32),
    ])
    def test_unsuitable_out_rejected(self, no_c_entry, out):
        with pytest.raises(ValueError, match="int32"):
            t1_native.decode_codeblock_batch([_block()], out)

    def test_empty_batch(self):
        out, ops = t1_native.decode_codeblock_batch([])
        assert out.shape == (0,) and ops == []


class TestEncoderValidation:
    @pytest.mark.parametrize("width,height", [
        (0, 4), (4, 0), (1025, 1), (1, 1025), (65, 64),
    ])
    def test_bad_dimensions_rejected(self, no_c_entry, width, height):
        coeffs = [1] * (width * height)
        with pytest.raises(ValueError, match="geometry"):
            t1_native.encode_codeblock_batch([(coeffs, width, height, "LL")])

    def test_unknown_orientation_rejected(self, no_c_entry):
        with pytest.raises(ValueError, match="orientation"):
            t1_native.encode_codeblock_batch([([1] * 16, 4, 4, "XX")])

    def test_coefficient_count_mismatch_rejected(self, no_c_entry):
        with pytest.raises(ValueError, match="coefficient count"):
            t1_native.encode_codeblock_batch([([1] * 15, 4, 4, "LL")])

    @pytest.mark.parametrize("peak", [1 << 30, -(1 << 30), 1 << 40])
    def test_too_many_bitplanes_rejected(self, no_c_entry, peak):
        coeffs = [3] * 15 + [peak]
        with pytest.raises(ValueError, match="bit planes"):
            t1_native.encode_codeblock_batch(
                [([1] * 16, 4, 4, "HL"), (coeffs, 4, 4, "LL")]
            )

    def test_empty_batch(self):
        assert t1_native.encode_codeblock_batch([]) == []

    def test_all_zero_block(self):
        (result,) = t1_native.encode_codeblock_batch([([0] * 16, 4, 4, "LL")])
        assert (result.data, result.num_passes, result.num_bitplanes,
                result.ops, result.pass_lengths) == (b"", 0, 0, 0, [])


class TestEncoderBuffer:
    """The C entry point itself never writes past the caller's buffer."""

    def _call(self, coeffs, width, height, capacity):
        library, reason = t1_native._load()
        if library is None:
            pytest.skip(reason)
        coefficients = np.asarray(coeffs, dtype=np.int32)
        meta = np.array([[0, width, height, 3]], dtype=np.int64)
        guard = 64
        out = np.full(capacity + guard, 0xA5, dtype=np.uint8)
        results = np.zeros((1, t1_native._RESULT_FIELDS), dtype=np.int64)
        done = ctypes.c_int64(-1)
        status = library.t1_encode_batch(
            1, coefficients.ctypes.data, len(coefficients), meta.ctypes.data,
            out.ctypes.data, capacity, results.ctypes.data, ctypes.byref(done),
        )
        return status, done.value, out, results[0], guard

    @pytest.mark.parametrize("capacity", [0, 1, 2, 17, 100])
    def test_full_buffer_reports_and_stays_inside(self, capacity):
        coeffs = [(-1) ** i * (i * 7919 % 2048) for i in range(256)]
        status, done, out, _, guard = self._call(coeffs, 16, 16, capacity)
        assert status == t1_native._FULL and done == 0
        assert (out[capacity:] == 0xA5).all()
        assert len(out) == capacity + guard

    def test_room_for_sentinel_and_segment_suffices(self):
        """A block uses its segment, the sentinel byte before it, and at
        most one terminal 0xFF that the segment drops."""
        coeffs = [(-1) ** i * (i * 7919 % 2048) for i in range(256)]
        reference = CodeBlockEncoder(coeffs, 16, 16, "HH").encode()
        status, _, _, _, _ = self._call(coeffs, 16, 16, len(reference.data))
        assert status == t1_native._FULL
        status, done, out, row, _ = self._call(
            coeffs, 16, 16, len(reference.data) + 2
        )
        assert status == 0 and done == 1
        start, length = int(row[0]), int(row[1])
        assert out[start:start + length].tobytes() == reference.data

    def test_deep_block_rejected_by_backstop(self):
        status, done, out, _, _ = self._call([1 << 30] + [0] * 15, 4, 4, 64)
        assert status == t1_native._REJECT and done == 0
        assert (out == 0xA5).all()


def _params(lossless=True, width=80, height=72, tile=(48, 40), **overrides):
    return CodingParameters(
        width, height, tile_width=tile[0], tile_height=tile[1],
        num_levels=2, codeblock_exp=4, lossless=lossless, **overrides,
    )


@pytest.fixture
def reference_only(monkeypatch):
    """``t1_native`` as on a host without a C compiler."""
    def force():
        monkeypatch.setattr(t1_native, "_compiler", lambda: None)
        t1_native._load.cache_clear()
    yield force
    t1_native._load.cache_clear()


class TestEncoderCodestreams:
    """``encode_image`` writes the same bytes with and without the native
    kernel; without it, every block goes through the reference coder."""

    @pytest.mark.parametrize("lossless,overrides", [
        (True, {}),
        (False, {}),
        (True, {"num_layers": 3, "progression": PROGRESSION_LRCP}),
        (False, {"num_layers": 2, "progression": PROGRESSION_RLCP}),
        (True, {"use_sop": True, "use_eph": True}),
        (False, {"num_layers": 2, "use_sop": True, "use_eph": False}),
        (True, {"progression": PROGRESSION_RLCP, "use_eph": True}),
    ])
    def test_native_matches_reference_codestream(
        self, reference_only, monkeypatch, lossless, overrides
    ):
        if not t1_native.available():
            pytest.skip("no C compiler on this host")
        image = synthetic_image(80, 72, 3, seed=19)
        batches = []
        real = t1_native.encode_codeblock_batch
        monkeypatch.setattr(
            t1_native, "encode_codeblock_batch",
            lambda blocks: batches.append(len(blocks)) or real(blocks),
        )
        native = encode_image(image, _params(lossless, **overrides))
        assert batches and sum(batches) > len(batches)  # one call per band
        reference_only()
        assert not t1_native.available()
        calls = len(batches)
        reference = encode_image(image, _params(lossless, **overrides))
        assert len(batches) == calls
        assert native == reference

    def test_oversize_code_blocks_route_to_reference_coder(
        self, reference_only, monkeypatch
    ):
        """128x128 code blocks (legal for ``CodingParameters``, beyond the
        4096 samples T.800 and the kernel allow) never reach C: the
        96x48 level-1 bands go to the reference coder, the rest to C."""
        if not t1_native.available():
            pytest.skip("no C compiler on this host")
        image = synthetic_image(192, 96, 1, seed=7)
        params = lambda: CodingParameters(
            192, 96, num_components=1, tile_width=192, tile_height=96,
            num_levels=2, codeblock_exp=7, use_mct=False,
        )
        sizes = []
        real = t1_native.encode_codeblock_batch
        monkeypatch.setattr(
            t1_native, "encode_codeblock_batch",
            lambda blocks: sizes.extend(b[0].size for b in blocks)
            or real(blocks),
        )
        native = encode_image(image, params())
        assert sorted(set(sizes)) == [48 * 24]
        reference_only()
        assert encode_image(image, params()) == native

    def test_deep_block_routes_to_reference_coder(self, monkeypatch):
        if not t1_native.available():
            pytest.skip("no C compiler on this host")
        coder = encoder.Jpeg2000Encoder(_params(tile=(80, 72)))
        band = np.arange(-200, 200, dtype=np.int64).reshape(20, 20)
        band[17, 2] = 1 << 31  # lands in the third block, 32 planes deep
        sent = []
        real = t1_native.encode_codeblock_batch
        monkeypatch.setattr(
            t1_native, "encode_codeblock_batch",
            lambda blocks: sent.append([b[0].copy() for b in blocks])
            or real(blocks),
        )
        coded = coder._code_band(1, "HL", band)
        assert len(sent) == 1 and len(sent[0]) == 3  # the deep block stays out
        deep = coded.blocks[2]
        assert deep.num_bitplanes == 32
        for block in coded.blocks:
            g = block.geometry
            reference = CodeBlockEncoder(
                band[g.y0:g.y0 + g.height, g.x0:g.x0 + g.width].ravel().tolist(),
                g.width, g.height, "HL",
            ).encode()
            assert (block.data, block.num_passes, block.num_bitplanes,
                    block.pass_lengths) == (
                reference.data, reference.num_passes,
                reference.num_bitplanes, reference.pass_lengths)


class TestBuild:
    def test_library_lives_under_the_cache_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        compiler = t1_native._compiler()
        if compiler is None:
            pytest.skip("no C compiler on this host")
        path = t1_native.library_path(compiler)
        assert path.parent == tmp_path / "native"
        assert path.suffix == ".so" and len(path.stem) == 64

    def test_missing_compiler_reports_unavailable(self, monkeypatch):
        monkeypatch.setattr(t1_native, "_compiler", lambda: None)
        t1_native._load.cache_clear()
        try:
            assert not t1_native.available()
            with pytest.raises(t1_native.NativeUnavailable, match="compiler"):
                t1_native.decode_codeblock_batch([_block()])
            with pytest.raises(t1_native.NativeUnavailable, match="compiler"):
                t1_native.encode_codeblock_batch([([1] * 16, 4, 4, "LL")])
        finally:
            t1_native._load.cache_clear()

    def test_two_processes_build_into_one_empty_directory(self, tmp_path):
        """Racing first uses each end with a working library, one .so,
        one compile and no temporary files left behind."""
        compiler = t1_native._compiler()
        if compiler is None:
            pytest.skip("no C compiler on this host")
        # A compiler wrapper that logs each invocation.
        log = tmp_path / "compiles.log"
        wrapper = tmp_path / "cc-logged"
        wrapper.write_text(f'#!/bin/sh\necho x >> "{log}"\nexec "{compiler}" "$@"\n')
        wrapper.chmod(0o755)
        coeffs = [(-1) ** i * (i % 9) for i in range(64)]
        encoded = CodeBlockEncoder(coeffs, 8, 8, "LH").encode()
        script = (
            "from repro.jpeg2000 import t1_native\n"
            "assert t1_native.available()\n"
            f"out, _ = t1_native.decode_codeblock_batch([({encoded.data!r}, "
            f"8, 8, 'LH', {encoded.num_bitplanes}, None, 0)])\n"
            f"assert out.tolist() == {coeffs!r}\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC), "CC": str(wrapper),
               "REPRO_CACHE_DIR": str(tmp_path)}
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env,
                             stderr=subprocess.PIPE)
            for _ in range(2)
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        built = sorted(p.name for p in (tmp_path / "native").iterdir())
        assert len(built) == 1 and built[0].endswith(".so")
        assert log.read_text().splitlines() == ["x"]
