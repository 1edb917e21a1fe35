"""Unit tests of the native Tier-1 kernel's loader and ctypes wrapper."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.jpeg2000 import t1_native
from repro.jpeg2000.t1 import CodeBlockEncoder

SRC = Path(__file__).resolve().parents[3] / "src"


class _NeverCalled:
    """Stands in for the loaded library: entering C fails the test."""

    @property
    def t1_decode_batch(self):
        raise AssertionError("bad geometry reached the C kernel")


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
        finally:
            t1_native._load.cache_clear()

    def test_two_processes_build_into_one_empty_directory(self, tmp_path):
        """Racing first uses each end with a working library, one .so and
        no temporary files left behind."""
        if t1_native._compiler() is None:
            pytest.skip("no C compiler on this host")
        coeffs = [(-1) ** i * (i % 9) for i in range(64)]
        encoded = CodeBlockEncoder(coeffs, 8, 8, "LH").encode()
        script = (
            "from repro.jpeg2000 import t1_native\n"
            "assert t1_native.available()\n"
            f"out, _ = t1_native.decode_codeblock_batch([({encoded.data!r}, "
            f"8, 8, 'LH', {encoded.num_bitplanes}, None, 0)])\n"
            f"assert out.tolist() == {coeffs!r}\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC),
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
