"""Substrate micro-benchmarks: codec throughput and simulator event rate.

Not paper artefacts — these track the performance of the reproduction's
own machinery so regressions in the substrates are visible.  The
end-to-end and per-layer wall clock of decoding and of the Table 1
matrix is measured by ``python3 perfbench/run.py``.

The value-invariance check at the bottom runs the Table 1 benches under
the reference scheduler (``fast=False``) and the fast substrate (kernel
fast paths plus channel burst fast-forwarding) and asserts the reported
milliseconds are identical in both modes; it asserts values only, never
wall clock.
"""

import pytest

from repro.casestudy.explorer import run_version
from repro.jpeg2000 import (
    CodingParameters,
    decode_codestream,
    encode_image,
    synthetic_image,
)
from repro.jpeg2000.dwt import forward, inverse
from repro.jpeg2000.t1 import CodeBlockDecoder, CodeBlockEncoder
from repro.kernel import Event, Simulator, ns, set_default_fast


def _values_in_mode(version: str, fast: bool):
    """Both Table 1 configurations of *version* under one substrate."""
    previous = set_default_fast(fast)
    try:
        rows = (run_version(version, lossless=True),
                run_version(version, lossless=False))
    finally:
        set_default_fast(previous)
    return [(row.decode_ms, row.idwt_ms) for row in rows]


@pytest.fixture(scope="module")
def codestream_64():
    image = synthetic_image(64, 64, 3, seed=99)
    params = CodingParameters(
        width=64, height=64, num_components=3,
        tile_width=32, tile_height=32, num_levels=3, lossless=True,
    )
    return encode_image(image, params), image


def test_codec_decode_throughput(benchmark, codestream_64):
    data, image = codestream_64
    out = benchmark(lambda: decode_codestream(data))
    assert out == image


def test_codec_encode_throughput(benchmark):
    image = synthetic_image(64, 64, 3, seed=99)
    params = CodingParameters(
        width=64, height=64, num_components=3,
        tile_width=32, tile_height=32, num_levels=3, lossless=True,
    )
    data = benchmark(lambda: encode_image(image, params))
    assert len(data) > 0


def test_t1_block_decode_rate(benchmark):
    import random

    rng = random.Random(1)
    coeffs = [rng.randrange(-127, 128) if rng.random() < 0.5 else 0 for _ in range(1024)]
    result = CodeBlockEncoder(coeffs, 32, 32, "HL").encode()

    def decode():
        return CodeBlockDecoder(
            result.data, 32, 32, "HL", result.num_bitplanes, result.num_passes
        ).decode()

    assert benchmark(decode) == coeffs


def test_idwt_numpy_rate(benchmark):
    import numpy as np

    tile = np.random.default_rng(2).integers(-128, 128, (128, 128))
    subbands = forward(tile, "5/3", 3)
    out = benchmark(lambda: inverse(subbands))
    assert (out == tile).all()


def test_simulator_event_rate(benchmark):
    """Raw ping-pong event throughput of the DES kernel."""

    def run():
        sim = Simulator()
        ping, pong = Event(sim, "ping"), Event(sim, "pong")

        def left():
            for _ in range(2000):
                ping.notify(delta=True)
                yield pong

        def right():
            for _ in range(2000):
                yield ping
                pong.notify(delta=True)

        sim.spawn(left(), "l")
        sim.spawn(right(), "r")
        sim.run()
        return sim.delta_count

    deltas = benchmark(run)
    assert deltas >= 2000


def test_timed_event_wheel_rate(benchmark):
    def run():
        sim = Simulator()

        def body():
            for _ in range(5000):
                yield ns(1)

        sim.spawn(body(), "p")
        sim.run()
        return sim.now

    assert benchmark(run) == ns(5000)


# -- Table 1 substrate value invariance ---------------------------------------


@pytest.mark.parametrize("version", ["3", "6a", "6b", "7a", "7b"])
def test_substrate_value_invariance_quick(version):
    """Fast and reference substrates report identical values."""
    assert _values_in_mode(version, fast=True) == _values_in_mode(version, fast=False)
