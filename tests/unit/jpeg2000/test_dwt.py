"""Wavelet transforms: reconstruction, shapes, operation counts."""

import numpy as np
import pytest

from repro.jpeg2000 import dwt


RNG = np.random.default_rng(11)


class Test1D53:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 9, 16, 17, 101, 128])
    def test_perfect_reconstruction(self, length):
        signal = RNG.integers(-512, 512, length)
        low, high = dwt.fdwt53_1d(signal)
        assert np.array_equal(dwt.idwt53_1d(low, high), signal)

    def test_band_lengths(self):
        low, high = dwt.fdwt53_1d(np.arange(9))
        assert low.shape[0] == 5 and high.shape[0] == 4

    def test_constant_signal_has_zero_detail(self):
        low, high = dwt.fdwt53_1d(np.full(16, 100))
        assert np.all(high == 0)
        assert np.all(low == 100)

    def test_integer_arithmetic_exact(self):
        signal = np.array([3, -7, 12, 5, -2, 9, 0, 1])
        low, high = dwt.fdwt53_1d(signal)
        assert low.dtype == np.int64 and high.dtype == np.int64


class Test1D97:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 8, 9, 16, 17, 101, 128])
    def test_reconstruction_within_tolerance(self, length):
        signal = RNG.uniform(-512, 512, length)
        low, high = dwt.fdwt97_1d(signal)
        assert np.allclose(dwt.idwt97_1d(low, high), signal, atol=1e-9)

    def test_constant_signal_detail_near_zero(self):
        low, high = dwt.fdwt97_1d(np.full(16, 100.0))
        assert np.allclose(high, 0.0, atol=1e-9)

    def test_lowpass_gain(self):
        # DC gain of the normalised 9/7 low band is sqrt(2)-like via 1/K.
        low, _ = dwt.fdwt97_1d(np.full(64, 1.0))
        assert low[5] == pytest.approx(1.0 / dwt.KAPPA * (1 + abs(dwt.BETA) * 0 + 1) / 1, rel=1)


class Test2DMultilevel:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 4), (5, 7), (16, 16), (33, 31)])
    @pytest.mark.parametrize("levels", [0, 1, 3])
    def test_53_reconstruction(self, shape, levels):
        tile = RNG.integers(-128, 128, shape)
        subbands = dwt.forward(tile, "5/3", levels)
        assert np.array_equal(dwt.inverse(subbands), tile)

    @pytest.mark.parametrize("shape", [(4, 4), (16, 16), (33, 31)])
    def test_97_reconstruction(self, shape):
        tile = RNG.uniform(-128, 128, shape)
        subbands = dwt.forward(tile, "9/7", 3)
        assert np.allclose(dwt.inverse(subbands), tile, atol=1e-6)

    def test_levels_stop_on_degenerate_tiles(self):
        subbands = dwt.forward(RNG.integers(0, 10, (2, 2)), "5/3", 5)
        assert subbands.num_levels < 5

    def test_band_iteration_order(self):
        subbands = dwt.forward(RNG.integers(0, 10, (16, 16)), "5/3", 2)
        listing = [(res, orient) for res, orient, _ in subbands.iter_bands()]
        assert listing == [
            (0, "LL"),
            (1, "HL"), (1, "LH"), (1, "HH"),
            (2, "HL"), (2, "LH"), (2, "HH"),
        ]

    def test_band_shapes_halve_per_level(self):
        subbands = dwt.forward(RNG.integers(0, 10, (16, 16)), "5/3", 2)
        shapes = {(res, orient): arr.shape for res, orient, arr in subbands.iter_bands()}
        assert shapes[(0, "LL")] == (4, 4)
        assert shapes[(1, "HL")] == (4, 4)
        assert shapes[(2, "HH")] == (8, 8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            dwt.forward(np.zeros((4, 4)), "7/5", 1)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            dwt.forward(np.zeros((4, 4)), "5/3", -1)


class TestOpCounts:
    def test_counts_proportional_to_samples(self):
        small = dwt.DwtOpCounts()
        large = dwt.DwtOpCounts()
        dwt.inverse(dwt.forward(RNG.integers(0, 10, (16, 16)), "5/3", 1), small)
        dwt.inverse(dwt.forward(RNG.integers(0, 10, (32, 32)), "5/3", 1), large)
        assert large.total == pytest.approx(4 * small.total, rel=0.05)

    def test_97_costs_more_than_53(self):
        tile = RNG.integers(0, 10, (32, 32))
        ops53 = dwt.DwtOpCounts()
        ops97 = dwt.DwtOpCounts()
        dwt.inverse(dwt.forward(tile, "5/3", 3), ops53)
        dwt.inverse(dwt.forward(tile, "9/7", 3), ops97)
        assert ops97.total > 2 * ops53.total
        assert ops53.mul_ops == 0
        assert ops97.mul_ops > 0

