"""Quantisation (IQ) and colour transforms / DC shift."""

import numpy as np
import pytest

from repro.jpeg2000 import mct, quant


RNG = np.random.default_rng(13)


class TestStepSize:
    def test_pack_unpack_roundtrip(self):
        step = quant.StepSize(exponent=13, mantissa=1027)
        assert quant.StepSize.unpack(step.packed()) == step

    def test_delta_formula(self):
        step = quant.StepSize(exponent=8, mantissa=0)
        assert step.delta(8) == pytest.approx(1.0)
        step = quant.StepSize(exponent=8, mantissa=1024)
        assert step.delta(8) == pytest.approx(1.5)

    def test_from_delta_inverts_delta(self):
        for delta in (0.001, 0.01, 0.33, 1.0, 7.5):
            step = quant.StepSize.from_delta(delta, 10)
            assert step.delta(10) == pytest.approx(delta, rel=1e-3)

    def test_from_delta_validates(self):
        with pytest.raises(ValueError):
            quant.StepSize.from_delta(0, 8)


class TestQuantisation:
    def test_roundtrip_error_bounded_by_step(self):
        values = RNG.uniform(-100, 100, 1000)
        delta = 0.25
        reconstructed = quant.dequantise(quant.quantise(values, delta), delta)
        assert np.max(np.abs(values - reconstructed)) <= delta

    def test_deadzone_maps_small_values_to_zero(self):
        values = np.array([0.2, -0.3, 0.49])
        assert np.all(quant.quantise(values, 0.5) == 0)

    def test_midpoint_reconstruction(self):
        indices = np.array([3, -3, 0])
        out = quant.dequantise(indices, 1.0)
        assert out[0] == pytest.approx(3.5)
        assert out[1] == pytest.approx(-3.5)
        assert out[2] == 0.0

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            quant.quantise(np.zeros(3), 0)

    def test_step_schedule_coarser_for_finer_levels(self):
        fine = quant.default_step("HH", level=1, num_levels=3)
        coarse = quant.default_step("HH", level=3, num_levels=3)
        assert fine > coarse

    def test_step_schedule_gain_order(self):
        ll = quant.default_step("LL", 3, 3)
        hl = quant.default_step("HL", 3, 3)
        hh = quant.default_step("HH", 3, 3)
        assert ll < hl < hh


class TestRct:
    def test_exact_roundtrip(self):
        r = RNG.integers(-128, 128, (16, 16))
        g = RNG.integers(-128, 128, (16, 16))
        b = RNG.integers(-128, 128, (16, 16))
        y, u, v = mct.rct_forward(r, g, b)
        r2, g2, b2 = mct.rct_inverse(y, u, v)
        assert np.array_equal(r, r2)
        assert np.array_equal(g, g2)
        assert np.array_equal(b, b2)

    def test_grey_input_has_zero_chroma(self):
        grey = np.full((4, 4), 77)
        y, u, v = mct.rct_forward(grey, grey, grey)
        assert np.all(u == 0) and np.all(v == 0)
        assert np.all(y == 77)


class TestIct:
    def test_roundtrip_within_float_tolerance(self):
        r = RNG.uniform(-128, 128, (16, 16))
        g = RNG.uniform(-128, 128, (16, 16))
        b = RNG.uniform(-128, 128, (16, 16))
        r2, g2, b2 = mct.ict_inverse(*mct.ict_forward(r, g, b))
        assert np.allclose(r, r2, atol=1e-2)
        assert np.allclose(g, g2, atol=1e-2)
        assert np.allclose(b, b2, atol=1e-2)

    def test_luma_weights_sum_to_one(self):
        ones = np.ones((2, 2))
        y, cb, cr = mct.ict_forward(ones, ones, ones)
        assert np.allclose(y, 1.0)
        assert np.allclose(cb, 0.0, atol=1e-9)
        assert np.allclose(cr, 0.0, atol=1e-9)


class TestDcShift:
    def test_roundtrip(self):
        samples = RNG.integers(0, 256, (8, 8))
        shifted = mct.dc_shift_forward(samples, 8)
        assert shifted.min() >= -128 and shifted.max() <= 127
        assert np.array_equal(mct.dc_shift_inverse(shifted, 8), samples)

    def test_clamping(self):
        out = mct.dc_shift_inverse(np.array([-500.0, 500.0]), 8)
        assert list(out) == [0, 255]

    def test_rounding(self):
        out = mct.dc_shift_inverse(np.array([0.4, 0.6]), 8)
        assert list(out) == [128, 129]
