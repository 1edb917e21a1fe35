"""SimTime: construction, arithmetic, ordering, formatting."""

import pytest

from repro.kernel import SimTime, ZERO_TIME, fs, ms, ns, ps, sec, us


class TestConstruction:
    def test_femtosecond_base(self):
        assert SimTime(1, "fs").femtoseconds == 1

    def test_unit_scaling(self):
        assert SimTime(1, "ps").femtoseconds == 10**3
        assert SimTime(1, "ns").femtoseconds == 10**6
        assert SimTime(1, "us").femtoseconds == 10**9
        assert SimTime(1, "ms").femtoseconds == 10**12
        assert SimTime(1, "s").femtoseconds == 10**15

    def test_fractional_values_round(self):
        assert SimTime(1.5, "ps").femtoseconds == 1500
        assert SimTime(0.1, "ns").femtoseconds == 100_000

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValueError, match="unknown time unit"):
            SimTime(1, "minutes")

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SimTime(-1, "ns")

    def test_from_fs(self):
        assert SimTime.from_fs(42).femtoseconds == 42

    def test_from_fs_negative_rejected(self):
        with pytest.raises(ValueError):
            SimTime.from_fs(-1)

    def test_helpers_match_units(self):
        assert fs(3) == SimTime(3, "fs")
        assert ps(3) == SimTime(3, "ps")
        assert ns(3) == SimTime(3, "ns")
        assert us(3) == SimTime(3, "us")
        assert ms(3) == SimTime(3, "ms")
        assert sec(3) == SimTime(3, "s")


class TestArithmetic:
    def test_addition(self):
        assert ns(1) + ps(500) == ps(1500)

    def test_scalar_multiplication(self):
        assert ns(2) * 3 == ns(6)
        assert 3 * ns(2) == ns(6)

    def test_fractional_multiplication_rounds(self):
        assert (fs(3) * 0.5).femtoseconds == 2  # banker's rounding of 1.5


class TestComparison:
    def test_ordering(self):
        assert ns(1) < ns(2)
        assert ns(2) > ns(1)
        assert ns(1) <= ns(1)

    def test_equality_across_units(self):
        assert ns(1) == ps(1000)

    def test_not_equal_to_other_types(self):
        assert ns(1) != 1_000_000

    def test_hashable(self):
        assert len({ns(1), ps(1000), ns(2)}) == 2

    def test_truthiness(self):
        assert not ZERO_TIME
        assert ns(1)


class TestFormatting:
    def test_zero(self):
        assert str(ZERO_TIME) == "0 s"

    def test_exact_unit_chosen(self):
        assert str(ns(1)) == "1 ns"
        assert str(us(15)) == "15 us"
        assert str(ms(3)) == "3 ms"

    def test_inexact_falls_to_smaller_unit(self):
        assert str(ps(1500)) == "1500 ps"
