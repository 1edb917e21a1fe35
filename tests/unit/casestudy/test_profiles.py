"""Profile calibration: Fig. 1 shares, EET derivation, cost model."""

import pytest

from repro.casestudy import (
    ARITH_MS_PER_TILE,
    CYCLES_PER_OP,
    PAPER_SHARES_LOSSLESS,
    PAPER_SHARES_LOSSY,
    PROFILE_LOSSLESS,
    PROFILE_LOSSY,
    measured_shares,
    measured_stage_times,
    profile_for,
    stage_times_from_shares,
)
from repro.jpeg2000 import StageOps
from repro.kernel import ms


class TestPaperShares:
    def test_shares_sum_to_100(self):
        assert sum(PAPER_SHARES_LOSSLESS.values()) == pytest.approx(100.0)
        assert sum(PAPER_SHARES_LOSSY.values()) == pytest.approx(100.0)

    def test_arith_dominates_both_modes(self):
        assert PAPER_SHARES_LOSSLESS["arith"] == 88.8
        assert PAPER_SHARES_LOSSY["arith"] == 78.6

    def test_idwt_is_second_in_lossy(self):
        non_arith = {k: v for k, v in PAPER_SHARES_LOSSY.items() if k != "arith"}
        assert max(non_arith, key=non_arith.get) == "idwt"


class TestDerivedStageTimes:
    def test_anchor_preserved(self):
        assert PROFILE_LOSSLESS.arith == ARITH_MS_PER_TILE
        assert PROFILE_LOSSY.arith == ARITH_MS_PER_TILE

    def test_totals_match_shares(self):
        # total = arith / arith_share
        expected = ARITH_MS_PER_TILE / 0.888
        assert PROFILE_LOSSLESS.total == pytest.approx(expected, rel=1e-6)

    def test_full_image_decode_time(self):
        # 16 tiles: the version-1 row of Table 1.
        assert 16 * PROFILE_LOSSLESS.total == pytest.approx(3243.2, abs=0.5)
        assert 16 * PROFILE_LOSSY.total == pytest.approx(3664.1, abs=0.5)

    def test_lossy_idwt_heavier_than_lossless(self):
        assert PROFILE_LOSSY.idwt > 2 * PROFILE_LOSSLESS.idwt

    def test_scaled(self):
        half = PROFILE_LOSSLESS.scaled(0.5)
        assert half.arith == PROFILE_LOSSLESS.arith / 2
        assert half.total == pytest.approx(PROFILE_LOSSLESS.total / 2)

    def test_eet_lookup(self):
        assert PROFILE_LOSSLESS.eet("arith") == ms(180)

    def test_profile_for(self):
        assert profile_for(True) is PROFILE_LOSSLESS
        assert profile_for(False) is PROFILE_LOSSY

    def test_custom_shares(self):
        times = stage_times_from_shares(
            {"arith": 50.0, "iq": 20.0, "idwt": 20.0, "ict": 5.0, "dc": 5.0},
        )
        assert times.arith == ARITH_MS_PER_TILE
        assert times.iq == pytest.approx(0.4 * ARITH_MS_PER_TILE)
        assert times.total == pytest.approx(2 * ARITH_MS_PER_TILE)


class TestCostModel:
    def test_measured_shares_sum_to_100(self):
        ops = StageOps()
        for stage in ("arith", "iq", "idwt", "ict", "dc"):
            ops.add(stage, 1000)
        shares = measured_shares(ops)
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_zero_ops_rejected(self):
        with pytest.raises(ValueError):
            measured_shares(StageOps())

    def test_arith_weight_dominates(self):
        assert CYCLES_PER_OP["arith"] > 2 * max(
            weight for stage, weight in CYCLES_PER_OP.items() if stage != "arith"
        )

    def test_measured_stage_times_scale_with_frequency(self):
        ops = StageOps()
        ops.add("arith", 10_000)
        slow = measured_stage_times(ops, frequency_hz=50e6)
        fast = measured_stage_times(ops, frequency_hz=100e6)
        assert slow["arith"] == pytest.approx(2 * fast["arith"])
