"""The paper's claims beyond Table 1's shape relations.

Fig. 1's stage shares and per-tile anchor, Table 1's secondary
observables, Table 2's timing closure, and Section 4's code-size ratios,
asserted on the same registry payloads ``python -m repro results
--regen`` renders ``results/`` from.  The FOSSY area and frequency
ratios are checked by ``tests/unit/fossy/test_estimate_flow.py``.
"""

import pytest

from repro.casestudy import measured_shares, measured_stage_times
from repro.experiments.defs import PROFILE_SIZE, PROFILE_TILE


@pytest.fixture(scope="module")
def payloads(sweep_payloads):
    return sweep_payloads("paper")


class TestFig1Profile:
    def test_arith_shares_match_paper(self, payloads):
        lossless = measured_shares(payloads["profile:lossless"]["ops"])
        lossy = measured_shares(payloads["profile:lossy"]["ops"])
        assert lossless["arith"] == pytest.approx(88.8, abs=8.0)
        assert lossy["arith"] == pytest.approx(78.6, abs=8.0)

    def test_arith_ms_per_tile_anchor(self, payloads):
        """The paper's '~180 ms per tile', recomputed from op counts; a
        factor of ~2 either way covers the unknown target CPU's IPC."""
        times = measured_stage_times(payloads["profile:lossless"]["ops"])
        tiles = (PROFILE_SIZE // PROFILE_TILE) ** 2
        assert 60.0 < times["arith"] / tiles < 400.0


class TestTable1Observables:
    def test_bus_only_mapping_moves_tile_data_over_opb_twice(self, payloads):
        words = {
            version: payloads[f"sim:{version}:lossless"]["details"]["opb"]["words"]
            for version in ("6a", "6b")
        }
        assert words["6a"] > 2 * words["6b"]

    def test_version5_processes_every_idwt_job(self, payloads):
        assert payloads["sim:5:lossy"]["details"]["idwt_jobs"] == 48

    def test_7b_lossless_decode_time_bound(self, payloads):
        assert payloads["sim:7b:lossless"]["decode_ms"] < 900.0


class TestTable2Synthesis:
    def test_every_block_meets_the_100mhz_system_clock(self, payloads):
        """'perfectly match the timing' of the 100 MHz system clock."""
        for block in ("idwt53", "idwt97"):
            for flow in ("reference", "fossy"):
                assert payloads[f"synth:{block}"][flow]["meets_100mhz"]


class TestLocComparison:
    def test_97_artefacts_larger_than_53(self, payloads):
        """Paper ratio ~2.3x on every row of the code-size comparison."""
        b53, b97 = payloads["synth:idwt53"], payloads["synth:idwt97"]
        for field in ("reference_loc", "fossy_loc", "model_statements"):
            assert b97[field] > 1.2 * b53[field]

    def test_generated_size_scales_with_state_count(self, payloads):
        """'All functions and procedures have been inlined into a single
        explicit state machine': FOSSY LoC per FSM state is block-independent."""
        per_state = [
            payloads[f"synth:{block}"]["fossy_loc"]
            / payloads[f"synth:{block}"]["num_states"]
            for block in ("idwt53", "idwt97")
        ]
        assert per_state[0] == pytest.approx(per_state[1], rel=0.25)
