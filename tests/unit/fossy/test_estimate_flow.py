"""Resource estimation, the IDWT models and the full flow."""

import pytest

from repro.fossy import (
    build_idwt53,
    build_idwt97,
    elaborate,
    emit_mhs,
    emit_mss,
    estimate_fossy,
    estimate_reference,
    inline_design,
    synthesise_block,
    synthesise_system,
)
from repro.fossy.c_backend import emit_software_subsystem
from repro.fossy.estimate import _expr_ops
from repro.fossy.platform_files import HardwareBlockSpec


def state_operations(fsmd) -> list:
    """Per state, the estimator's (kind, width) -> count census."""
    census = []
    for state in fsmd.states:
        ops: dict = {}
        for transfer in state.transfers:
            _expr_ops(transfer.expr, ops)
        for transition in state.transitions:
            if transition.cond is not None:
                _expr_ops(transition.cond, ops)
        census.append(ops)
    return census


@pytest.fixture(scope="module")
def idwt53_results():
    return synthesise_block(build_idwt53())


@pytest.fixture(scope="module")
def idwt97_results():
    return synthesise_block(build_idwt97())


class TestEstimatorBasics:
    def test_reports_have_positive_resources(self, idwt53_results):
        for report in (idwt53_results.reference_report, idwt53_results.fossy_report):
            assert report.flip_flops > 0
            assert report.luts > 0
            assert report.slices > 0
            assert report.gate_count > report.luts
            assert report.frequency_mhz > 50

    def test_block_rams_counted(self, idwt53_results):
        # line buffer + scratch + tile RAM
        assert idwt53_results.fossy_report.block_rams >= 3

    def test_slices_track_dominant_resource(self, idwt53_results):
        report = idwt53_results.fossy_report
        assert report.slices >= max(report.luts, report.flip_flops) / 2

    def test_utilisation_fits_lx25(self, idwt53_results, idwt97_results):
        lx25_slices = 10752  # Virtex-4 LX25
        for result in (idwt53_results, idwt97_results):
            assert result.fossy_report.slices < 0.5 * lx25_slices
            assert result.reference_report.slices < 0.5 * lx25_slices

    def test_meets_helper(self, idwt53_results):
        assert idwt53_results.fossy_report.meets(100e6)
        assert not idwt53_results.fossy_report.meets(1e9)


class TestTable2Relations:
    """The paper's stated synthesis outcomes (section 4)."""

    def test_idwt53_fossy_area_overhead_about_10_percent(self, idwt53_results):
        assert idwt53_results.area_ratio == pytest.approx(1.10, abs=0.08)

    def test_idwt97_fossy_15_percent_smaller(self, idwt97_results):
        assert idwt97_results.area_ratio == pytest.approx(0.85, abs=0.08)

    def test_idwt97_fossy_about_28_percent_slower(self, idwt97_results):
        assert idwt97_results.frequency_ratio == pytest.approx(0.72, abs=0.08)

    def test_idwt53_frequencies_similar(self, idwt53_results):
        assert idwt53_results.frequency_ratio > 0.7

    def test_everything_meets_the_100mhz_system_clock(
        self, idwt53_results, idwt97_results
    ):
        for result in (idwt53_results, idwt97_results):
            assert result.reference_report.meets(100e6)
            assert result.fossy_report.meets(100e6)

    def test_idwt97_larger_than_idwt53(self, idwt53_results, idwt97_results):
        assert idwt97_results.reference_report.slices > idwt53_results.reference_report.slices
        assert idwt97_results.fossy_report.slices > idwt53_results.fossy_report.slices


class TestLocComparison:
    """Section 4's code-size observations."""

    def test_fossy_output_much_larger_than_reference(
        self, idwt53_results, idwt97_results
    ):
        assert idwt53_results.loc_ratio > 2.0
        assert idwt97_results.loc_ratio > 2.0

    def test_97_models_larger_than_53(self, idwt53_results, idwt97_results):
        assert idwt97_results.model_statements > idwt53_results.model_statements
        assert idwt97_results.reference_loc > idwt53_results.reference_loc
        assert idwt97_results.fossy_loc > idwt53_results.fossy_loc

    def test_model_statement_ratio_matches_paper_trend(
        self, idwt53_results, idwt97_results
    ):
        # paper: 903/356 = 2.5x SystemC statements; ours should be > 1.3x
        ratio = idwt97_results.model_statements / idwt53_results.model_statements
        assert ratio > 1.3


class TestSharingMechanics:
    def test_fossy_shares_expensive_multipliers(self):
        design = build_idwt97()
        fsmd = elaborate(inline_design(design))
        mul_per_state = [
            count
            for ops_in_state in state_operations(fsmd)
            for (kind, _), count in ops_in_state.items()
            if kind == "mul_const"
        ]
        # sharing has real leverage
        assert sum(mul_per_state) > 4 * max(mul_per_state, default=0)


class TestPlatformFiles:
    def test_mhs_structure(self):
        mhs = emit_mhs([HardwareBlockSpec("idwt53", 0x40000000)], 2)
        assert mhs.count("BEGIN ppc405") == 2
        assert "BEGIN opb_v20" in mhs
        assert "mch_opb_ddr" in mhs
        assert "C_BASEADDR = 0x40000000" in mhs

    def test_mhs_p2p_interfaces(self):
        mhs = emit_mhs([HardwareBlockSpec("idwt53", 0x0, p2p_partner="hwsw_so")], 1)
        assert "BUS_INTERFACE P2P = hwsw_so_link" in mhs

    def test_mss_structure(self):
        mss = emit_mss(["sw0", "sw1"], num_processors=2)
        assert mss.count("BEGIN OS") == 2
        assert "osss_embedded" in mss
        assert "sw0, sw1" in mss

    def test_c_output_compilable_shape(self):
        code = emit_software_subsystem(
            ["sw0"], {"hwsw_so": ["put_component", "get_result"]}
        )
        assert code.count("{") == code.count("}")
        assert "int main(void)" in code
        assert "hwsw_so_put_component" in code


class TestSystemFlow:
    def test_system_bundle_complete(self):
        system = synthesise_system()
        assert {b.name for b in system.blocks} == {"idwt53", "idwt97"}
        assert system.mhs.count("BEGIN ppc405") == 4
        assert "sw3" in system.mss
        assert system.block("idwt53").fossy_loc > 0
        with pytest.raises(KeyError):
            system.block("missing")
