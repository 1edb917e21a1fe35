"""Application-Layer versions 1-5: timing shape on the paper workload.

These are the quantitative claims of the paper's section 3 prose; the
full-matrix reconstruction lives in the integration tests.
"""

import pytest

from repro.casestudy import paper_workload, run_version
from repro.design import catalog, elaborate_design


@pytest.fixture(scope="module")
def reports():
    out = {}
    for lossless in (True, False):
        workload = paper_workload(lossless)
        mode = "lossless" if lossless else "lossy"
        for name in catalog.select(layer="application"):
            out[(name, mode)] = run_version(name, lossless, workload)
    return out


class TestVersion1:
    def test_totals_match_profile(self, reports):
        assert reports[("1", "lossless")].decode_ms == pytest.approx(3243.2, abs=1.0)
        assert reports[("1", "lossy")].decode_ms == pytest.approx(3664.1, abs=1.0)

    def test_idwt_share_matches_fig1(self, reports):
        report = reports[("1", "lossless")]
        assert report.idwt_ms / report.decode_ms == pytest.approx(0.055, abs=0.002)
        report = reports[("1", "lossy")]
        assert report.idwt_ms / report.decode_ms == pytest.approx(0.124, abs=0.002)


class TestVersion2:
    def test_speedup_about_10_and_19_percent(self, reports):
        for mode, expected in (("lossless", 1.10), ("lossy", 1.19)):
            speedup = (
                reports[("1", mode)].decode_ms / reports[("2", mode)].decode_ms
            )
            assert speedup == pytest.approx(expected, abs=0.03)

    def test_idwt_moves_to_hardware(self, reports):
        for mode in ("lossless", "lossy"):
            assert reports[("2", mode)].idwt_ms < reports[("1", mode)].idwt_ms / 10


class TestVersion3:
    def test_small_additional_impact_over_v2(self, reports):
        for mode in ("lossless", "lossy"):
            v2 = reports[("2", mode)].decode_ms
            v3 = reports[("3", mode)].decode_ms
            assert v3 <= v2  # pipelining can only help
            assert (v2 - v3) / v2 < 0.03  # ... but only a little

    def test_still_dominated_by_software(self, reports):
        v1 = reports[("1", "lossless")].decode_ms
        v3 = reports[("3", "lossless")].decode_ms
        assert v3 > 0.85 * v1


class TestVersion4:
    def test_speedup_factor_4_5_and_5(self, reports):
        assert reports[("1", "lossless")].decode_ms / reports[
            ("4", "lossless")
        ].decode_ms == pytest.approx(4.5, abs=0.3)
        assert reports[("1", "lossy")].decode_ms / reports[
            ("4", "lossy")
        ].decode_ms == pytest.approx(5.0, abs=0.4)


class TestVersion5:
    def test_close_to_version_4(self, reports):
        """The paper reports 5 'slightly slower' than 4; our arbitration
        model reproduces near-equality (see EXPERIMENTS.md for the
        discussion of the residual ordering)."""
        for mode in ("lossless", "lossy"):
            v4 = reports[("4", mode)].decode_ms
            v5 = reports[("5", mode)].decode_ms
            assert abs(v5 - v4) / v4 < 0.03

    def test_seven_clients_on_the_shared_object(self):
        workload = paper_workload(True)
        model = elaborate_design(catalog.get("5"), workload)
        assert model.shared_object.num_clients == 7

    def test_version3_has_four_clients(self):
        workload = paper_workload(True)
        model = elaborate_design(catalog.get("3"), workload)
        assert model.shared_object.num_clients == 4


class TestReports:
    def test_all_jobs_processed_in_pipelined_models(self, reports):
        report = reports[("3", "lossless")]
        assert report.details["idwt_jobs"] == 16 * 3

    def test_mode_label(self, reports):
        assert reports[("1", "lossless")].mode == "lossless"
        assert reports[("1", "lossy")].mode == "lossy"

    def test_performance_mode_has_no_image(self, reports):
        assert reports[("1", "lossless")].image is None
