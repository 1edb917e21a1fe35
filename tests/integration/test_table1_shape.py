"""The complete Table 1 reconstruction and every prose relation around it.

This is the headline experiment: both modes, all nine versions — the
registry's ``table1`` group — checked against every quantitative
statement the paper makes (the exact cell values are lost from the
available copy; the relations are not).
"""

import pytest

from repro.design import catalog
from repro.experiments.defs import shape_relations

MODES = ("lossless", "lossy")


@pytest.fixture(scope="module")
def outcomes(runner):
    return runner.sweep("table1")


@pytest.fixture(scope="module")
def payloads(outcomes):
    merged = {}
    for outcome in outcomes:
        merged.update(outcome.payloads)
    return merged


@pytest.fixture(scope="module")
def tables(outcomes):
    merged = {}
    for outcome in outcomes:
        merged.update(outcome.tables())
    return merged


@pytest.fixture(scope="module")
def relations(payloads):
    return shape_relations(payloads)


def _decode_ms(payloads, version, mode):
    return payloads[f"sim:{version}:{mode}"]["decode_ms"]


def _row_versions(table):
    return [row[0] for row in table.rows]


class TestBaselines:
    def test_version1_absolute_times(self, payloads):
        assert _decode_ms(payloads, "1", "lossless") == pytest.approx(3243.2, abs=1.0)
        assert _decode_ms(payloads, "1", "lossy") == pytest.approx(3664.1, abs=1.0)

    def test_all_rows_present_in_order(self, tables):
        rows = (_row_versions(tables["table1_application_layer"])
                + _row_versions(tables["table1_vta_layer"]))
        assert rows == ["1", "2", "3", "4", "5", "6a", "6b", "7a", "7b"]

    def test_layer_assignment(self, tables):
        assert "5" in _row_versions(tables["table1_application_layer"])
        assert "6a" in _row_versions(tables["table1_vta_layer"])


class TestApplicationLayerRelations:
    def test_v2_speedup_about_10_and_19_percent(self, relations):
        assert relations["lossless"]["v2_speedup"] == pytest.approx(1.10, abs=0.03)
        assert relations["lossy"]["v2_speedup"] == pytest.approx(1.19, abs=0.03)

    def test_v3_small_impact(self, relations):
        for mode in MODES:
            assert relations[mode]["v3_vs_v2"] == pytest.approx(1.0, abs=0.03)

    def test_v4_v5_speedups_about_4_5_and_5(self, relations):
        assert relations["lossless"]["v4_speedup"] == pytest.approx(4.5, abs=0.3)
        assert relations["lossy"]["v4_speedup"] == pytest.approx(5.0, abs=0.4)
        assert relations["lossless"]["v5_speedup"] == pytest.approx(4.5, abs=0.3)
        assert relations["lossy"]["v5_speedup"] == pytest.approx(5.0, abs=0.4)


class TestVtaRelations:
    def test_idwt_inflation_6a(self, relations):
        for mode in MODES:
            assert 1.8 < relations[mode]["idwt_6a_vs_3"] < 9.0

    def test_7a_worse_than_6a(self, relations):
        for mode in MODES:
            assert relations[mode]["idwt_7a_vs_6a"] > 1.0

    def test_6b_equals_7b(self, relations):
        for mode in MODES:
            assert relations[mode]["idwt_7b_vs_6b"] == pytest.approx(1.0, abs=0.10)

    def test_idwt_hw_speedup_order_of_magnitude(self, relations):
        """Paper: factor 12 (lossless) / 16 (lossy) vs software."""
        assert 9.0 < relations["lossless"]["idwt_speedup_6b"] < 15.0
        assert 10.0 < relations["lossy"]["idwt_speedup_6b"] < 18.0

    def test_vta_overall_time_close_to_application_layer(self, payloads):
        for app, vta in (("3", "6a"), ("3", "6b"), ("5", "7a"), ("5", "7b")):
            for mode in MODES:
                app_ms = _decode_ms(payloads, app, mode)
                vta_ms = _decode_ms(payloads, vta, mode)
                assert vta_ms == pytest.approx(app_ms, rel=0.10)


class TestMonotoneStructure:
    def test_every_version_beats_or_matches_v1(self, payloads):
        for version in catalog.names()[1:]:
            for mode in MODES:
                assert (_decode_ms(payloads, version, mode)
                        <= _decode_ms(payloads, "1", mode))

    def test_lossy_always_slower_than_lossless(self, payloads):
        for version in catalog.names():
            assert (_decode_ms(payloads, version, "lossy")
                    > _decode_ms(payloads, version, "lossless"))
