"""VTA mappings 6a-7b: architecture wiring and the Table 1 VTA shape."""

import pytest

from repro.casestudy import paper_workload, run_version
from repro.design import catalog, elaborate_design


def _model(name, workload):
    return elaborate_design(catalog.get(name), workload)


@pytest.fixture(scope="module")
def lossless_reports():
    workload = paper_workload(True)
    v1 = run_version("1", True, workload)
    v3 = run_version("3", True, workload)
    vta = {
        name: run_version(name, True, workload)
        for name in catalog.select(layer="vta")
    }
    return v1, v3, vta


class TestArchitectureWiring:
    def test_processor_counts(self):
        workload = paper_workload(True)
        assert len(_model("6a", workload).processors) == 1
        assert len(_model("7a", workload).processors) == 4

    def test_6a_puts_idwt_links_on_the_bus(self):
        model = _model("6a", paper_workload(True))
        # masters: 1 SW + control + 2 filters = 4 on the OPB
        assert len(model.opb.masters) == 4
        assert model._p2p_count == 3  # params links only (control + 2 filters)

    def test_6b_moves_idwt_links_to_p2p(self):
        model = _model("6b", paper_workload(True))
        assert len(model.opb.masters) == 1  # only the software task
        assert model._p2p_count == 6  # 3 store links + 3 params links

    def test_7a_has_seven_bus_masters(self):
        model = _model("7a", paper_workload(True))
        assert len(model.opb.masters) == 7  # 4 SW + control + 2 filters

    def test_explicit_memory_knobs_set(self):
        model = _model("6b", paper_workload(True))
        assert model.store.iq_streaming
        assert model.store.port_setup
        for block in model.filters:
            assert block.compute_time_scale > 1.0

    def test_tasks_mapped_to_processors(self):
        model = _model("7b", paper_workload(True))
        for task, cpu in zip(model.tasks, model.processors):
            assert task.mapped_processor is cpu


class TestVtaShape:
    def test_overall_time_barely_affected_in_6x(self, lossless_reports):
        """Paper: 'the overall decoding time is not affected significantly'."""
        v1, v3, vta = lossless_reports
        for name in ("6a", "6b"):
            assert vta[name].decode_ms < v3.decode_ms * 1.05
            assert vta[name].decode_ms < v1.decode_ms

    def test_idwt_inflated_on_bus_only_mapping(self, lossless_reports):
        """Paper: IDWT time increases 'up to a factor of 8' from 3 to 6a."""
        _, v3, vta = lossless_reports
        ratio = vta["6a"].idwt_ms / v3.idwt_ms
        assert 3.0 < ratio < 9.0

    def test_7a_idwt_worse_than_6a(self, lossless_reports):
        """Paper: 'in 7a the IDWT time is increased even more than in 6a'."""
        _, _, vta = lossless_reports
        assert vta["7a"].idwt_ms > vta["6a"].idwt_ms

    def test_6b_and_7b_idwt_equal(self, lossless_reports):
        """Paper: 'the IDWT times of 6b and 7b are equal'."""
        _, _, vta = lossless_reports
        assert vta["7b"].idwt_ms == pytest.approx(vta["6b"].idwt_ms, rel=0.10)

    def test_p2p_beats_bus_for_idwt(self, lossless_reports):
        _, _, vta = lossless_reports
        assert vta["6b"].idwt_ms < vta["6a"].idwt_ms / 2
        assert vta["7b"].idwt_ms < vta["7a"].idwt_ms / 2

    def test_idwt_hw_speedup_vs_sw_about_12x(self, lossless_reports):
        """Paper: 'a speed-up by a factor of 12 for the IDWT in HW'."""
        v1, _, vta = lossless_reports
        speedup = v1.idwt_ms / vta["6b"].idwt_ms
        assert 9.0 < speedup < 15.0

    def test_7x_keeps_software_parallel_speedup(self, lossless_reports):
        v1, _, vta = lossless_reports
        for name in ("7a", "7b"):
            assert v1.decode_ms / vta[name].decode_ms > 3.8

    def test_stats_exposed(self, lossless_reports):
        _, _, vta = lossless_reports
        details = vta["7a"].details
        assert details["opb"].transactions > 0
        assert len(details["cpu_busy_ms"]) == 4
        assert all(busy > 500 for busy in details["cpu_busy_ms"])


class TestExternalMemory:
    """The DDR controller behind the MCH: coded input and decoded output."""

    def test_ddr_traffic_accounted(self):
        workload = paper_workload(True)
        model = _model("6a", workload)
        report = model.run()
        ddr = report.details["ddr"]
        # per tile: coded input (quarter of raw) + full decoded output
        per_tile = int(3 * 128 * 128 * 0.25) + 3 * 128 * 128
        assert ddr.words == 16 * per_tile
        assert ddr.transactions == 32  # one read + one write burst per tile

    def test_four_processors_contend_for_ddr(self):
        workload = paper_workload(True)
        single = _model("6a", workload)
        single.run()
        quad = _model("7a", workload)
        quad.run()
        assert quad.ddr.stats.wait_fs > single.ddr.stats.wait_fs

    def test_application_layer_has_no_ddr(self):
        workload = paper_workload(True)
        model = _model("3", workload)
        report = model.run()
        assert "ddr" not in report.details
