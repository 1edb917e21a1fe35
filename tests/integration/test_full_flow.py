"""The paper's Fig. 3 implementation flow, end to end.

Reference software decode -> profiling -> application-layer exploration ->
VTA mapping -> synthesis outputs.  Each arrow of the flow diagram is one
step here, running against real data.
"""

import pytest

from repro.casestudy import (
    PAPER_SHARES_LOSSLESS,
    PAPER_SHARES_LOSSY,
    functional_workload,
    measured_shares,
    run_version,
)
from repro.fossy import lint_vhdl, synthesise_system
from repro.jpeg2000 import (
    CodingParameters,
    Jpeg2000Decoder,
    encode_image,
    synthetic_image,
)


@pytest.fixture(scope="module")
def profiled():
    """Step 1-2: decode the reference image, collect the stage profile."""
    out = {}
    for lossless in (True, False):
        image = synthetic_image(128, 128, 3, seed=2008)
        params = CodingParameters(
            width=128, height=128, num_components=3,
            tile_width=64, tile_height=64, num_levels=3,
            lossless=lossless, base_step=1 / 8,
        )
        decoder = Jpeg2000Decoder(encode_image(image, params))
        decoder.decode()
        out[lossless] = decoder.ops
    return out


class TestProfilingStep:
    """Fig. 1: the SW profile that motivates the whole partitioning."""

    def test_lossless_profile_shape(self, profiled):
        shares = measured_shares(profiled[True])
        assert shares["arith"] == pytest.approx(
            PAPER_SHARES_LOSSLESS["arith"], abs=8.0
        )
        assert shares["idwt"] == pytest.approx(PAPER_SHARES_LOSSLESS["idwt"], abs=5.0)

    def test_lossy_profile_shape(self, profiled):
        shares = measured_shares(profiled[False])
        assert shares["arith"] == pytest.approx(PAPER_SHARES_LOSSY["arith"], abs=8.0)
        # lossy IDWT share roughly doubles or more vs lossless
        lossless_shares = measured_shares(profiled[True])
        assert shares["idwt"] > 1.5 * lossless_shares["idwt"]

    def test_arith_is_the_bottleneck_in_both_modes(self, profiled):
        for lossless in (True, False):
            shares = measured_shares(profiled[lossless])
            assert shares["arith"] > 60.0
            assert shares["arith"] == max(shares.values())


class TestExplorationStep:
    """Fig. 3 middle: the partitioning walk 1 -> 3 on real data."""

    def test_partitioning_improves_while_preserving_output(self):
        workload = functional_workload(True)
        previous_ms = None
        for version in ("1", "2", "3"):
            report = run_version(version, True, workload)
            assert report.image == workload.reference
            if previous_ms is not None:
                assert report.decode_ms <= previous_ms * 1.001
            previous_ms = report.decode_ms


class TestSynthesisStep:
    """Fig. 4: FOSSY outputs for the EDK hand-off."""

    @pytest.fixture(scope="class")
    def system(self):
        return synthesise_system()

    def test_vhdl_is_well_formed(self, system):
        for block in system.blocks:
            lint_vhdl(block.reference_vhdl)
            lint_vhdl(block.fossy_vhdl)

    def test_platform_files_reference_all_blocks(self, system):
        for name in ("idwt53", "idwt97", "hwsw_so", "idwt_params_so"):
            assert name in system.mhs

    def test_software_matches_processor_count(self, system):
        assert system.mhs.count("BEGIN ppc405") == 4
        for task in ("sw0", "sw1", "sw2", "sw3"):
            assert f"osss_register_task({task}_main" in system.software_c

    def test_artifacts_can_be_written(self, system, tmp_path):
        (tmp_path / "system.mhs").write_text(system.mhs)
        (tmp_path / "system.mss").write_text(system.mss)
        (tmp_path / "software.c").write_text(system.software_c)
        for block in system.blocks:
            (tmp_path / f"{block.name}_fossy.vhd").write_text(block.fossy_vhdl)
        assert len(list(tmp_path.iterdir())) == 5
