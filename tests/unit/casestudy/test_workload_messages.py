"""Workload construction and the case-study payload types."""

import pytest

from repro.casestudy.messages import IdwtResult, TileComponentJob, WirePayload
from repro.casestudy.workload import (
    PAPER_COMPONENTS,
    PAPER_TILE_SIZE,
    PAPER_TILES,
    functional_workload,
    paper_workload,
)


class TestPaperWorkload:
    def test_table1_geometry(self):
        workload = paper_workload(True)
        assert workload.num_tiles == PAPER_TILES == 16
        assert workload.num_components == PAPER_COMPONENTS == 3
        assert workload.tile_width == PAPER_TILE_SIZE == 128
        assert not workload.functional

    def test_wire_sizes(self):
        workload = paper_workload(True)
        assert workload.words_per_component == 128 * 128
        assert workload.stripe_words == 8 * 128
        assert workload.stripes_per_component == 16

    def test_mode_selects_profile(self):
        lossless = paper_workload(True)
        lossy = paper_workload(False)
        assert lossless.stage_times.idwt < lossy.stage_times.idwt


class TestFunctionalWorkload:
    def test_carries_decoder_and_reference(self):
        workload = functional_workload(True)
        assert workload.functional
        assert workload.num_tiles == 4
        assert workload.reference.width == 64

    def test_stage_times_scaled_by_tile_area(self):
        paper = paper_workload(True)
        small = functional_workload(True)
        ratio = (32 * 32) / (128 * 128)
        assert small.stage_times.arith == pytest.approx(paper.stage_times.arith * ratio)

    def test_reference_decode_is_deterministic(self):
        a = functional_workload(False)
        b = functional_workload(False)
        assert a.reference == b.reference


class TestPayloads:
    def test_wire_payload_bits(self):
        assert WirePayload(100).payload_bits() == 3200
        assert WirePayload(0).payload_bits() == 0

    def test_wire_payload_validation(self):
        with pytest.raises(ValueError):
            WirePayload(-1)

    def test_wire_payload_carries_content_by_reference(self):
        content = {"big": "object"}
        payload = WirePayload(4, content)
        assert payload.content is content

    def test_job_descriptor_is_small_on_wire(self):
        job = TileComponentJob(tile_index=3, component=1, lossless=True, words=16384)
        assert job.payload_bits() == 128  # descriptor only, not the data

    def test_job_mode(self):
        assert TileComponentJob(0, 0, True, 1).mode == "5/3"
        assert TileComponentJob(0, 0, False, 1).mode == "9/7"

    def test_result_payload(self):
        assert IdwtResult(0, 2).payload_bits() == 64
