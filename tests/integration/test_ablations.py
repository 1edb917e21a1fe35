"""The mechanisms behind the Table 1 effects, and the scaling study.

Each ablation changes one declarative request option (see
``repro.experiments.execute``): per-word bus cost, RMI chunking, bus
polling, the stream-pipeline FIFO depth, the co-processor speed
assumption, the Shared Object's bus tier, and quality-layer decoding.
The scaling study checks the paper's closing claim, "7b does better
scale with increasing parallelism".  All assertions run on the registry
payloads ``results/ablation_*`` and ``results/scaling_parallelism`` are
rendered from.
"""

import pytest

from repro.experiments.defs import (
    CHUNK_WORDS,
    FIFO_DEPTHS,
    HW_SPEEDUP_FACTORS,
    QUALITY_LAYERS,
    TASK_COUNTS,
)


@pytest.fixture(scope="module")
def payloads(sweep_payloads):
    return sweep_payloads(["ablations", "scaling"])


def _idwt_ms(payloads, rid):
    return payloads[rid]["idwt_ms"]


class TestAblations:
    def test_opb_bursts_recover_part_of_the_6a_loss(self, payloads):
        """The OPB peripherals lack sequential-address bursts; enabling
        them shows how much of 6a's inflation is the per-word handshake."""
        assert (_idwt_ms(payloads, "sim:6a:lossless:burst")
                < _idwt_ms(payloads, "sim:6a:lossless"))

    def test_coarse_rmi_chunks_starve_the_idwt(self, payloads):
        finest = _idwt_ms(payloads, f"sim:7a:lossless:chunk{CHUNK_WORDS[0]}")
        coarsest = _idwt_ms(payloads, f"sim:7a:lossless:chunk{CHUNK_WORDS[-1]}")
        assert coarsest >= finest * 0.8

    def test_grant_polling_only_hurts_the_idwt(self, payloads):
        """Bus polling of guarded calls: the 7a-over-6a mechanism."""
        assert (_idwt_ms(payloads, "sim:7a:lossless")
                >= _idwt_ms(payloads, "sim:7a:lossless:nopoll"))

    def test_deeper_fifo_never_much_worse(self, payloads):
        shallow = _idwt_ms(payloads, f"sim:3:lossless:fifo{FIFO_DEPTHS[0]}")
        deeper = _idwt_ms(payloads, f"sim:3:lossless:fifo{FIFO_DEPTHS[1]}")
        assert deeper <= shallow * 1.05

    def test_hw_speedup_obeys_amdahl(self, payloads):
        """Version 2's overall speed-up saturates near 1/(1 - 0.087)."""

        def overall(factor):
            return (payloads[f"sim:1:lossless:hw{factor:g}"]["decode_ms"]
                    / payloads[f"sim:2:lossless:hw{factor:g}"]["decode_ms"])

        assert overall(HW_SPEEDUP_FACTORS[-1]) < 1.10
        assert overall(HW_SPEEDUP_FACTORS[0]) < overall(HW_SPEEDUP_FACTORS[-1])

    def test_plb_attached_object_nearly_matches_p2p(self, payloads):
        """The 2008 platform's OPB was the bottleneck of the bus-only
        mapping; dedicated point-to-point links still win."""
        opb_ms = _idwt_ms(payloads, "sim:6a:lossless")
        plb_ms = _idwt_ms(payloads, "sim:6a:lossless:plb")
        p2p_ms = _idwt_ms(payloads, "sim:6b:lossless")
        assert plb_ms < opb_ms / 2
        assert plb_ms > p2p_ms * 0.8

    def test_more_quality_layers_cost_ops_and_gain_psnr(self, payloads):
        rows = [payloads[f"layers:{count}"]
                for count in range(1, QUALITY_LAYERS + 1)]
        psnrs = [row["psnr"] for row in rows]
        ops = [row["arith_ops"] for row in rows]
        assert psnrs == sorted(psnrs)
        assert ops == sorted(ops)


class TestScaling:
    def test_p2p_scales_and_bus_only_degrades(self, payloads):
        # The P2P IDWT path is independent of the processor count ...
        p2p_idwt = [_idwt_ms(payloads, f"scaled:{n}:p2p") for n in TASK_COUNTS]
        assert max(p2p_idwt) < min(p2p_idwt) * 1.10
        # ... while the bus-only path degrades beyond two processors ...
        assert (_idwt_ms(payloads, "scaled:8:bus")
                > _idwt_ms(payloads, "scaled:2:bus") * 1.3)
        # ... and at eight processors the bus mapping is slower end to end.
        assert (payloads["scaled:8:bus"]["decode_ms"]
                > payloads["scaled:8:p2p"]["decode_ms"])

    @pytest.mark.parametrize("wiring", ["bus", "p2p"])
    def test_decode_time_scales_near_amdahl(self, payloads, wiring):
        one = payloads[f"scaled:1:{wiring}"]["decode_ms"]
        eight = payloads[f"scaled:8:{wiring}"]["decode_ms"]
        assert 5.5 < one / eight < 8.5
