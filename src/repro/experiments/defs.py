"""Registry entries: every paper artefact and ablation, declaratively.

Each entry pairs the :class:`RunRequest` list an experiment needs with a
pure table builder over the returned payloads.  The builders are the
*only* place the result tables are rendered: ``python -m repro results
--regen`` rebuilds every ``results/`` file from here, byte-identical
regardless of cache state or scheduling, and the integration tests
assert the paper's claims on the same payloads.

Paper artefacts:    fig1, table1 (both halves, plus the prose relations
                    of :func:`shape_relations`), table2, loc.
Ablations:          OPB bursts, RMI chunking, polling, FIFO depth,
                    HW speed-up factor, SO bus tier, quality layers.
Studies:            processor-count scaling.
"""

from __future__ import annotations

from ..reporting import CHANNEL_TRAFFIC_COLUMNS, Table, channel_traffic_row
from .registry import GROUPS, Experiment, register
from .request import (
    KIND_LAYERS,
    KIND_PROFILE,
    KIND_SIMULATE,
    KIND_SYNTHESISE,
    RunRequest,
)

#: Fig. 1 profiling subject: quarter-scale paper workload.  The stage
#: shares are scale-invariant: ``tests/integration/test_paper_claims.py``
#: (256 px) and ``test_full_flow.py`` (128 px) both match the paper.
PROFILE_SIZE = 256
PROFILE_TILE = 128

#: Paper code-size numbers (reference VHDL, SystemC model, FOSSY VHDL).
PAPER_LOC = {"idwt53": (404, 356, 2231), "idwt97": (948, 903, 4225)}

MODES = ((True, "lossless"), (False, "lossy"))


def _sim(rid: str, version: str, lossless: bool, **options) -> RunRequest:
    return RunRequest(
        rid=rid,
        kind=KIND_SIMULATE,
        params={"version": version, "lossless": lossless},
        options=options,
    )


def _app_versions() -> list:
    from ..design import catalog

    return catalog.select(layer="application")


def _vta_versions() -> list:
    from ..design import catalog

    return catalog.select(layer="vta")


# --------------------------------------------------------------------------
# Fig. 1 — the software profiling run
# --------------------------------------------------------------------------


def _fig1_requests() -> tuple:
    return tuple(
        RunRequest(
            rid=f"profile:{mode}",
            kind=KIND_PROFILE,
            params={
                "size": PROFILE_SIZE,
                "tile": PROFILE_TILE,
                "lossless": lossless,
                "seed": 2008,
            },
        )
        for lossless, mode in MODES
    )


def _fig1_tables(payloads) -> dict:
    from ..casestudy import (
        PAPER_SHARES_LOSSLESS,
        PAPER_SHARES_LOSSY,
        measured_shares,
        measured_stage_times,
    )
    from ..jpeg2000 import ALL_STAGES

    ops_ll = payloads["profile:lossless"]["ops"]
    ops_ly = payloads["profile:lossy"]["ops"]
    profile = Table(
        ["stage", "paper lossless [%]", "measured lossless [%]",
         "paper lossy [%]", "measured lossy [%]"],
        title="Figure 1 - SW decoder profile (share of decoding time)",
    )
    measured_ll = measured_shares(ops_ll)
    measured_ly = measured_shares(ops_ly)
    for stage in ALL_STAGES:
        profile.add_row(
            stage,
            PAPER_SHARES_LOSSLESS[stage],
            measured_ll[stage],
            PAPER_SHARES_LOSSY[stage],
            measured_ly[stage],
        )

    anchor = Table(
        ["stage", "measured ms/tile (lossless)", "paper anchor"],
        title="Figure 1 - absolute stage times per 128x128 tile",
    )
    times = measured_stage_times(ops_ll)
    tiles = (PROFILE_SIZE // PROFILE_TILE) ** 2
    for stage in ALL_STAGES:
        anchor.add_row(
            stage,
            times[stage] / tiles,
            "180 ms (arith)" if stage == "arith" else "",
        )
    return {"fig1_profile": profile, "fig1_anchor": anchor}


register(Experiment(
    id="fig1",
    title="Figure 1 - SW decoder profile",
    category="paper",
    description="Instrumented software decode of the quarter-scale paper "
    "workload; per-stage shares and absolute per-tile times vs the paper.",
    artefacts=("fig1_profile", "fig1_anchor"),
    build_requests=_fig1_requests,
    build_tables=_fig1_tables,
))


# --------------------------------------------------------------------------
# Table 1, rows 1-5 — Application Layer
# --------------------------------------------------------------------------


def _table1_app_requests() -> tuple:
    return tuple(
        _sim(f"sim:{version}:{mode}", version, lossless)
        for version in _app_versions()
        for lossless, mode in MODES
    )


def _table1_app_tables(payloads) -> dict:
    from ..design.catalog import ROW_LABELS

    table = Table(
        [
            "version", "model",
            "decode lossless [ms]", "decode lossy [ms]",
            "IDWT lossless [ms]", "IDWT lossy [ms]",
            "speedup lossless", "speedup lossy",
        ],
        title="Table 1 (upper half) - Application Layer simulation results, "
        "16 tiles x 3 components @ 100 MHz",
    )
    base = {
        mode: payloads[f"sim:1:{mode}"]["decode_ms"] for _, mode in MODES
    }
    for version in _app_versions():
        row_ll = payloads[f"sim:{version}:lossless"]
        row_ly = payloads[f"sim:{version}:lossy"]
        table.add_row(
            version,
            ROW_LABELS[version],
            row_ll["decode_ms"],
            row_ly["decode_ms"],
            row_ll["idwt_ms"],
            row_ly["idwt_ms"],
            base["lossless"] / row_ll["decode_ms"],
            base["lossy"] / row_ly["decode_ms"],
        )
    return {"table1_application_layer": table}


register(Experiment(
    id="table1_application_layer",
    title="Table 1 (upper half) - Application Layer",
    category="paper",
    description="Versions 1-5 on the paper workload in both modes, with "
    "the speed-up column the paper quotes in prose.",
    artefacts=("table1_application_layer",),
    build_requests=_table1_app_requests,
    build_tables=_table1_app_tables,
))


# --------------------------------------------------------------------------
# Table 1, rows 6a-7b — VTA Layer (+ bus traffic)
# --------------------------------------------------------------------------


def _table1_vta_requests() -> tuple:
    requests = [_sim("sim:1:lossless", "1", True), _sim("sim:3:lossless", "3", True)]
    requests.extend(
        _sim(f"sim:{version}:{mode}", version, lossless)
        for version in _vta_versions()
        for lossless, mode in MODES
    )
    return tuple(requests)


def _table1_vta_tables(payloads) -> dict:
    from ..design.catalog import ROW_LABELS

    table = Table(
        [
            "version", "mapping",
            "decode lossless [ms]", "decode lossy [ms]",
            "IDWT lossless [ms]", "IDWT lossy [ms]",
            "IDWT vs v3", "IDWT speedup vs v1",
        ],
        title="Table 1 (lower half) - VTA Layer simulation results, "
        "16 tiles x 3 components @ 100 MHz",
    )
    idwt_v3 = payloads["sim:3:lossless"]["idwt_ms"]
    idwt_v1 = payloads["sim:1:lossless"]["idwt_ms"]
    for version in _vta_versions():
        row_ll = payloads[f"sim:{version}:lossless"]
        row_ly = payloads[f"sim:{version}:lossy"]
        table.add_row(
            version,
            ROW_LABELS[version],
            row_ll["decode_ms"],
            row_ly["decode_ms"],
            row_ll["idwt_ms"],
            row_ly["idwt_ms"],
            row_ll["idwt_ms"] / idwt_v3,
            idwt_v1 / row_ll["idwt_ms"],
        )

    traffic = Table(
        list(CHANNEL_TRAFFIC_COLUMNS),
        title="OPB traffic per VTA mapping (lossless run)",
    )
    for version in _vta_versions():
        details = payloads[f"sim:{version}:lossless"]["details"]
        traffic.add_row(
            *channel_traffic_row(version, details["opb"], details["polls"])
        )
    return {"table1_vta_layer": table, "table1_vta_bus_traffic": traffic}


register(Experiment(
    id="table1_vta_layer",
    title="Table 1 (lower half) - VTA Layer",
    category="paper",
    description="The cycle-accurate mappings 6a-7b in both modes, the "
    "paper's IDWT ratios, and where the OPB time actually went.",
    artefacts=("table1_vta_layer", "table1_vta_bus_traffic"),
    build_requests=_table1_vta_requests,
    build_tables=_table1_vta_tables,
))


def shape_relations(payloads) -> dict:
    """The quantitative relations the paper asserts around Table 1.

    *payloads* is ``{rid: payload}`` holding every ``sim:<version>:<mode>``
    cell of the nine catalog versions — the merged payloads of the
    ``table1`` group.  Returns ``{mode: {relation: ratio}}``.
    """
    versions = _app_versions() + _vta_versions()
    relations = {}
    for _, mode in MODES:
        cells = {version: payloads[f"sim:{version}:{mode}"] for version in versions}
        decode = {version: cell["decode_ms"] for version, cell in cells.items()}
        idwt = {version: cell["idwt_ms"] for version, cell in cells.items()}
        relations[mode] = {
            # "a speed-up of about 10/19% compared to 1"
            "v2_speedup": decode["1"] / decode["2"],
            # "this effort only has a small impact"
            "v3_vs_v2": decode["2"] / decode["3"],
            # "an acceptable speedup by a factor of 4.5/5"
            "v4_speedup": decode["1"] / decode["4"],
            "v5_speedup": decode["1"] / decode["5"],
            # "the IDWT time is increased significantly (up to a factor of 8)"
            "idwt_6a_vs_3": idwt["6a"] / idwt["3"],
            # "in 7a the IDWT time is increased even more than in 6a"
            "idwt_7a_vs_6a": idwt["7a"] / idwt["6a"],
            # "the IDWT times of 6b and 7b are equal"
            "idwt_7b_vs_6b": idwt["7b"] / idwt["6b"],
            # "a speed-up by a factor of 12/16 for the IDWT in HW"
            "idwt_speedup_6b": idwt["1"] / idwt["6b"],
            "idwt_speedup_7b": idwt["1"] / idwt["7b"],
        }
    return relations


# --------------------------------------------------------------------------
# Table 2 — RTL synthesis results (+ ratio summary)
# --------------------------------------------------------------------------


def _synthesis_requests() -> tuple:
    return tuple(
        RunRequest(
            rid=f"synth:{block}", kind=KIND_SYNTHESISE, params={"block": block}
        )
        for block in ("idwt53", "idwt97")
    )


def _table2_tables(payloads) -> dict:
    b53 = payloads["synth:idwt53"]
    b97 = payloads["synth:idwt97"]
    table = Table(
        [
            "metric",
            "IDWT53 FOSSY", "IDWT53 reference",
            "IDWT97 FOSSY", "IDWT97 reference",
        ],
        title="Table 2 - RTL synthesis results of the IDWT (Virtex-4 LX25)",
    )
    for label, attr in (
        ("Number of Slice Flip Flops", "flip_flops"),
        ("Number of 4 input LUTs", "luts"),
        ("Number of occupied Slices", "slices"),
        ("Total equivalent gate count", "gate_count"),
        ("Estimated frequency [MHz]", "frequency_mhz"),
    ):
        table.add_row(
            label,
            b53["fossy"][attr], b53["reference"][attr],
            b97["fossy"][attr], b97["reference"][attr],
        )

    ratios = Table(
        ["block", "paper area ratio", "measured area ratio",
         "paper freq ratio", "measured freq ratio"],
        title="Table 2 - FOSSY/reference ratios, paper vs measured",
    )
    ratios.add_row("IDWT53", "~1.10", b53["area_ratio"],
                   "~1.0 (similar)", b53["frequency_ratio"])
    ratios.add_row("IDWT97", "0.85", b97["area_ratio"],
                   "0.72", b97["frequency_ratio"])
    return {"table2_synthesis": table, "table2_ratios": ratios}


register(Experiment(
    id="table2",
    title="Table 2 - RTL synthesis results",
    category="paper",
    description="Both IDWT blocks through the reference and FOSSY "
    "synthesis flows on the Virtex-4 LX25 estimates.",
    artefacts=("table2_synthesis", "table2_ratios"),
    build_requests=_synthesis_requests,
    build_tables=_table2_tables,
))


# --------------------------------------------------------------------------
# Section 4 — code-size comparison (shares the synthesis runs)
# --------------------------------------------------------------------------


def _loc_tables(payloads) -> dict:
    comparison = Table(
        ["artefact", "paper [LoC]", "measured [LoC / statements]"],
        title="Section 4 - code size comparison (IDWT implementations)",
    )
    for name in ("idwt53", "idwt97"):
        ref_paper, model_paper, fossy_paper = PAPER_LOC[name]
        block = payloads[f"synth:{name}"]
        comparison.add_row(f"{name} reference VHDL", ref_paper, block["reference_loc"])
        comparison.add_row(f"{name} behavioural model", model_paper,
                           block["model_statements"])
        comparison.add_row(f"{name} FOSSY VHDL", fossy_paper, block["fossy_loc"])

    states = Table(
        ["block", "FSM states", "FOSSY LoC", "LoC per state"],
        title="Generated-code size vs state-machine size",
    )
    for name in ("idwt53", "idwt97"):
        block = payloads[f"synth:{name}"]
        states.add_row(
            name, block["num_states"], block["fossy_loc"],
            block["fossy_loc"] / block["num_states"],
        )
    return {"loc_comparison": comparison, "loc_states": states}


register(Experiment(
    id="loc",
    title="Section 4 - code size comparison",
    category="paper",
    description="Reference VHDL vs behavioural model vs FOSSY-generated "
    "VHDL line counts, and LoC-per-FSM-state.",
    artefacts=("loc_comparison", "loc_states"),
    build_requests=_synthesis_requests,
    build_tables=_loc_tables,
))


# --------------------------------------------------------------------------
# Ablations — the mechanisms behind the Table 1 effects
# --------------------------------------------------------------------------


def _opb_burst_requests() -> tuple:
    return (
        _sim("sim:6a:lossless", "6a", True),
        _sim("sim:6a:lossless:burst", "6a", True, opb_burst_threshold_words=8),
    )


def _opb_burst_tables(payloads) -> dict:
    table = Table(
        ["OPB mode", "IDWT time lossless [ms]"],
        title="Ablation - OPB burst support (model 6a)",
    )
    table.add_row("single transfers (paper platform)",
                  payloads["sim:6a:lossless"]["idwt_ms"])
    table.add_row("seqAddr bursts enabled",
                  payloads["sim:6a:lossless:burst"]["idwt_ms"])
    return {"ablation_opb_burst": table}


register(Experiment(
    id="ablation_opb_burst",
    title="Ablation - OPB burst support",
    category="ablation",
    description="How much of 6a's IDWT inflation is the OPB's per-word "
    "handshake: enable sequential-address bursts in the bus model.",
    artefacts=("ablation_opb_burst",),
    build_requests=_opb_burst_requests,
    build_tables=_opb_burst_tables,
))


CHUNK_WORDS = (32, 128, 1024)


def _chunking_requests() -> tuple:
    return tuple(
        _sim(f"sim:7a:lossless:chunk{chunk}", "7a", True, rmi_chunk_words=chunk)
        for chunk in CHUNK_WORDS
    )


def _chunking_tables(payloads) -> dict:
    table = Table(
        ["chunk [words]", "decode [ms]", "IDWT [ms]"],
        title="Ablation - RMI transfer chunking (model 7a)",
    )
    for chunk in CHUNK_WORDS:
        payload = payloads[f"sim:7a:lossless:chunk{chunk}"]
        table.add_row(chunk, payload["decode_ms"], payload["idwt_ms"])
    return {"ablation_chunking": table}


register(Experiment(
    id="ablation_chunking",
    title="Ablation - RMI transfer chunking",
    category="ablation",
    description="Transfer chunking trades bus fairness against per-chunk "
    "overhead (model 7a, lossless).",
    artefacts=("ablation_chunking",),
    build_requests=_chunking_requests,
    build_tables=_chunking_tables,
))


def _polling_requests() -> tuple:
    return (
        _sim("sim:7a:lossless", "7a", True),
        _sim("sim:7a:lossless:nopoll", "7a", True, poll=False),
    )


def _polling_tables(payloads) -> dict:
    table = Table(
        ["status polling", "decode [ms]", "IDWT [ms]"],
        title="Ablation - RMI status polling on the OPB (model 7a)",
    )
    with_poll = payloads["sim:7a:lossless"]
    without = payloads["sim:7a:lossless:nopoll"]
    table.add_row("enabled (no interrupt wiring)",
                  with_poll["decode_ms"], with_poll["idwt_ms"])
    table.add_row("disabled (ideal notification)",
                  without["decode_ms"], without["idwt_ms"])
    return {"ablation_polling": table}


register(Experiment(
    id="ablation_polling",
    title="Ablation - RMI status polling",
    category="ablation",
    description="Bus polling of guarded calls - the 7a-over-6a mechanism "
    "- against ideal readiness notification.",
    artefacts=("ablation_polling",),
    build_requests=_polling_requests,
    build_tables=_polling_tables,
))


FIFO_DEPTHS = (1, 4, 16)


def _fifo_requests() -> tuple:
    return tuple(
        _sim(f"sim:3:lossless:fifo{depth}", "3", True, fifo_depth=depth)
        for depth in FIFO_DEPTHS
    )


def _fifo_tables(payloads) -> dict:
    table = Table(
        ["FIFO depth", "IDWT time [ms]"],
        title="Ablation - filter pipeline FIFO depth (model 3)",
    )
    for depth in FIFO_DEPTHS:
        table.add_row(depth, payloads[f"sim:3:lossless:fifo{depth}"]["idwt_ms"])
    return {"ablation_fifo_depth": table}


register(Experiment(
    id="ablation_fifo_depth",
    title="Ablation - filter pipeline FIFO depth",
    category="ablation",
    description="Stream-pipeline depth of the filter blocks (double "
    "buffering) on model 3.",
    artefacts=("ablation_fifo_depth",),
    build_requests=_fifo_requests,
    build_tables=_fifo_tables,
))


HW_SPEEDUP_FACTORS = (4.0, 8.0, 16.0, 32.0)


def _hw_speedup_requests() -> tuple:
    requests = []
    for factor in HW_SPEEDUP_FACTORS:
        requests.append(
            _sim(f"sim:1:lossless:hw{factor:g}", "1", True, hw_speedup=factor)
        )
        requests.append(
            _sim(f"sim:2:lossless:hw{factor:g}", "2", True, hw_speedup=factor)
        )
    return tuple(requests)


def _hw_speedup_tables(payloads) -> dict:
    table = Table(
        ["HW speed-up factor", "v2 overall speed-up (lossless)"],
        title="Ablation - co-processor speed assumption vs the ~10% bound",
    )
    for factor in HW_SPEEDUP_FACTORS:
        v1 = payloads[f"sim:1:lossless:hw{factor:g}"]["decode_ms"]
        v2 = payloads[f"sim:2:lossless:hw{factor:g}"]["decode_ms"]
        table.add_row(factor, v1 / v2)
    return {"ablation_hw_speedup": table}


register(Experiment(
    id="ablation_hw_speedup",
    title="Ablation - co-processor speed assumption",
    category="ablation",
    description="Sensitivity of version 2's overall speed-up to the HW "
    "co-processor factor (Amdahl saturates near 1.095).",
    artefacts=("ablation_hw_speedup",),
    build_requests=_hw_speedup_requests,
    build_tables=_hw_speedup_tables,
))


def _plb_requests() -> tuple:
    return (
        _sim("sim:6a:lossless", "6a", True),
        _sim("sim:6a:lossless:plb", "6a", True, so_bus="plb"),
        _sim("sim:6b:lossless", "6b", True),
    )


def _plb_tables(payloads) -> dict:
    table = Table(
        ["shared-object attachment", "IDWT time lossless [ms]"],
        title="Ablation - bus tier of the HW/SW Shared Object (model 6a)",
    )
    table.add_row("OPB (paper platform)", payloads["sim:6a:lossless"]["idwt_ms"])
    table.add_row("PLB (64-bit, pipelined)",
                  payloads["sim:6a:lossless:plb"]["idwt_ms"])
    table.add_row("point-to-point links (6b)", payloads["sim:6b:lossless"]["idwt_ms"])
    return {"ablation_plb": table}


register(Experiment(
    id="ablation_plb",
    title="Ablation - bus tier of the HW/SW Shared Object",
    category="ablation",
    description="OPB vs PLB vs dedicated point-to-point attachment of "
    "the HW/SW Shared Object (model 6a).",
    artefacts=("ablation_plb",),
    build_requests=_plb_requests,
    build_tables=_plb_tables,
))


QUALITY_LAYERS = 5


def _layers_requests() -> tuple:
    return tuple(
        RunRequest(
            rid=f"layers:{count}",
            kind=KIND_LAYERS,
            params={
                "size": 64,
                "tile": 32,
                "num_layers": QUALITY_LAYERS,
                "seed": 7,
                "layers": count,
            },
        )
        for count in range(1, QUALITY_LAYERS + 1)
    )


def _layers_tables(payloads) -> dict:
    table = Table(
        ["layers", "PSNR [dB]", "entropy ops"],
        title="Extension - quality-layer prefix decoding (one codestream)",
    )
    for count in range(1, QUALITY_LAYERS + 1):
        payload = payloads[f"layers:{count}"]
        table.add_row(f"{count}/{QUALITY_LAYERS}", payload["psnr"],
                      payload["arith_ops"])
    return {"ablation_layers": table}


register(Experiment(
    id="ablation_layers",
    title="Extension - quality-layer prefix decoding",
    category="extension",
    description="Layered codestreams trade entropy work for quality: "
    "PSNR and entropy ops per decoded layer prefix.",
    artefacts=("ablation_layers",),
    build_requests=_layers_requests,
    build_tables=_layers_tables,
))


# --------------------------------------------------------------------------
# Scaling study — "7b does better scale with increasing parallelism"
# --------------------------------------------------------------------------


TASK_COUNTS = (1, 2, 4, 8)


def _scaling_requests() -> tuple:
    return tuple(
        _sim(f"scaled:{num_tasks}:{link}", f"7{variant}-n{num_tasks}", True)
        for num_tasks in TASK_COUNTS
        for variant, link in (("a", "bus"), ("b", "p2p"))
    )


def _scaling_tables(payloads) -> dict:
    table = Table(
        [
            "processors",
            "bus-only decode [ms]", "bus-only IDWT [ms]",
            "P2P decode [ms]", "P2P IDWT [ms]",
        ],
        title="Scaling with parallelism - 7a-style (bus) vs 7b-style (P2P)",
    )
    for num_tasks in TASK_COUNTS:
        bus = payloads[f"scaled:{num_tasks}:bus"]
        p2p = payloads[f"scaled:{num_tasks}:p2p"]
        table.add_row(num_tasks, bus["decode_ms"], bus["idwt_ms"],
                      p2p["decode_ms"], p2p["idwt_ms"])
    return {"scaling_parallelism": table}


register(Experiment(
    id="scaling",
    title="Scaling with parallelism",
    category="extension",
    description="Processor-count sweep of the bus-only vs point-to-point "
    "VTA mappings (the paper's closing claim).",
    artefacts=("scaling_parallelism",),
    build_requests=_scaling_requests,
    build_tables=_scaling_tables,
))


# --------------------------------------------------------------------------
# Sweep groups
# --------------------------------------------------------------------------

GROUPS.update({
    "table1": ("table1_application_layer", "table1_vta_layer"),
    "paper": ("fig1", "table1_application_layer", "table1_vta_layer",
              "table2", "loc"),
    "ablations": ("ablation_opb_burst", "ablation_chunking",
                  "ablation_polling", "ablation_fifo_depth",
                  "ablation_hw_speedup", "ablation_plb", "ablation_layers"),
    "all": ("fig1", "table1_application_layer", "table1_vta_layer", "table2",
            "loc", "ablation_opb_burst", "ablation_chunking",
            "ablation_polling", "ablation_fifo_depth", "ablation_hw_speedup",
            "ablation_plb", "ablation_layers", "scaling"),
})
