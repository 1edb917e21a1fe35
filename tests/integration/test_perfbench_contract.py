"""The library surface the benchmark needs, pinned from the library side.

``perfbench/worker.py`` spans the decode stages by wrapping functions
and methods of ``repro.jpeg2000.stages`` by name.  A rename there would
otherwise break only the benchmark's traced runs; this test installs
those wrappers on a real inline decode and a real pooled decode and
checks that every stage was seen, that the block counter agrees with
the decoder, and that restoring puts every original back.

Every other name the benchmark's scripts reach (``generate.py``,
``worker.py``, ``cli_probe.py``, ``run.py``) is listed in ``SURFACE``:
each must resolve, and the objects the benchmark reads must have the
shape it reads.
"""

import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

from repro.jpeg2000 import (
    CodingParameters,
    DecodeOptions,
    Jpeg2000Decoder,
    encode_image,
    shutdown_pool,
    synthetic_image,
)
from repro.jpeg2000.stages import assemble, entropy, parse, reconstruct

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: Every (owner, attribute) the decode workload's tracer may wrap.
WRAPPABLE = [
    (parse, "entropy_specs"),
    (entropy, "run_specs"),
    (entropy, "open_stream"),
    (entropy.SpecStream, "submit_tile"),
    (entropy.SpecStream, "drain_tile"),
    (entropy.SpecStream, "close"),
    (reconstruct, "scatter_entropy"),
    (reconstruct, "finish_tiles"),
    (assemble, "assemble_full"),
    (assemble, "assemble_reduced"),
]

#: Every other (module, dotted attribute) the benchmark calls, wraps or
#: reads; each resolves to a callable unless listed in CONSTANTS.
SURFACE = [
    ("repro.jpeg2000", "CodingParameters"),
    ("repro.jpeg2000", "DecodeOptions"),
    ("repro.jpeg2000", "Jpeg2000Decoder"),
    ("repro.jpeg2000", "Jpeg2000Decoder.decode"),
    ("repro.jpeg2000", "compile_plan"),
    ("repro.jpeg2000", "encode_image"),
    ("repro.jpeg2000", "shutdown_pool"),
    ("repro.jpeg2000", "synthetic_image"),
    ("repro.jpeg2000.encoder", "Jpeg2000Encoder.encode"),
    ("repro.casestudy.explorer", "ALL_VERSIONS"),
    ("repro.casestudy.explorer", "run_version"),
    ("repro.casestudy.workload", "paper_workload"),
    ("repro.design.elaborate", "ElaboratedModel.__init__"),
    ("repro.kernel.scheduler", "Simulator.__init__"),
    ("repro.kernel.scheduler", "Simulator.run"),
    ("repro.kernel.tracing", "SimProfiler"),
    ("repro.kernel.tracing", "SimProfiler.as_dict"),
    ("repro.reporting.tables", "CHANNEL_TRAFFIC_COLUMNS"),
    ("repro.reporting.tables", "channel_traffic_row"),
    ("repro.reporting.tables", "Table.render"),
    ("repro.reporting.tables", "Table.to_csv"),
    ("repro.experiments.fingerprint", "code_fingerprint"),
    ("repro.experiments.runner", "timed_execute"),
    ("repro.experiments.runner", "Runner.run"),
    ("repro.experiments.cache", "ResultCache.load"),
    ("repro.experiments.cache", "ResultCache.store"),
    ("repro.telemetry.ledger", "append_record"),
    ("repro.__main__", "main"),
]

#: The SURFACE entries that are data, not callables.
CONSTANTS = {"ALL_VERSIONS", "CHANNEL_TRAFFIC_COLUMNS"}

#: The decode op-count stages the benchmark checks and reports.
OP_STAGES = ("arith", "iq", "idwt", "ict", "dc")


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import worker

    yield tracer, worker
    for name in ("tracer", "worker"):
        sys.modules.pop(name, None)


def _codestream():
    params = CodingParameters(
        width=64, height=64, num_components=3, tile_width=32,
        tile_height=32, num_levels=2, lossless=True,
    )
    return encode_image(synthetic_image(64, 64, 3, seed=11), params)


def _block_count(decoder) -> int:
    return sum(
        len(decoder.tile_stages(tile).entropy_specs()[1])
        for tile in range(decoder.parameters.num_tiles())
    )


def test_decode_spans_cover_inline_and_pooled_decodes(perfbench_modules):
    tracer_module, worker = perfbench_modules
    data = _codestream()
    inline = Jpeg2000Decoder(data, options=DecodeOptions())
    pooled = Jpeg2000Decoder(
        data, options=DecodeOptions(workers=2, oversubscribe=True)
    )
    assert pooled.plan.stage("entropy").executor.kind == "pool"
    blocks = _block_count(inline)
    tiles = inline.parameters.num_tiles()
    originals = [(owner, name, getattr(owner, name)) for owner, name in WRAPPABLE]

    tracer = tracer_module.Tracer()
    worker.install_decode_spans(tracer)
    try:
        with tracer.span("inline"):
            inline.decode()
        with tracer.span("pooled"):
            pooled.decode()
    finally:
        tracer.restore()
        shutdown_pool()

    for owner, name, original in originals:
        assert getattr(owner, name) is original, name
    assert tracer.counts["jpeg2000.codeblocks"] == 2 * blocks
    roots = {
        tracer.spans[index].name: index
        for index in range(len(tracer.spans))
        if tracer.spans[index].parent is None
    }
    for decode in ("inline", "pooled"):
        names = [
            tracer.spans[index].name
            for index in tracer_module.subtree(tracer.spans, roots[decode])
        ]
        for stage in ("parse", "entropy", "reconstruct"):
            assert f"jpeg2000.{stage}" in names, (decode, stage)
    # Inline: one run_specs call per tile.  Pooled: open_stream, one
    # submit_tile and one drain_tile per tile, and close.
    entropy_spans = {
        decode: sum(
            tracer.spans[index].name == "jpeg2000.entropy"
            for index in tracer_module.subtree(tracer.spans, roots[decode])
        )
        for decode in ("inline", "pooled")
    }
    assert entropy_spans == {"inline": tiles, "pooled": 2 + 2 * tiles}


@pytest.mark.parametrize(
    "module, attribute", SURFACE, ids=[attr for _, attr in SURFACE]
)
def test_benchmark_surface_resolves(module, attribute):
    target = importlib.import_module(module)
    for name in attribute.split("."):
        target = getattr(target, name)
    if attribute in CONSTANTS:
        assert target and all(isinstance(item, str) for item in target)
    else:
        assert callable(target)


def test_decode_surface_shape():
    """What generate.py, worker.py and run.py read off a decode."""
    from repro import jpeg2000

    data = _codestream()
    options = jpeg2000.DecodeOptions(kernel="reference", tier2="reference")
    decoder = jpeg2000.Jpeg2000Decoder(data, options=options)
    image = decoder.decode()
    assert image == jpeg2000.synthetic_image(64, 64, 3, seed=11)
    assert set(OP_STAGES) <= set(decoder.ops.counts)
    assert all(isinstance(decoder.ops.counts[stage], int) for stage in OP_STAGES)
    for fate in decoder.fates.fates.values():
        assert isinstance(fate["rewrites"], list)
    assert re.fullmatch(r"[0-9a-f]{16,}", jpeg2000.compile_plan().digest())
    jpeg2000.shutdown_pool()


def test_table1_surface_shape():
    """What worker.py's table1 workload reads off a simulated cell."""
    from repro.casestudy import explorer
    from repro.casestudy.workload import paper_workload
    from repro.design.elaborate import ElaboratedModel
    from repro.kernel.scheduler import Simulator
    from repro.kernel.tracing import SimProfiler
    from repro.reporting.tables import (
        CHANNEL_TRAFFIC_COLUMNS,
        channel_traffic_row,
    )

    assert set(explorer.ALL_VERSIONS) == {
        "1", "2", "3", "4", "5", "6a", "6b", "7a", "7b",
    }
    profilers, models = [], []
    original_sim, original_model = Simulator.__init__, ElaboratedModel.__init__

    def sim_init(self, *args, **kwargs):
        original_sim(self, *args, **kwargs)
        profilers.append(SimProfiler(self))

    def model_init(self, *args, **kwargs):
        original_model(self, *args, **kwargs)
        models.append(self)

    quarter = dataclasses.replace(paper_workload(True), num_tiles=4)
    Simulator.__init__, ElaboratedModel.__init__ = sim_init, model_init
    try:
        report = explorer.run_version("6a", True, workload=quarter)
    finally:
        Simulator.__init__, ElaboratedModel.__init__ = original_sim, original_model
    assert (report.version, report.mode) == ("6a", "lossless")
    assert report.decode_ms > 0 and report.idwt_ms > 0
    opb = report.details["opb"]
    assert opb.transactions > 0 and opb.wait_fs >= 0
    assert len(channel_traffic_row("6a", opb, polls="1")) == len(
        CHANNEL_TRAFFIC_COLUMNS
    )
    for key in ("so", "params_so"):
        assert report.details[key].grants >= 0
        assert report.details[key].guard_blocked >= 0
    assert [model.shared_object.name for model in models]
    profile = profilers[0].as_dict()
    assert profile["total_steps"] > 0 and profile["delta_count"] > 0
    assert profile["total_seconds"] > 0
    for process in profile["processes"]:
        assert isinstance(process["name"], str)
        assert process["seconds"] >= 0
