"""The names the benchmark's tracer wraps, pinned from the library side.

``perfbench/worker.py`` spans the decode stages by wrapping functions
and methods of ``repro.jpeg2000.stages`` by name.  A rename there would
otherwise break only the benchmark's traced runs; this test installs
those wrappers on a real inline decode and a real pooled decode and
checks that every stage was seen, that the block counter agrees with
the decoder, and that restoring puts every original back.
"""

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
