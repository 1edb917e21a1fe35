"""Seeded input generator for the ``decode`` workload.

Runs in its own process, never in the measured one: the measured worker
only ever reads the files written here.  One invocation produces one
part of an image variant's inputs::

    python perfbench/generate.py --variant 0 --mode lossless --out DIR

``lossless`` / ``lossy``
    A 4-tile 256x256 RGB image encoded with the case-study coding
    parameters (the paper image's 128x128 tiles, so each tile costs what
    one of the paper's 16 does), plus a decode of it through the reference plan
    (reference Tier-1 kernel, bit-by-bit Tier-2 parser).  That decode
    yields the expected basic-operation counts, and for the lossy
    stream the exact samples every later decode must reproduce.
``warmup``
    A two-tile 256x128 image in both modes, decoded once during set-up so
    lazy imports and caches are filled before the first timed op.

Every file is written into ``--out``; ``run.py`` assembles the parts
into a variant directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Image seed of variant *k*; variant 0 is the repo's standard image.
BASE_IMAGE_SEED = 2008

#: Side of the op image: 2x2 tiles.  The paper's 512x512 image (16 tiles,
#: ~10 s per op on a 2-CPU host) leaves 2-3 ops per run, too few for a
#: steady figure on a host whose speed drifts over tens of seconds.
IMAGE_SIZE = 256
WARMUP_SIZE = (256, 128)
TILE = 128


def coding_parameters(jpeg2000, width: int, height: int, lossless: bool):
    """The case-study coding parameters (3 levels, 32x32 blocks)."""
    return jpeg2000.CodingParameters(
        width=width, height=height, num_components=3,
        tile_width=TILE, tile_height=TILE, num_levels=3,
        lossless=lossless, base_step=1 / 8,
    )


def reference_decode(jpeg2000, data: bytes):
    """Decode through the reference plan; returns ``(image, op counts)``."""
    options = jpeg2000.DecodeOptions(kernel="reference", tier2="reference")
    decoder = jpeg2000.Jpeg2000Decoder(data, options=options)
    image = decoder.decode()
    return image, dict(decoder.ops.counts)


def generate_image(jpeg2000, np, variant: int, lossless: bool, out: Path) -> None:
    mode = "lossless" if lossless else "lossy"
    source = jpeg2000.synthetic_image(
        IMAGE_SIZE, IMAGE_SIZE, 3, seed=BASE_IMAGE_SEED + variant
    )
    data = jpeg2000.encode_image(
        source, coding_parameters(jpeg2000, IMAGE_SIZE, IMAGE_SIZE, lossless)
    )
    image, ops = reference_decode(jpeg2000, data)
    if lossless:
        if image != source:
            raise SystemExit("reference decode of the lossless stream is lossy")
        np.save(out / "source.npy", np.stack(source.components).astype(np.uint8))
    else:
        np.save(out / "lossy_reference.npy", np.stack(image.components))
    (out / f"{mode}.j2k").write_bytes(data)
    (out / f"{mode}_ops.json").write_text(json.dumps(ops, sort_keys=True))


def generate_warmup(jpeg2000, variant: int, out: Path) -> None:
    width, height = WARMUP_SIZE
    source = jpeg2000.synthetic_image(
        width, height, 3, seed=BASE_IMAGE_SEED + variant
    )
    for lossless in (True, False):
        mode = "lossless" if lossless else "lossy"
        data = jpeg2000.encode_image(
            source, coding_parameters(jpeg2000, width, height, lossless)
        )
        (out / f"warmup_{mode}.j2k").write_bytes(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--mode", choices=["lossless", "lossy", "warmup"],
                        required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import numpy as np

    from repro import jpeg2000

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "warmup":
        generate_warmup(jpeg2000, args.variant, out)
    else:
        generate_image(jpeg2000, np, args.variant, args.mode == "lossless", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
