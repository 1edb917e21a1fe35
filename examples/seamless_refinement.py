#!/usr/bin/env python3
"""Seamless refinement: the same behaviour, three architectures.

The paper's central claim is that OSSS models refine from the Application
Layer to a cycle-accurate Virtual Target Architecture *without touching
the behavioural code*.  This script demonstrates it with real data: one
codestream is decoded through

  * version 3  (Application Layer, abstract communication),
  * version 6a (VTA, everything on one OPB bus),
  * version 6b (VTA, IDWT links on point-to-point channels),

and all three produce the bit-identical image while reporting very
different timing — which is exactly the methodology's value proposition.

Run:  python examples/seamless_refinement.py
"""

from repro.casestudy import functional_workload, run_version
from repro.reporting import Table


def main() -> None:
    # A small real workload: a 64x64 image in four 32x32 tiles, encoded by
    # our own encoder and decoded *through the OSSS models* for real.
    workload = functional_workload(lossless=True)
    print("decoding a real codestream through three refinements "
          "of the same model...\n")

    table = Table(
        ["model", "layer", "decode [ms]", "IDWT [ms]", "output"],
        title="One behaviour, three architectures",
    )
    outputs = {}
    for version, layer in (("3", "application"), ("6a", "VTA: bus only"),
                           ("6b", "VTA: bus + P2P")):
        report = run_version(version, True, workload)
        matches = report.image == workload.reference
        outputs[version] = report.image
        table.add_row(
            version, layer, report.decode_ms, report.idwt_ms,
            "bit-exact" if matches else "MISMATCH",
        )
    print(table.render())

    assert outputs["3"] == outputs["6a"] == outputs["6b"] == workload.reference
    print("all three decodes are bit-identical to the reference decoder.")
    print("only the timing changed — the refinement never touched the "
          "behavioural code.")

    # Show what the refinement *did* change: the architecture statistics.
    report_6a = run_version("6a", True, workload)
    bus = report_6a.details["opb"]
    print(f"\n6a bus traffic: {bus.transactions} transactions, "
          f"{bus.words} words, {bus.wait_fs / 1e12:.2f} ms spent waiting "
          f"for grants")


if __name__ == "__main__":
    main()
