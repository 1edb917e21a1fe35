#!/usr/bin/env python3
"""The paper's design-space exploration: reconstructing Table 1.

Walks the nine design versions of the JPEG 2000 decoder case study —
software-only (1) through the fully parallel HW/SW architecture on the
virtual target architecture (7b) — on the paper workload (16 tiles, 3
components, 100 MHz) through the experiment registry and prints the
reconstructed Table 1 with the speed-up and IDWT columns the paper
discusses.

Run:  python examples/design_space_exploration.py
"""

from repro.experiments import Runner
from repro.experiments.defs import shape_relations


def main() -> None:
    print("simulating all nine versions in both modes "
          "(about 15 s of wall clock)...\n")
    # The registry's 'table1' group: the same tables 'python -m repro
    # sweep table1' prints and results/ holds.
    payloads = {}
    print("Table 1 (reconstructed) - decoding 16 tiles with 3 components\n")
    for outcome in Runner().sweep("table1"):
        payloads.update(outcome.payloads)
        for table in outcome.tables().values():
            print(table.render())

    relations = shape_relations(payloads)
    print("the paper's prose, checked against the simulation:")
    checks = [
        ("v2 speed-up 'about 10%/19%'",
         f"{relations['lossless']['v2_speedup']:.2f} / "
         f"{relations['lossy']['v2_speedup']:.2f}"),
        ("v4/v5 speed-up 'factor 4.5/5'",
         f"{relations['lossless']['v4_speedup']:.2f} / "
         f"{relations['lossy']['v4_speedup']:.2f}"),
        ("IDWT 3->6a 'up to a factor of 8'",
         f"{relations['lossless']['idwt_6a_vs_3']:.1f}x / "
         f"{relations['lossy']['idwt_6a_vs_3']:.1f}x"),
        ("7a 'increased even more than 6a'",
         f"{relations['lossless']['idwt_7a_vs_6a']:.2f}x"),
        ("'IDWT times of 6b and 7b are equal'",
         f"ratio {relations['lossless']['idwt_7b_vs_6b']:.2f}"),
        ("IDWT in HW 'speed-up by 12/16' vs SW",
         f"{relations['lossless']['idwt_speedup_6b']:.1f}x / "
         f"{relations['lossy']['idwt_speedup_6b']:.1f}x"),
    ]
    for claim, measured in checks:
        print(f"  {claim:42s} -> {measured}")


if __name__ == "__main__":
    main()
