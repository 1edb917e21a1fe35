#!/usr/bin/env python3
"""The FOSSY synthesis flow (paper Fig. 4), end to end.

Takes the two IDWT hardware models through both implementation paths and
writes every artefact of the flow into ``synthesis_output/``:

  * handcrafted-style reference VHDL (procedures preserved),
  * FOSSY VHDL (everything inlined into one explicit state machine),
  * the EDK platform files (system.mhs / system.mss),
  * the generated C for the software tasks,

then prints the reconstructed Table 2 (Virtex-4 LX25 estimates).

Run:  python examples/synthesis_flow.py
"""

import pathlib

from repro.fossy import synthesise_system
from repro.reporting import Table

OUTPUT_DIR = pathlib.Path("synthesis_output")


def main() -> None:
    print("running the FOSSY flow for the JPEG 2000 hardware subsystem...\n")
    system = synthesise_system()

    OUTPUT_DIR.mkdir(exist_ok=True)
    written = []
    for block in system.blocks:
        ref_path = OUTPUT_DIR / f"{block.name}_reference.vhd"
        fossy_path = OUTPUT_DIR / f"{block.name}_fossy.vhd"
        tb_path = OUTPUT_DIR / f"{block.name}_tb.vhd"
        ref_path.write_text(block.reference_vhdl)
        fossy_path.write_text(block.fossy_vhdl)
        tb_path.write_text(block.testbench_vhdl)
        written += [ref_path, fossy_path, tb_path]
    (OUTPUT_DIR / "system.mhs").write_text(system.mhs)
    (OUTPUT_DIR / "system.mss").write_text(system.mss)
    (OUTPUT_DIR / "software.c").write_text(system.software_c)
    written += [OUTPUT_DIR / "system.mhs", OUTPUT_DIR / "system.mss",
                OUTPUT_DIR / "software.c"]
    for path in written:
        print(f"  wrote {path} ({len(path.read_text().splitlines())} lines)")

    table = Table(
        ["metric", "53 FOSSY", "53 ref", "97 FOSSY", "97 ref"],
        title="\nTable 2 (reconstructed) - RTL synthesis results, Virtex-4 LX25",
    )
    b53 = system.block("idwt53")
    b97 = system.block("idwt97")
    table.add_row("slice flip flops",
                  b53.fossy_report.flip_flops, b53.reference_report.flip_flops,
                  b97.fossy_report.flip_flops, b97.reference_report.flip_flops)
    table.add_row("4-input LUTs",
                  b53.fossy_report.luts, b53.reference_report.luts,
                  b97.fossy_report.luts, b97.reference_report.luts)
    table.add_row("occupied slices",
                  b53.fossy_report.slices, b53.reference_report.slices,
                  b97.fossy_report.slices, b97.reference_report.slices)
    table.add_row("equivalent gates",
                  b53.fossy_report.gate_count, b53.reference_report.gate_count,
                  b97.fossy_report.gate_count, b97.reference_report.gate_count)
    table.add_row("est. frequency [MHz]",
                  b53.fossy_report.frequency_mhz, b53.reference_report.frequency_mhz,
                  b97.fossy_report.frequency_mhz, b97.reference_report.frequency_mhz)
    print(table.render())

    print("paper section 4, checked:")
    print(f"  IDWT53 area overhead 'about 10%':  measured "
          f"{(b53.area_ratio - 1) * 100:+.0f}%")
    print(f"  IDWT97 '15% smaller':              measured "
          f"{(b97.area_ratio - 1) * 100:+.0f}%")
    print(f"  IDWT97 '28% slower':               measured "
          f"{(1 - b97.frequency_ratio) * 100:.0f}% slower")
    print(f"  code size blow-up (inlined FSM):   53: "
          f"{b53.reference_loc} -> {b53.fossy_loc} lines, 97: "
          f"{b97.reference_loc} -> {b97.fossy_loc} lines")


if __name__ == "__main__":
    main()
