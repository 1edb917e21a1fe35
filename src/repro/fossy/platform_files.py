"""EDK platform file generation (MHS / MSS).

The prototypic synthesis flow "interfaces the Embedded Development Kit"
by generating the Microprocessor Hardware Specification (MHS) and
Microprocessor Software Specification (MSS) files from which the EDK
project is created (paper, section 4 and Fig. 4).  The emitters follow
the EDK 8.x textual syntax closely enough that the files read like the
real thing; they carry the processor, the OPB, the memory controller and
one peripheral instance per FOSSY-generated hardware block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..vta.platform import BOARD, FREQUENCY_HZ, PART, PROCESSOR_KIND


#: Bytes of OPB address space each generated peripheral decodes.
ADDRESS_SPAN = 0x1000


@dataclass
class HardwareBlockSpec:
    """One FOSSY-generated block to instantiate as an OPB peripheral."""

    name: str
    base_address: int
    p2p_partner: str = ""  # non-empty: extra dedicated link to this block


def emit_mhs(blocks: Sequence[HardwareBlockSpec], num_processors: int) -> str:
    """The Microprocessor Hardware Specification."""
    lines = [
        "# Generated by the repro FOSSY flow",
        f"# Target: {BOARD} ({PART}), "
        f"{FREQUENCY_HZ / 1e6:.0f} MHz system clock",
        "",
        "PORT sys_clk_pin = dcm_clk_s, DIR = I, SIGIS = CLK",
        "PORT sys_rst_pin = sys_rst_s, DIR = I, SIGIS = RST",
        "",
    ]
    for cpu in range(num_processors):
        lines.extend(
            [
                f"BEGIN {PROCESSOR_KIND}",
                f" PARAMETER INSTANCE = cpu_{cpu}",
                " PARAMETER HW_VER = 2.00.a",
                " BUS_INTERFACE DOPB = opb_0",
                " BUS_INTERFACE IOPB = opb_0",
                "END",
                "",
            ]
        )
    lines.extend(
        [
            "BEGIN opb_v20",
            " PARAMETER INSTANCE = opb_0",
            " PARAMETER HW_VER = 1.10.c",
            " PARAMETER C_EXT_RESET_HIGH = 0",
            " PORT OPB_Clk = dcm_clk_s",
            "END",
            "",
            "BEGIN mch_opb_ddr",
            " PARAMETER INSTANCE = ddr_ctrl_0",
            " PARAMETER HW_VER = 1.00.c",
            " PARAMETER C_NUM_CHANNELS = 2",
            " BUS_INTERFACE SOPB = opb_0",
            " PORT DDR_Clk = dcm_clk_s",
            "END",
            "",
        ]
    )
    for block in blocks:
        lines.extend(
            [
                f"BEGIN {block.name}",
                f" PARAMETER INSTANCE = {block.name}_0",
                " PARAMETER HW_VER = 1.00.a",
                f" PARAMETER C_BASEADDR = 0x{block.base_address:08X}",
                f" PARAMETER C_HIGHADDR = 0x{block.base_address + ADDRESS_SPAN - 1:08X}",
                " BUS_INTERFACE SOPB = opb_0",
            ]
        )
        if block.p2p_partner:
            lines.append(f" BUS_INTERFACE P2P = {block.p2p_partner}_link")
        lines.extend(["END", ""])
    return "\n".join(lines) + "\n"


def emit_mss(tasks: Sequence[str], num_processors: int) -> str:
    """The Microprocessor Software Specification."""
    lines = [
        "# Generated by the repro FOSSY flow",
        "",
        "PARAMETER VERSION = 2.2.0",
        "",
    ]
    for cpu in range(num_processors):
        lines.extend(
            [
                "BEGIN OS",
                " PARAMETER OS_NAME = standalone",
                " PARAMETER OS_VER = 1.00.a",
                f" PARAMETER PROC_INSTANCE = cpu_{cpu}",
                "END",
                "",
                "BEGIN PROCESSOR",
                f" PARAMETER DRIVER_NAME = cpu_{PROCESSOR_KIND}",
                " PARAMETER DRIVER_VER = 1.00.a",
                f" PARAMETER HW_INSTANCE = cpu_{cpu}",
                "END",
                "",
            ]
        )
    lines.extend(
        [
            "BEGIN LIBRARY",
            " PARAMETER LIBRARY_NAME = osss_embedded",
            " PARAMETER LIBRARY_VER = 2.0.0",
            f" # software tasks: {', '.join(tasks)}",
            "END",
            "",
        ]
    )
    return "\n".join(lines) + "\n"
