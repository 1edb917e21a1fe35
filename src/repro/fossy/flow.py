"""The complete synthesis flow (paper Fig. 4).

``synthesise_block`` carries one hardware model through the whole FOSSY
path — inline, elaborate, emit VHDL, estimate — and, for comparison, the
reference path on the same behavioural model.  ``synthesise_system``
drives both IDWT blocks plus the platform files and the software-side C,
producing everything the EDK hand-off needs and the data behind Table 2
and the LoC comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .behaviour import Design, count_statements
from .c_backend import emit_software_subsystem
from .estimate import SynthesisReport, estimate_fossy, estimate_reference
from .frontend import elaborate
from .idwt53 import build_idwt53
from .idwt97 import build_idwt97
from .inline import inline_design
from .platform_files import HardwareBlockSpec, emit_mhs, emit_mss
from .testbench import TestbenchSpec, generate_testbench
from .vhdl import emit_fossy_vhdl, emit_reference_vhdl, line_count, lint_vhdl


@dataclass
class BlockResult:
    """Everything the flow produces for one hardware block."""

    name: str
    model_statements: int
    reference_vhdl: str
    fossy_vhdl: str
    reference_report: SynthesisReport
    fossy_report: SynthesisReport
    num_states: int
    #: Self-checking VHDL testbench (oracle from the FSMD interpreter).
    testbench_vhdl: str = ""

    @property
    def reference_loc(self) -> int:
        return line_count(self.reference_vhdl)

    @property
    def fossy_loc(self) -> int:
        return line_count(self.fossy_vhdl)

    @property
    def loc_ratio(self) -> float:
        return self.fossy_loc / self.reference_loc

    @property
    def area_ratio(self) -> float:
        """FOSSY slices relative to the reference implementation."""
        return self.fossy_report.slices / self.reference_report.slices

    @property
    def frequency_ratio(self) -> float:
        return self.fossy_report.frequency_mhz / self.reference_report.frequency_mhz


def synthesise_block(design: Design) -> BlockResult:
    """Run one behavioural model through both implementation paths."""
    statements = count_statements(design.main) + sum(
        count_statements(proc.body) for proc in design.procedures
    )
    reference_vhdl = emit_reference_vhdl(design)
    lint_vhdl(reference_vhdl)
    inlined = inline_design(design)
    fsmd = elaborate(inlined)
    fossy_vhdl = emit_fossy_vhdl(fsmd)
    lint_vhdl(fossy_vhdl)
    # A small smoke stimulus: transform an 8x8 tile over one level.
    testbench = generate_testbench(
        fsmd,
        TestbenchSpec(
            inputs={"tile_w": 8, "tile_h": 8, "num_levels": 1},
            memory_loads={"tile_ram": [((i * 7) % 31) - 15 for i in range(64)]},
            check_memories={"tile_ram": 64},
        ),
    )
    return BlockResult(
        name=design.name,
        model_statements=statements,
        reference_vhdl=reference_vhdl,
        fossy_vhdl=fossy_vhdl,
        reference_report=estimate_reference(design),
        fossy_report=estimate_fossy(fsmd),
        num_states=fsmd.num_states,
        testbench_vhdl=testbench,
    )


@dataclass
class SystemResult:
    """The full Fig. 4 output set."""

    blocks: list
    mhs: str
    mss: str
    software_c: str

    def block(self, name: str) -> BlockResult:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(name)


def synthesise_system() -> SystemResult:
    """Synthesise the whole JPEG 2000 hardware subsystem + platform files.

    The block layout (bus windows, P2P partners), the software task list,
    the processor count and the per-object method sets all come from the
    catalog's version 7b (:mod:`repro.design`): four processors and the
    P2P mapping.  Its ``synthesis_blocks`` section is the hand-off
    contract.
    """
    from ..design import catalog, check_spec
    from ..design.spec import SHARED_OBJECT_BEHAVIOURS

    design = catalog.get("7b")
    check_spec(design)
    num_processors = len(design.mapping.processors)
    blocks = [synthesise_block(build_idwt53()), synthesise_block(build_idwt97())]
    specs = [
        HardwareBlockSpec(
            block.name,
            base_address=block.base_address,
            p2p_partner=block.p2p_partner,
        )
        for block in design.mapping.synthesis_blocks
    ]
    tasks = [task.name for task in design.tasks]
    return SystemResult(
        blocks=blocks,
        mhs=emit_mhs(specs, num_processors),
        mss=emit_mss(tasks, num_processors),
        software_c=emit_software_subsystem(
            tasks,
            objects={
                shared.name: list(SHARED_OBJECT_BEHAVIOURS[shared.behaviour])
                for shared in design.shared_objects
            },
        ),
    )
