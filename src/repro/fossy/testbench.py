"""Self-checking VHDL testbench generation.

Completes the hand-off story of the synthesis flow: for a given FSMD the
generator produces a VHDL testbench that drives clock/reset/start, waits
for ``done`` and lists the expected memory contents.  The *expected* values come
from executing the very same FSMD with the Python interpreter
(:mod:`repro.fossy.simulate`), so the testbench is the bridge between this
reproduction and a real simulator (ModelSim/GHDL) on a machine that has
one — the stimulus and oracle travel inside the file.
"""

from __future__ import annotations

from typing import Optional

from ..casestudy.profiles import FREQUENCY_HZ
from .ir import Fsmd
from .simulate import FsmdSimulator

#: The testbench clock period: the case-study board clock's.
CLOCK_PERIOD_NS = 1e9 / FREQUENCY_HZ

_TB_HEADER = """\
-- Self-checking testbench generated by the repro FOSSY flow.
-- Expected values were computed by executing the elaborated FSMD with the
-- reference interpreter; a VHDL simulator must reproduce them exactly.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
"""


class TestbenchSpec:
    """What to drive and what to check."""

    def __init__(
        self,
        inputs: Optional[dict] = None,
        memory_loads: Optional[dict] = None,
        check_memories: Optional[dict] = None,
    ):
        #: input port name -> driven value
        self.inputs = dict(inputs or {})
        #: memory name -> list of initial values (from address 0)
        self.memory_loads = dict(memory_loads or {})
        #: memory name -> number of leading cells asserted after DONE
        self.check_memories = dict(check_memories or {})


def generate_testbench(fsmd: Fsmd, spec: TestbenchSpec) -> str:
    """Emit the testbench VHDL; runs the interpreter to get the oracle."""
    simulator = FsmdSimulator(fsmd, inputs=spec.inputs)
    for memory, values in spec.memory_loads.items():
        simulator.load_memory(memory, values)
    cycles = simulator.run()

    entity = fsmd.name
    lines = [_TB_HEADER]
    lines.append(f"entity {entity}_tb is")
    lines.append(f"end entity {entity}_tb;")
    lines.append("")
    lines.append(f"architecture bench of {entity}_tb is")
    lines.append("  signal clk   : std_logic := '0';")
    lines.append("  signal reset : std_logic := '1';")
    lines.append("  signal start : std_logic := '0';")
    lines.append("  signal done  : std_logic;")
    for port in fsmd.inputs:
        lines.append(
            f"  signal {port.name} : signed({port.width - 1} downto 0);"
        )
    for port in fsmd.outputs:
        lines.append(
            f"  signal {port.name} : signed({port.width - 1} downto 0);"
        )
    lines.append("begin")
    lines.append(f"  clk <= not clk after {CLOCK_PERIOD_NS / 2:g} ns;")
    lines.append("")
    ports = ["clk => clk", "reset => reset", "start => start", "done => done"]
    ports += [f"{p.name} => {p.name}" for p in fsmd.inputs + fsmd.outputs]
    lines.append(f"  dut : entity work.{entity}")
    lines.append("    port map (" + ", ".join(ports) + ");")
    lines.append("")
    lines.append("  stimulus : process")
    lines.append("  begin")
    for name, value in spec.inputs.items():
        width = next(p.width for p in fsmd.inputs if p.name == name)
        lines.append(f"    {name} <= to_signed({int(value)}, {width});")
    lines.append(f"    wait for {2 * CLOCK_PERIOD_NS:g} ns;")
    lines.append("    reset <= '0';")
    lines.append("    start <= '1';")
    # Upper-bound the run by the interpreter's cycle count plus slack.
    lines.append(f"    wait until done = '1' for {int((cycles + 16) * CLOCK_PERIOD_NS)} ns;")
    lines.append("    assert done = '1'")
    lines.append(f"      report \"{entity}: DONE not reached within "
                 f"{cycles + 16} cycles\" severity failure;")
    lines.append("    report \"testbench finished\" severity note;")
    lines.append("    wait;")
    lines.append("  end process stimulus;")
    lines.append("")
    # Memory oracle as a comment block: simulators with external checking
    # scripts can diff against it.
    for memory, count in spec.check_memories.items():
        values = simulator.dump_memory(memory, count)
        lines.append(f"  -- expected {memory}[0..{count - 1}] after DONE:")
        for base in range(0, count, 16):
            chunk = ", ".join(str(v) for v in values[base : base + 16])
            lines.append(f"  --   {base:5d}: {chunk}")
    lines.append(f"end architecture bench;")
    return "\n".join(lines) + "\n"
