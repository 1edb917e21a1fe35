"""Virtex-4 resource and timing estimation.

Applies per-operator cost/delay tables to both implementation styles, so
Table 2's relations emerge from structure:

* the **reference** style (handcrafted RTL) instantiates each procedure's
  datapath once, pipelines operator chains, and keeps control small — more
  registers, short critical paths;
* the **FOSSY** style (one inlined state machine) shares functional units
  across states behind input multiplexers and decodes a large state
  register — fewer duplicated operators for big designs (IDWT97 comes out
  smaller), but deeper combinational paths through mux trees and state
  decode (IDWT97 comes out slower), while for the small IDWT53 the mux and
  control overhead outweighs the sharing gain (FOSSY slightly bigger).

All constants model a Virtex-4 (-10 speed grade) with 4-input LUTs and are
documented inline; absolute numbers are estimates, relations are the
reproduction target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .behaviour import (
    Assign,
    Bin,
    Call,
    Const,
    Design,
    Expr,
    For,
    If,
    MemRef,
    walk_statements,
)
from .ir import Fsmd

# -- operator cost tables (Virtex-4, 4-input LUTs) -----------------------------------

#: LUTs per result bit.
LUTS_PER_BIT = {
    "addsub": 1.0,  # carry-chain adder/subtractor
    "compare": 0.5,  # carry-chain comparator
    "logic": 0.5,  # two 2-input gates per LUT4
    "shift_const": 0.0,  # constant shifts are wiring
    "shift_var": 1.5,  # barrel shifter stage mix
    "mul_const": 3.5,  # CSD shift-add network for 16-bit coefficients
    "mul": 0.5,  # DSP48 glue logic
    "mux2": 0.25,  # wide muxes pack into F5/F6 resources
}

#: Combinational delay: fixed + per-bit carry, in ns (-10 speed grade,
#: including average routing).
OP_DELAY_NS = {
    "addsub": (1.6, 0.035),
    "compare": (1.5, 0.030),
    "logic": (0.9, 0.0),
    "shift_const": (0.0, 0.0),
    "shift_var": (2.2, 0.010),
    "mul_const": (3.4, 0.050),  # two chained adder rows
    "mul": (4.1, 0.0),  # DSP48 combinational through-path
    "mem_read": (2.4, 0.0),  # BRAM clock-to-out
    "mem_write": (0.8, 0.0),
}

#: Flip-flop clock-to-out plus setup, ns.
FF_OVERHEAD_NS = 1.1
#: One 2:1 mux stage (LUT + local route), ns.
MUX_STAGE_NS = 0.2
#: FSM next-state/decode delay per state-register bit (wide-case decode
#: maps well onto the F5/F6 mux resources, so the per-level cost is low).
STATE_DECODE_NS_PER_LEVEL = 0.1
#: Handcrafted code registers its constant multipliers (adder-tree rows
#: split by pipeline registers): effective single-stage delay.
REF_PIPELINED_MUL_NS = 2.6
#: Synthesis retimes logic within a FOSSY state: only this fraction of the
#: chain beyond the deepest operator remains on the critical path.
FOSSY_RETIME_FACTOR = 0.4

#: ISE-style equivalent gate weights.
GATES_PER_LUT = 12
GATES_PER_FF = 8
GATES_PER_BRAM = 32768
GATES_PER_DSP = 2500
#: Bits in one Virtex-4 RAMB16 block-RAM primitive.
RAMB16_BITS = 18 * 1024


@dataclass
class SynthesisReport:
    """One column of Table 2."""

    name: str
    style: str  # "reference" or "fossy"
    flip_flops: int
    luts: int
    block_rams: int
    dsp48: int
    frequency_mhz: float

    @property
    def slices(self) -> int:
        # A Virtex-4 slice holds two LUTs and two FFs; packing is imperfect.
        return math.ceil(max(self.luts, self.flip_flops) / 2 * 1.15)

    @property
    def gate_count(self) -> int:
        return (
            self.luts * GATES_PER_LUT
            + self.flip_flops * GATES_PER_FF
            + self.block_rams * GATES_PER_BRAM
            + self.dsp48 * GATES_PER_DSP
        )

    def meets(self, frequency_hz: float) -> bool:
        return self.frequency_mhz * 1e6 >= frequency_hz

    def __repr__(self) -> str:
        return (
            f"SynthesisReport({self.name}/{self.style}: {self.flip_flops} FF, "
            f"{self.luts} LUT, {self.slices} slices, {self.frequency_mhz:.0f} MHz)"
        )


def _op_key(node: Bin) -> str:
    if node.op in ("=", "/=", "<", "<=", ">", ">="):
        return "compare"
    if node.op == "*":
        if isinstance(node.left, Const) or isinstance(node.right, Const):
            return "mul_const"
        return "mul"
    if node.op in (">>", "<<"):
        if isinstance(node.right, Const):
            return "shift_const"
        return "shift_var"
    if node.op in ("&", "|"):
        return "logic"
    return "addsub"


def _expr_ops(expr: Expr, ops: dict) -> None:
    """Accumulate (kind, width) -> count over an expression tree."""
    if isinstance(expr, Bin):
        key = (_op_key(expr), expr.width)
        ops[key] = ops.get(key, 0) + 1
        _expr_ops(expr.left, ops)
        _expr_ops(expr.right, ops)
    elif isinstance(expr, MemRef):
        _expr_ops(expr.addr, ops)


def _expr_delay(expr: Expr) -> float:
    """Combinational depth of an expression chain, ns."""
    if isinstance(expr, Bin):
        fixed, per_bit = OP_DELAY_NS[_op_key(expr)]
        own = fixed + per_bit * expr.width
        return own + max(_expr_delay(expr.left), _expr_delay(expr.right))
    if isinstance(expr, MemRef):
        fixed, _ = OP_DELAY_NS["mem_read"]
        return fixed + _expr_delay(expr.addr)
    return 0.0


def _lut_cost(ops: dict) -> float:
    return sum(LUTS_PER_BIT[kind] * width * count for (kind, width), count in ops.items())


def _dsp_count(ops: dict) -> int:
    return sum(count for (kind, _), count in ops.items() if kind == "mul")


def _bram_count(memories) -> int:
    total = 0
    for mem in memories:
        bits = mem.width * mem.depth
        total += max(1, math.ceil(bits / RAMB16_BITS))
    return total


# -- reference style ------------------------------------------------------------------


def estimate_reference(design: Design) -> SynthesisReport:
    """Handcrafted RTL: one datapath per procedure, pipelined chains."""
    ops: dict = {}
    max_delay = FF_OVERHEAD_NS
    call_sites: dict[str, int] = {}
    for body in [design.main] + [proc.body for proc in design.procedures]:
        for stmt in walk_statements(body):
            if isinstance(stmt, Assign):
                _expr_ops(stmt.expr, ops)
                # Handcrafted code pipelines roughly every second operator
                # (and registers its multiplier rows): the critical path is
                # the two deepest remaining operators plus a mux.
                max_delay = max(
                    max_delay,
                    FF_OVERHEAD_NS + _two_op_delay(stmt.expr) + MUX_STAGE_NS,
                )
            elif isinstance(stmt, If):
                _expr_ops(stmt.cond, ops)
            elif isinstance(stmt, For):
                counter_ops = {("addsub", stmt.var.width): 1, ("compare", stmt.var.width): 1}
                for key, count in counter_ops.items():
                    ops[key] = ops.get(key, 0) + count
            elif isinstance(stmt, Call):
                call_sites[stmt.name] = call_sites.get(stmt.name, 0) + 1
                for arg in stmt.args:
                    _expr_ops(arg, ops)
                    max_delay = max(
                        max_delay, FF_OVERHEAD_NS + _two_op_delay(arg) + MUX_STAGE_NS
                    )
    luts = _lut_cost(ops)
    # Multiple call sites of one procedure share its datapath behind muxes.
    for proc in design.procedures:
        sites = call_sites.get(proc.name, 0)
        if sites > 1:
            mux_bits = sum(param.width for param in proc.params)
            luts += LUTS_PER_BIT["mux2"] * mux_bits * (sites - 1)
    register_bits = sum(reg.width for reg in design.registers)
    local_bits = sum(
        local.width for proc in design.procedures for local in proc.locals
    )
    # Pipelining registers the intermediate results of the datapath.
    pipeline_ff = int(0.55 * luts)
    flip_flops = register_bits + local_bits + pipeline_ff
    return SynthesisReport(
        name=design.name,
        style="reference",
        flip_flops=int(flip_flops),
        luts=int(luts),
        block_rams=_bram_count(design.memories),
        dsp48=_dsp_count(ops),
        frequency_mhz=1000.0 / max_delay,
    )


def _op_delays(expr: Expr) -> list:
    """Delays of every operator in an expression, reference pipelining:
    constant multipliers count as one registered adder row."""
    delays = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Bin):
            kind = _op_key(node)
            if kind == "mul_const":
                delays.append(REF_PIPELINED_MUL_NS)
            else:
                fixed, per_bit = OP_DELAY_NS[kind]
                delays.append(fixed + per_bit * node.width)
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, MemRef):
            delays.append(OP_DELAY_NS["mem_read"][0])
            stack.append(node.addr)
    return delays


def _two_op_delay(expr: Expr) -> float:
    """Sum of the two deepest operators (handcrafted pipelining level)."""
    delays = sorted(_op_delays(expr), reverse=True)
    return sum(delays[:2])


# -- FOSSY style ------------------------------------------------------------------------


def _retimed_chain(expr: Expr) -> float:
    """Within-state chain after synthesis retiming: the deepest operator
    stays, the remainder of the chain is partially balanced away."""
    chain = _expr_delay(expr)
    deepest = max(_op_delays_raw(expr), default=0.0)
    return deepest + FOSSY_RETIME_FACTOR * max(0.0, chain - deepest)


def _op_delays_raw(expr: Expr) -> list:
    delays = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Bin):
            fixed, per_bit = OP_DELAY_NS[_op_key(node)]
            delays.append(fixed + per_bit * node.width)
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, MemRef):
            delays.append(OP_DELAY_NS["mem_read"][0])
            stack.append(node.addr)
    return delays


def estimate_fossy(fsmd: Fsmd) -> SynthesisReport:
    """Inlined single FSM: shared units behind muxes, big state decode."""
    per_state: list[dict] = []
    max_chain = 0.0
    for state in fsmd.states:
        ops: dict = {}
        for transfer in state.transfers:
            _expr_ops(transfer.expr, ops)
            if isinstance(transfer.dest, MemRef):
                _expr_ops(transfer.dest.addr, ops)
            max_chain = max(max_chain, _retimed_chain(transfer.expr))
        for transition in state.transitions:
            if transition.cond is not None:
                _expr_ops(transition.cond, ops)
                max_chain = max(max_chain, _retimed_chain(transition.cond))
        per_state.append(ops)
    # Shared functional units: as many instances of each (kind, width) as
    # the busiest single state needs; every additional use adds mux inputs.
    instances: dict = {}
    total_uses: dict = {}
    for ops in per_state:
        for key, count in ops.items():
            instances[key] = max(instances.get(key, 0), count)
            total_uses[key] = total_uses.get(key, 0) + count
    luts = _lut_cost(instances)
    mux_levels = 0.0
    for key, shared in instances.items():
        kind, width = key
        if kind == "shift_const":
            continue  # constant shifts are wiring: duplicated, never muxed
        extra_sources = max(0, total_uses[key] - shared)
        luts += LUTS_PER_BIT["mux2"] * width * extra_sources
        if shared:
            sources = total_uses[key] / shared
            mux_levels = max(mux_levels, math.log2(sources) if sources > 1 else 0.0)
    state_bits = max(1, math.ceil(math.log2(max(2, fsmd.num_states))))
    # Next-state and enable decode: ~3.5 LUTs per state of the wide case.
    luts += 3.5 * fsmd.num_states
    register_bits = sum(reg.width for reg in fsmd.registers)
    flip_flops = register_bits + state_bits
    decode_delay = STATE_DECODE_NS_PER_LEVEL * state_bits
    critical_path = FF_OVERHEAD_NS + decode_delay + mux_levels * MUX_STAGE_NS + max_chain
    return SynthesisReport(
        name=fsmd.name,
        style="fossy",
        flip_flops=int(flip_flops),
        luts=int(luts),
        block_rams=_bram_count(fsmd.memories),
        dsp48=_dsp_count(instances),
        frequency_mhz=1000.0 / critical_path,
    )
