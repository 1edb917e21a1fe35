"""The FSMD intermediate representation of the synthesis flow.

A finite-state machine with datapath: named states holding register
transfers, conditional transitions, registers and memories.  The frontend
elaborates behavioural descriptions into this form; the VHDL backend and
the resource estimator consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .behaviour import (
    ARITH_OPS,
    Bin,
    COMPARE_OPS,
    Const,
    Expr,
    MemRef,
    Memory,
    Var,
    walk_expr,
)


@dataclass
class Transfer:
    """One register transfer executed in a state."""

    dest: Union[Var, MemRef]
    expr: Expr


@dataclass
class Transition:
    """Conditional next-state edge (``cond`` None = unconditional)."""

    target: str
    cond: Optional[Expr] = None


@dataclass
class FsmState:
    name: str
    transfers: list = field(default_factory=list)  # list[Transfer]
    transitions: list = field(default_factory=list)  # list[Transition]


@dataclass
class Fsmd:
    """A complete machine: interface, storage, and the state graph."""

    name: str
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    registers: list = field(default_factory=list)
    memories: list = field(default_factory=list)
    states: list = field(default_factory=list)  # list[FsmState]
    start_state: str = ""

    def state(self, name: str) -> FsmState:
        for state in self.states:
            if state.name == name:
                return state
        raise KeyError(f"FSMD {self.name!r} has no state {name!r}")

    @property
    def num_states(self) -> int:
        return len(self.states)

    def validate(self) -> None:
        names = {state.name for state in self.states}
        if len(names) != len(self.states):
            raise ValueError(f"duplicate state names in {self.name!r}")
        if self.start_state not in names:
            raise ValueError(f"start state {self.start_state!r} missing in {self.name!r}")
        for state in self.states:
            for transition in state.transitions:
                if transition.target not in names and transition.target != "DONE":
                    raise ValueError(
                        f"state {state.name!r} jumps to unknown state "
                        f"{transition.target!r}"
                    )

    # -- analysis used by the estimator --------------------------------------------

    def operations_per_state(self) -> dict:
        """state name -> counter of (op kind, width) datapath operations."""
        result = {}
        for state in self.states:
            ops: dict[tuple[str, int], int] = {}
            for transfer in state.transfers:
                _count_expr_ops(transfer.expr, ops)
                if isinstance(transfer.dest, MemRef):
                    ops[("mem_write", transfer.dest.width)] = (
                        ops.get(("mem_write", transfer.dest.width), 0) + 1
                    )
                    _count_expr_ops(transfer.dest.addr, ops)
            for transition in state.transitions:
                if transition.cond is not None:
                    _count_expr_ops(transition.cond, ops)
            result[state.name] = ops
        return result

    def register_bits(self) -> int:
        return sum(reg.width for reg in self.registers)


def _count_expr_ops(expr: Expr, ops: dict) -> None:
    for node in walk_expr(expr):
        if isinstance(node, Bin):
            has_const = isinstance(node.left, Const) or isinstance(node.right, Const)
            if node.op in COMPARE_OPS:
                key = ("compare", node.width)
            elif node.op == "*":
                key = ("mul_const" if has_const else "mul", node.width)
            elif node.op in (">>", "<<"):
                const_amount = isinstance(node.right, Const)
                key = ("shift_const" if const_amount else "shift_var", node.width)
            elif node.op in ("&", "|"):
                key = ("logic", node.width)
            else:
                key = ("addsub", node.width)
            ops[key] = ops.get(key, 0) + 1
        elif isinstance(node, MemRef):
            key = ("mem_read", node.width)
            ops[key] = ops.get(key, 0) + 1
