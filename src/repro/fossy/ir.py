"""The FSMD intermediate representation of the synthesis flow.

A finite-state machine with datapath: named states holding register
transfers, conditional transitions, registers and memories.  The frontend
elaborates behavioural descriptions into this form; the VHDL backend and
the resource estimator consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .behaviour import Expr, MemRef, Var


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
