"""Elaboration: behavioural descriptions to FSMD.

Statements accumulate into the current state until a control boundary —
a clock ``Tick``, a loop, or a branch — closes it.  Loops become a head
state with a compare transition and a back edge; branches fork on the
condition and re-join.  Within a state, transfers keep their sequential
(VHDL-variable) semantics.

The frontend refuses designs that still contain procedure calls: run
:func:`repro.fossy.inline.inline_design` first — that ordering *is* the
FOSSY flow ("all functions and procedures have been inlined into a single
explicit state machine").
"""

from __future__ import annotations

from typing import Optional

from .behaviour import (
    Assign,
    Bin,
    Call,
    Const,
    Design,
    For,
    If,
    Tick,
)
from .ir import Fsmd, FsmState, Transfer, Transition


class ElaborationError(ValueError):
    """The design cannot be elaborated (e.g. calls not yet inlined)."""


class _Builder:
    def __init__(self, name: str):
        self.fsmd = Fsmd(name=name)
        self._counter = 0
        self.current = self._new_state("start")
        self.fsmd.start_state = self.current.name

    def _new_state(self, label: str) -> FsmState:
        self._counter += 1
        state = FsmState(name=f"s{self._counter:03d}_{label}")
        self.fsmd.states.append(state)
        return state

    def close_into(self, label: str) -> FsmState:
        """End the current state with an unconditional edge to a new one."""
        new_state = self._new_state(label)
        self.current.transitions.append(Transition(new_state.name))
        self.current = new_state
        return new_state

    def emit(self, body) -> None:
        for stmt in body:
            if isinstance(stmt, Assign):
                self.current.transfers.append(Transfer(stmt.dest, stmt.expr))
            elif isinstance(stmt, Tick):
                self.close_into("tick")
            elif isinstance(stmt, For):
                self._emit_for(stmt)
            elif isinstance(stmt, If):
                self._emit_if(stmt)
            elif isinstance(stmt, Call):
                raise ElaborationError(
                    f"procedure call {stmt.name!r} reached the frontend; "
                    "inline the design first (the FOSSY transformation)"
                )
            else:
                raise ElaborationError(f"unknown statement {stmt!r}")

    def _emit_for(self, loop: For) -> None:
        self.current.transfers.append(Transfer(loop.var, loop.start))
        head = self.close_into(f"for_{loop.var.name}")
        body_entry = self._new_state(f"do_{loop.var.name}")
        self.current = body_entry
        self.emit(loop.body)
        # Increment and loop back.
        self.current.transfers.append(
            Transfer(loop.var, Bin("+", loop.var, Const(1, loop.var.width), loop.var.width))
        )
        self.current.transitions.append(Transition(head.name))
        exit_state = self._new_state(f"end_{loop.var.name}")
        head.transitions.append(
            Transition(body_entry.name, Bin("<", loop.var, loop.stop, 1))
        )
        head.transitions.append(Transition(exit_state.name))
        self.current = exit_state

    def _emit_if(self, branch: If) -> None:
        fork = self.current
        then_entry = self._new_state("then")
        self.current = then_entry
        self.emit(branch.then)
        then_exit = self.current
        else_entry: Optional[FsmState] = None
        else_exit: Optional[FsmState] = None
        if branch.orelse:
            else_entry = self._new_state("else")
            self.current = else_entry
            self.emit(branch.orelse)
            else_exit = self.current
        join = self._new_state("join")
        fork.transitions.append(Transition(then_entry.name, branch.cond))
        fork.transitions.append(
            Transition(else_entry.name if else_entry is not None else join.name)
        )
        then_exit.transitions.append(Transition(join.name))
        if else_exit is not None:
            else_exit.transitions.append(Transition(join.name))
        self.current = join


def elaborate(design: Design) -> Fsmd:
    """Build the flat FSMD of a (call-free) design."""
    design.validate()
    builder = _Builder(design.name)
    fsmd = builder.fsmd
    fsmd.inputs = list(design.inputs)
    fsmd.outputs = list(design.outputs)
    fsmd.registers = list(design.registers)
    fsmd.memories = list(design.memories)
    builder.emit(design.main)
    builder.current.transitions.append(Transition("DONE"))
    done = FsmState(name="DONE", transitions=[Transition("DONE")])
    fsmd.states.append(done)
    fsmd.validate()
    return fsmd
