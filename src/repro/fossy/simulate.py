"""FSMD interpretation: execute elaborated state machines functionally.

The synthesis flow's credibility rests on the FSMDs actually computing
what the behavioural models describe.  This interpreter runs an
elaborated :class:`~repro.fossy.ir.Fsmd` — sequential transfers within a
state (VHDL-variable semantics, exactly as the emitter writes them),
priority-ordered conditional transitions — so tests can drive the
generated IDWT machines against the numpy reference transforms.

Values are plain Python integers (VHDL ``signed`` with enough headroom in
the chosen widths); shifts are arithmetic, matching ``numeric_std``.
"""

from __future__ import annotations

from typing import Optional

from .behaviour import Bin, Const, Expr, MemRef, Var
from .ir import Fsmd


class SimulationLimit(RuntimeError):
    """The machine did not reach DONE within the step budget."""


class FsmdSimulator:
    """Interprets one FSMD over register/memory state."""

    def __init__(self, fsmd: Fsmd, inputs: Optional[dict] = None):
        self.fsmd = fsmd
        self.registers: dict[str, int] = {reg.name: 0 for reg in fsmd.registers}
        for port in fsmd.inputs:
            self.registers[port.name] = 0
        for port in fsmd.outputs:
            self.registers.setdefault(port.name, 0)
        if inputs:
            for name, value in inputs.items():
                if name not in self.registers:
                    raise KeyError(f"unknown input {name!r}")
                self.registers[name] = int(value)
        self.memories: dict[str, list] = {
            mem.name: [0] * mem.depth for mem in fsmd.memories
        }
        self.state = fsmd.start_state
        self.cycles = 0
        self._states = {state.name: state for state in fsmd.states}

    # -- expression evaluation ---------------------------------------------------

    def eval(self, expr: Expr) -> int:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            try:
                return self.registers[expr.name]
            except KeyError:
                raise KeyError(
                    f"state {self.state!r} reads undefined name {expr.name!r}"
                ) from None
        if isinstance(expr, MemRef):
            memory = self.memories[expr.mem]
            address = self.eval(expr.addr)
            if not 0 <= address < len(memory):
                raise IndexError(
                    f"state {self.state!r}: {expr.mem}[{address}] out of range "
                    f"0..{len(memory) - 1}"
                )
            return memory[address]
        if isinstance(expr, Bin):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            return self._apply(expr.op, left, right)
        raise TypeError(f"cannot evaluate {expr!r}")

    @staticmethod
    def _apply(op: str, left: int, right: int) -> int:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == ">>":
            return left >> right
        if op == "<<":
            return left << right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "=":
            return int(left == right)
        if op == "/=":
            return int(left != right)
        if op == "<":
            return int(left < right)
        if op == "<=":
            return int(left <= right)
        if op == ">":
            return int(left > right)
        if op == ">=":
            return int(left >= right)
        raise ValueError(f"unknown operator {op!r}")

    # -- execution ----------------------------------------------------------------

    def step(self) -> None:
        """Execute the current state's transfers and take a transition."""
        state = self._states[self.state]
        for transfer in state.transfers:
            value = self.eval(transfer.expr)
            dest = transfer.dest
            if isinstance(dest, Var):
                self.registers[dest.name] = value
            else:
                memory = self.memories[dest.mem]
                address = self.eval(dest.addr)
                if not 0 <= address < len(memory):
                    raise IndexError(
                        f"state {self.state!r}: write {dest.mem}[{address}] "
                        f"out of range 0..{len(memory) - 1}"
                    )
                memory[address] = value
        next_state = None
        for transition in state.transitions:
            if transition.cond is None or self.eval(transition.cond):
                next_state = transition.target
                break
        if next_state is None:
            raise SimulationLimit(f"state {self.state!r} has no enabled transition")
        self.state = next_state
        self.cycles += 1

    @property
    def done(self) -> bool:
        return self.state == "DONE"

    def run(self, max_cycles: int = 5_000_000) -> int:
        """Run to DONE; returns the consumed cycle count."""
        while not self.done:
            if self.cycles >= max_cycles:
                raise SimulationLimit(
                    f"{self.fsmd.name}: no DONE after {max_cycles} cycles "
                    f"(stuck near state {self.state!r})"
                )
            self.step()
        return self.cycles

    # -- convenience for memory-mapped data ------------------------------------------

    def load_memory(self, name: str, values) -> None:
        memory = self.memories[name]
        for offset, value in enumerate(values):
            memory[offset] = int(value)

    def dump_memory(self, name: str, count: int) -> list:
        return list(self.memories[name][:count])
