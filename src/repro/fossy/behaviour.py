"""The synthesisable behavioural description language.

This is our stand-in for "synthesisable SystemC/OSSS": a small structured
AST — expressions, assignments, loops, branches, clock ticks, procedure
calls — rich enough to describe the IDWT hardware exactly as the paper's
models do ("both use explicit state machines and functions and procedures
to separate the more complex filter algorithms from the control dominated
part").

Two consumers exist: the *reference* path emits it as handcrafted-style
VHDL with the procedures preserved, and the *FOSSY* path elaborates it to
a flat FSMD (``frontend`` + ``inline``) before emitting VHDL where "all
functions and procedures have been inlined into a single explicit state
machine".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

# -- expressions ----------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: int
    width: int = 32

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    """A register or local variable reference."""

    name: str
    width: int = 32

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MemRef:
    """An element of a memory: ``mem[addr]``."""

    mem: str
    addr: "Expr"
    width: int = 32

    def __str__(self) -> str:
        return f"{self.mem}[{self.addr}]"


@dataclass(frozen=True)
class Bin:
    """Binary operation; ``op`` in + - * >> << & | = /= < <= > >=."""

    op: str
    left: "Expr"
    right: "Expr"
    width: int = 32

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Expr = Union[Const, Var, MemRef, Bin]

#: Operators that map to comparison logic.
COMPARE_OPS = frozenset({"=", "/=", "<", "<=", ">", ">="})
#: Operators that map to arithmetic resources.
ARITH_OPS = frozenset({"+", "-", "*", ">>", "<<", "&", "|"})


# -- statements -----------------------------------------------------------------


@dataclass
class Assign:
    dest: Union[Var, MemRef]
    expr: Expr


@dataclass
class Tick:
    """A clock-cycle boundary (``wait()`` in the SystemC model)."""


@dataclass
class For:
    """Counted loop: ``for var in start .. stop-1``."""

    var: Var
    start: Expr
    stop: Expr
    body: list


@dataclass
class If:
    cond: Expr
    then: list
    orelse: list = field(default_factory=list)


@dataclass
class Call:
    """Invocation of a procedure, positional argument binding."""

    name: str
    args: list = field(default_factory=list)


Stmt = Union[Assign, Tick, For, If, Call]


@dataclass
class Procedure:
    """A named sub-behaviour with value parameters and locals."""

    name: str
    params: list = field(default_factory=list)  # list[Var]
    locals: list = field(default_factory=list)  # list[Var]
    body: list = field(default_factory=list)  # list[Stmt]


@dataclass
class Memory:
    """An on-chip memory (maps to block RAM)."""

    name: str
    width: int
    depth: int


@dataclass
class Design:
    """A synthesisable hardware design: ports, storage, procedures, main."""

    name: str
    inputs: list = field(default_factory=list)  # list[Var]
    outputs: list = field(default_factory=list)  # list[Var]
    registers: list = field(default_factory=list)  # list[Var]
    memories: list = field(default_factory=list)  # list[Memory]
    procedures: list = field(default_factory=list)  # list[Procedure]
    main: list = field(default_factory=list)  # list[Stmt]

    def procedure(self, name: str) -> Procedure:
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(f"design {self.name!r} has no procedure {name!r}")

    def validate(self) -> None:
        names = [proc.name for proc in self.procedures]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate procedure names in design {self.name!r}")
        for proc in self.procedures:
            for stmt in walk_statements(proc.body):
                if isinstance(stmt, Call):
                    self.procedure(stmt.name)  # raises if missing
        for stmt in walk_statements(self.main):
            if isinstance(stmt, Call):
                self.procedure(stmt.name)


def walk_statements(body: Sequence[Stmt]):
    """Yield every statement in a body, recursively."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, For):
            yield from walk_statements(stmt.body)
        elif isinstance(stmt, If):
            yield from walk_statements(stmt.then)
            yield from walk_statements(stmt.orelse)


def count_statements(body: Sequence[Stmt]) -> int:
    """Total statement count (a proxy for source LoC)."""
    return sum(1 for _ in walk_statements(body))
