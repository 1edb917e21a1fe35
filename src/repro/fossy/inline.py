"""The FOSSY transformation: procedure inlining.

Every call site is replaced by a renamed copy of the procedure body, with
parameters substituted by the call arguments.  Locals get a unique
call-site prefix ("since all identifiers are preserved during synthesis
the resulting VHDL code remains human readable" — paper, section 4).  The
result is a call-free design whose elaboration yields one explicit state
machine; the code-size blow-up of Table 2's LoC comparison (404 -> 2231
and 948 -> 4225 lines for the two IDWTs) is a direct consequence of this
duplication.
"""

from __future__ import annotations

import itertools
from typing import Union

from .behaviour import (
    Assign,
    Bin,
    Call,
    Design,
    Expr,
    For,
    If,
    MemRef,
    Tick,
    Var,
)


class InlineError(ValueError):
    """Recursive or unresolvable call structure."""


def substitute(expr: Expr, mapping: dict) -> Expr:
    """Replace variables by mapped expressions (call-argument binding)."""
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Bin):
        return Bin(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping), expr.width)
    if isinstance(expr, MemRef):
        return MemRef(expr.mem, substitute(expr.addr, mapping), expr.width)
    return expr


def _substitute_dest(dest: Union[Var, MemRef], mapping: dict) -> Union[Var, MemRef]:
    if isinstance(dest, Var):
        replaced = mapping.get(dest.name, dest)
        if not isinstance(replaced, Var):
            raise InlineError(
                f"cannot assign through parameter {dest.name!r} bound to an expression"
            )
        return replaced
    return MemRef(dest.mem, substitute(dest.addr, mapping), dest.width)


def _rewrite(body: list, mapping: dict) -> list:
    out = []
    for stmt in body:
        if isinstance(stmt, Assign):
            out.append(Assign(_substitute_dest(stmt.dest, mapping), substitute(stmt.expr, mapping)))
        elif isinstance(stmt, Tick):
            out.append(Tick())
        elif isinstance(stmt, For):
            var = mapping.get(stmt.var.name, stmt.var)
            out.append(
                For(
                    var,
                    substitute(stmt.start, mapping),
                    substitute(stmt.stop, mapping),
                    _rewrite(stmt.body, mapping),
                )
            )
        elif isinstance(stmt, If):
            out.append(
                If(
                    substitute(stmt.cond, mapping),
                    _rewrite(stmt.then, mapping),
                    _rewrite(stmt.orelse, mapping),
                )
            )
        elif isinstance(stmt, Call):
            out.append(Call(stmt.name, [substitute(arg, mapping) for arg in stmt.args]))
        else:
            raise InlineError(f"unknown statement {stmt!r}")
    return out


class _Inliner:
    def __init__(self, design: Design):
        self.design = design
        self.new_registers: list[Var] = []
        self._site = itertools.count(1)
        self._stack: list[str] = []

    def expand(self, body: list) -> list:
        out = []
        for stmt in body:
            if isinstance(stmt, Call):
                out.extend(self._expand_call(stmt))
            elif isinstance(stmt, For):
                out.append(For(stmt.var, stmt.start, stmt.stop, self.expand(stmt.body)))
            elif isinstance(stmt, If):
                out.append(If(stmt.cond, self.expand(stmt.then), self.expand(stmt.orelse)))
            else:
                out.append(stmt)
        return out

    def _expand_call(self, call: Call) -> list:
        if call.name in self._stack:
            raise InlineError(
                f"recursive call chain {' -> '.join(self._stack)} -> {call.name}; "
                "recursion is not synthesisable"
            )
        proc = self.design.procedure(call.name)
        if len(call.args) != len(proc.params):
            raise InlineError(
                f"call to {call.name!r} passes {len(call.args)} arguments, "
                f"expected {len(proc.params)}"
            )
        site = next(self._site)
        prefix = f"{call.name}_i{site}"
        mapping: dict[str, Expr] = {}
        for param, arg in zip(proc.params, call.args):
            mapping[param.name] = arg
        for local in proc.locals:
            renamed = Var(f"{prefix}_{local.name}", local.width)
            mapping[local.name] = renamed
            self.new_registers.append(renamed)
        self._stack.append(call.name)
        expanded = self.expand(_rewrite(proc.body, mapping))
        self._stack.pop()
        return expanded


def inline_design(design: Design) -> Design:
    """Return a call-free copy of *design* (the FOSSY transformation)."""
    design.validate()
    inliner = _Inliner(design)
    main = inliner.expand(design.main)
    return Design(
        name=design.name,
        inputs=list(design.inputs),
        outputs=list(design.outputs),
        registers=list(design.registers) + inliner.new_registers,
        memories=list(design.memories),
        procedures=[],
        main=main,
    )
