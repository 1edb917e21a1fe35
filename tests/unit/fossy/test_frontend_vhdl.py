"""Elaboration to FSMD and VHDL emission."""

import pytest

from repro.fossy import (
    Assign,
    Bin,
    Call,
    Const,
    Design,
    ElaborationError,
    For,
    If,
    Procedure,
    Tick,
    Var,
    elaborate,
    emit_fossy_vhdl,
    emit_reference_vhdl,
    line_count,
    lint_vhdl,
)
from repro.fossy.estimate import _expr_ops
from repro.fossy.vhdl import VhdlLintError


def state_operations(fsmd) -> list:
    """Per state, the estimator's (kind, width) -> count census."""
    census = []
    for state in fsmd.states:
        ops: dict = {}
        for transfer in state.transfers:
            _expr_ops(transfer.expr, ops)
        for transition in state.transitions:
            if transition.cond is not None:
                _expr_ops(transition.cond, ops)
        census.append(ops)
    return census


def loop_design():
    i = Var("i", 8)
    acc = Var("acc", 16)
    return Design(
        name="looper",
        registers=[i, acc],
        main=[
            Assign(acc, Const(0, 16)),
            Tick(),
            For(i, Const(0, 8), Const(10, 8), [
                Assign(acc, Bin("+", acc, Const(1, 16), 16)),
                Tick(),
            ]),
        ],
    )


class TestElaboration:
    def test_ticks_create_states(self):
        design = Design(
            name="seq",
            registers=[Var("a", 8)],
            main=[Assign(Var("a", 8), Const(1, 8)), Tick(),
                  Assign(Var("a", 8), Const(2, 8)), Tick()],
        )
        fsmd = elaborate(design)
        # start + 2 tick states + DONE
        assert fsmd.num_states == 4

    def test_loop_structure(self):
        fsmd = elaborate(loop_design())
        heads = [s for s in fsmd.states if "for_i" in s.name]
        assert len(heads) == 1
        head = heads[0]
        # conditional edge into the body, fall-through to the exit
        assert head.transitions[0].cond is not None
        assert head.transitions[1].cond is None

    def test_loop_has_back_edge(self):
        fsmd = elaborate(loop_design())
        head = next(s for s in fsmd.states if "for_i" in s.name)
        back_edges = [
            s.name
            for s in fsmd.states
            for t in s.transitions
            if t.target == head.name and s is not head
        ]
        assert back_edges

    def test_branch_forks_and_joins(self):
        design = Design(
            name="br",
            registers=[Var("a", 8)],
            main=[
                If(Bin(">", Var("a", 8), Const(0, 8), 1),
                   [Assign(Var("a", 8), Const(1, 8)), Tick()],
                   [Assign(Var("a", 8), Const(2, 8)), Tick()]),
            ],
        )
        fsmd = elaborate(design)
        names = [s.name for s in fsmd.states]
        assert any("then" in n for n in names)
        assert any("else" in n for n in names)
        assert any("join" in n for n in names)

    def test_done_state_terminal(self):
        fsmd = elaborate(loop_design())
        done = next(state for state in fsmd.states if state.name == "DONE")
        assert done.transitions[0].target == "DONE"

    def test_calls_must_be_inlined_first(self):
        design = Design(
            name="c",
            procedures=[Procedure("p", body=[Tick()])],
            main=[Call("p")],
        )
        with pytest.raises(ElaborationError, match="inline"):
            elaborate(design)

    def test_operation_census(self):
        fsmd = elaborate(loop_design())
        census = set().union(*state_operations(fsmd))
        assert ("addsub", 16) in census  # the accumulator
        assert ("addsub", 8) in census  # the loop counter
        assert ("compare", 1) in census  # the loop bound


class TestVhdlEmission:
    def test_fossy_vhdl_well_formed(self):
        text = emit_fossy_vhdl(elaborate(loop_design()))
        counts = lint_vhdl(text)
        assert counts["entity"] == 1
        assert counts["case"] == 1
        assert "state_t" in text
        assert "rising_edge(clk)" in text

    def test_reference_vhdl_well_formed(self):
        design = loop_design()
        text = emit_reference_vhdl(design)
        lint_vhdl(text)
        assert "for i_i in" in text  # loops stay loops in handcrafted style

    def test_reference_keeps_procedures(self):
        x = Var("x", 8)
        design = Design(
            name="withproc",
            registers=[Var("r", 8)],
            procedures=[Procedure("helper", params=[x],
                                  body=[Assign(Var("r", 8), x)])],
            main=[Call("helper", [Const(3, 8)])],
        )
        text = emit_reference_vhdl(design)
        assert "procedure helper" in text
        assert "helper(to_signed(3, 8));" in text

    def test_fossy_inlines_everything(self):
        from repro.fossy import inline_design

        x = Var("x", 8)
        design = Design(
            name="flat",
            registers=[Var("r", 8)],
            procedures=[Procedure("helper", params=[x],
                                  body=[Assign(Var("r", 8), x), Tick()])],
            main=[Call("helper", [Const(3, 8)]), Call("helper", [Const(4, 8)])],
        )
        text = emit_fossy_vhdl(elaborate(inline_design(design)))
        assert "procedure" not in text
        lint_vhdl(text)

    def test_identifiers_preserved(self):
        fsmd = elaborate(loop_design())
        text = emit_fossy_vhdl(fsmd)
        assert "acc" in text  # human-readable output, as the paper claims

    def test_memories_become_array_types(self):
        from repro.fossy import MemRef, Memory

        design = Design(
            name="withmem",
            registers=[Var("a", 16)],
            memories=[Memory("buffer_ram", 16, 64)],
            main=[Assign(MemRef("buffer_ram", Const(3, 8), 16), Var("a", 16)), Tick()],
        )
        text = emit_fossy_vhdl(elaborate(design))
        assert "type buffer_ram_t is array (0 to 63)" in text
        lint_vhdl(text)

    def test_line_count_ignores_blanks(self):
        assert line_count("a\n\nb\n  \nc\n") == 3

    def test_lint_catches_imbalance(self):
        with pytest.raises(VhdlLintError):
            lint_vhdl("entity x is\n-- never closed\n")
