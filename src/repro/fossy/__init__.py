"""``repro.fossy`` — the FOSSY synthesis flow reproduction.

The paper's contribution, part 3: automatic transformation of VTA models
into implementation models.  A behavioural hardware description
(:mod:`behaviour`) is inlined (:mod:`inline` — the FOSSY transformation),
elaborated to an FSMD (:mod:`frontend`, :mod:`ir`), emitted as VHDL in
both the handcrafted-reference and single-FSM styles (:mod:`vhdl`),
estimated against a Virtex-4 (:mod:`estimate`), and packaged with EDK
platform files (:mod:`platform_files`) and C for the software tasks
(:mod:`c_backend`).  The IDWT53/IDWT97 models of Table 2 live in
:mod:`idwt53` / :mod:`idwt97`; :mod:`flow` drives everything.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Assign": ".behaviour",
    "Bin": ".behaviour",
    "BlockResult": ".flow",
    "Call": ".behaviour",
    "Const": ".behaviour",
    "Design": ".behaviour",
    "ElaborationError": ".frontend",
    "For": ".behaviour",
    "FsmState": ".ir",
    "Fsmd": ".ir",
    "FsmdSimulator": ".simulate",
    "HardwareBlockSpec": ".platform_files",
    "If": ".behaviour",
    "InlineError": ".inline",
    "MemRef": ".behaviour",
    "Memory": ".behaviour",
    "Procedure": ".behaviour",
    "SimulationLimit": ".simulate",
    "SynthesisReport": ".estimate",
    "SystemResult": ".flow",
    "TestbenchSpec": ".testbench",
    "Tick": ".behaviour",
    "Transfer": ".ir",
    "Transition": ".ir",
    "Var": ".behaviour",
    "VhdlLintError": ".vhdl",
    "build_idwt53": ".idwt53",
    "build_idwt97": ".idwt97",
    "count_statements": ".behaviour",
    "elaborate": ".frontend",
    "emit_fossy_vhdl": ".vhdl",
    "emit_mhs": ".platform_files",
    "emit_mss": ".platform_files",
    "emit_reference_vhdl": ".vhdl",
    "estimate_fossy": ".estimate",
    "estimate_reference": ".estimate",
    "generate_testbench": ".testbench",
    "inline_design": ".inline",
    "line_count": ".vhdl",
    "lint_vhdl": ".vhdl",
    "synthesise_block": ".flow",
    "synthesise_system": ".flow",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
