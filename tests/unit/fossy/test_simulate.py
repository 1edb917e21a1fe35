"""FSMD interpretation: the synthesis models actually compute the IDWT.

These tests execute the *elaborated state machines* — the same objects the
VHDL emitter prints — and compare their results against the numpy
reference transforms.  Functional equivalence of the generated hardware is
the strongest claim a synthesis-flow reproduction can make.
"""

import numpy as np
import pytest

from repro.fossy import (
    Assign,
    Bin,
    Const,
    Design,
    For,
    If,
    MemRef,
    Memory,
    Tick,
    Var,
    build_idwt53,
    build_idwt97,
    elaborate,
    inline_design,
)
from repro.fossy.simulate import FsmdSimulator, SimulationLimit
from repro.jpeg2000 import dwt


def mallat_layout(subbands, size):
    """Pack a 2-level decomposition into the in-RAM Mallat layout."""
    image = np.zeros((size, size))
    half, quarter = size // 2, size // 4
    image[0:quarter, 0:quarter] = subbands.ll
    coarse, fine = subbands.levels[1], subbands.levels[0]
    image[0:quarter, quarter:half] = coarse["HL"]
    image[quarter:half, 0:quarter] = coarse["LH"]
    image[quarter:half, quarter:half] = coarse["HH"]
    image[0:half, half:size] = fine["HL"]
    image[half:size, 0:half] = fine["LH"]
    image[half:size, half:size] = fine["HH"]
    return image


def run_idwt_fsmd(build_fn, coefficients, size, levels):
    fsmd = elaborate(inline_design(build_fn()))
    simulator = FsmdSimulator(
        fsmd, inputs={"tile_w": size, "tile_h": size, "num_levels": levels}
    )
    simulator.load_memory("tile_ram", coefficients.flatten())
    cycles = simulator.run()
    out = np.array(simulator.dump_memory("tile_ram", size * size))
    return out.reshape(size, size), cycles


class TestInterpreterBasics:
    def test_counter_machine(self):
        i = Var("i", 8)
        acc = Var("acc", 16)
        design = Design(
            name="count",
            registers=[i, acc],
            main=[
                Assign(acc, Const(0, 16)),
                Tick(),
                For(i, Const(0, 8), Const(10, 8), [
                    Assign(acc, Bin("+", acc, i, 16)),
                    Tick(),
                ]),
            ],
        )
        simulator = FsmdSimulator(elaborate(design))
        simulator.run()
        assert simulator.registers["acc"] == sum(range(10))

    def test_branching_machine(self):
        a = Var("a", 8)
        design = Design(
            name="branch",
            registers=[a],
            main=[
                Assign(a, Const(5, 8)),
                Tick(),
                If(Bin(">", a, Const(3, 8), 1),
                   [Assign(a, Const(1, 8))],
                   [Assign(a, Const(2, 8))]),
            ],
        )
        simulator = FsmdSimulator(elaborate(design))
        simulator.run()
        assert simulator.registers["a"] == 1

    def test_memory_machine(self):
        k = Var("k", 8)
        design = Design(
            name="mem",
            registers=[k],
            memories=[Memory("ram", 16, 16)],
            main=[
                For(k, Const(0, 8), Const(8, 8), [
                    Assign(MemRef("ram", k, 16), Bin("*", k, k, 16)),
                    Tick(),
                ]),
            ],
        )
        simulator = FsmdSimulator(elaborate(design))
        simulator.run()
        assert simulator.dump_memory("ram", 8) == [x * x for x in range(8)]

    def test_cycle_limit_raises(self):
        a = Var("a", 8)
        design = Design(
            name="forever",
            registers=[a],
            main=[
                For(a, Const(0, 8), Const(100, 8), [
                    Assign(a, Const(0, 8)),  # the counter never advances
                    Tick(),
                ]),
            ],
        )
        simulator = FsmdSimulator(elaborate(design))
        with pytest.raises(SimulationLimit):
            simulator.run(max_cycles=1000)

    def test_unknown_input_rejected(self):
        design = Design(name="d", registers=[Var("a", 8)], main=[Tick()])
        with pytest.raises(KeyError):
            FsmdSimulator(elaborate(design), inputs={"missing": 1})

    def test_memory_bounds_checked(self):
        design = Design(
            name="oob",
            registers=[Var("a", 16)],
            memories=[Memory("ram", 16, 4)],
            main=[Assign(Var("a", 16), MemRef("ram", Const(9, 8), 16)), Tick()],
        )
        simulator = FsmdSimulator(elaborate(design))
        with pytest.raises(IndexError):
            simulator.run()


class TestIdwt53Machine:
    """The headline check: FOSSY's inlined FSM computes the exact IDWT."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_two_level_8x8_exact(self, seed):
        rng = np.random.default_rng(seed)
        tile = rng.integers(-100, 100, (8, 8))
        subbands = dwt.forward(tile, "5/3", 2)
        coefficients = mallat_layout(subbands, 8).astype(int)
        out, cycles = run_idwt_fsmd(build_idwt53, coefficients, 8, 2)
        assert np.array_equal(out, tile)
        assert cycles > 0

    def test_single_level_16x16_exact(self):
        rng = np.random.default_rng(3)
        tile = rng.integers(-128, 128, (16, 16))
        subbands = dwt.forward(tile, "5/3", 1)
        image = np.zeros((16, 16))
        image[0:8, 0:8] = subbands.ll
        image[0:8, 8:16] = subbands.levels[0]["HL"]
        image[8:16, 0:8] = subbands.levels[0]["LH"]
        image[8:16, 8:16] = subbands.levels[0]["HH"]
        out, _ = run_idwt_fsmd(build_idwt53, image.astype(int), 16, 1)
        assert np.array_equal(out, tile)

    def test_cycle_count_scales_with_area(self):
        rng = np.random.default_rng(5)
        small = dwt.forward(rng.integers(-10, 10, (8, 8)), "5/3", 1)
        big = dwt.forward(rng.integers(-10, 10, (16, 16)), "5/3", 1)

        def pack(subbands, size):
            image = np.zeros((size, size))
            half = size // 2
            image[0:half, 0:half] = subbands.ll
            image[0:half, half:] = subbands.levels[0]["HL"]
            image[half:, 0:half] = subbands.levels[0]["LH"]
            image[half:, half:] = subbands.levels[0]["HH"]
            return image.astype(int)

        _, cycles_small = run_idwt_fsmd(build_idwt53, pack(small, 8), 8, 1)
        _, cycles_big = run_idwt_fsmd(build_idwt53, pack(big, 16), 16, 1)
        assert cycles_big == pytest.approx(4 * cycles_small, rel=0.35)


class TestIdwt97Machine:
    def test_fixed_point_accuracy(self):
        rng = np.random.default_rng(9)
        tile = rng.integers(-100, 100, (8, 8)).astype(float)
        subbands = dwt.forward(tile, "9/7", 2)
        coefficients = np.rint(mallat_layout(subbands, 8)).astype(int)
        out, _ = run_idwt_fsmd(build_idwt97, coefficients, 8, 2)
        # Fixed-point lifting with an integer line buffer: a few LSBs of
        # drift per cascade is the expected hardware behaviour.
        assert np.abs(out - tile).max() <= 8
        assert np.abs(out - tile).mean() < 2.0

    def test_zero_coefficients_give_zero_image(self):
        out, _ = run_idwt_fsmd(build_idwt97, np.zeros((8, 8), dtype=int), 8, 2)
        assert np.all(out == 0)

    def test_busy_flag_deasserted_at_done(self):
        fsmd = elaborate(inline_design(build_idwt97()))
        simulator = FsmdSimulator(
            fsmd, inputs={"tile_w": 8, "tile_h": 8, "num_levels": 1}
        )
        simulator.run()
        assert simulator.registers["busy_flag"] == 0


class TestTestbenchGeneration:
    def test_idwt53_testbench(self):
        import numpy as np

        from repro.fossy import TestbenchSpec, generate_testbench

        rng = np.random.default_rng(2)
        tile = rng.integers(-50, 50, (8, 8))
        subbands = dwt.forward(tile, "5/3", 2)
        coefficients = mallat_layout(subbands, 8).astype(int)
        fsmd = elaborate(inline_design(build_idwt53()))
        spec = TestbenchSpec(
            inputs={"tile_w": 8, "tile_h": 8, "num_levels": 2},
            memory_loads={"tile_ram": coefficients.flatten().tolist()},
            check_memories={"tile_ram": 64},
        )
        text = generate_testbench(fsmd, spec)
        assert "entity idwt53_tb is" in text
        assert "entity work.idwt53" in text
        assert "wait until done = '1'" in text
        assert "tile_w <= to_signed(8, " in text
        # the memory oracle must contain the true inverse-transform values
        for value in tile.flatten()[:8]:
            assert str(value) in text
