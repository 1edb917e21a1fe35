"""Every shipped example must run to completion (smoke + assertions)."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent.parent / "examples"


def run_example(name, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, tmp_path, capsys):
    out = run_example("quickstart.py", monkeypatch, tmp_path, capsys)
    assert "exact reconstruction" in out
    assert "PSNR" in out


def test_osss_modelling_basics(monkeypatch, tmp_path, capsys):
    out = run_example("osss_modelling_basics.py", monkeypatch, tmp_path, capsys)
    assert "frames processed in order: [0, 1, 2, 3, 4, 5, 6, 7]" in out


def test_seamless_refinement(monkeypatch, tmp_path, capsys):
    out = run_example("seamless_refinement.py", monkeypatch, tmp_path, capsys)
    assert "bit-identical" in out
    assert "MISMATCH" not in out


def test_synthesis_flow(monkeypatch, tmp_path, capsys):
    out = run_example("synthesis_flow.py", monkeypatch, tmp_path, capsys)
    assert "Table 2" in out
    output_dir = tmp_path / "synthesis_output"
    names = {path.name for path in output_dir.iterdir()}
    assert {"system.mhs", "system.mss", "software.c"} <= names
    assert "idwt53_fossy.vhd" in names
    assert "idwt53_tb.vhd" in names
    # The committed hand-off files are exactly what the flow writes.
    committed = EXAMPLES.parent / "synthesis_output"
    assert names == {path.name for path in committed.iterdir()}
    for name in sorted(names):
        assert (output_dir / name).read_bytes() == (
            committed / name
        ).read_bytes(), name


def test_quality_scalability(monkeypatch, tmp_path, capsys):
    out = run_example("quality_scalability.py", monkeypatch, tmp_path, capsys)
    assert "5 quality layers" in out
    assert "1 / 5" in out and "5 / 5" in out


def test_custom_mapping_quick(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "argv", ["custom_mapping.py", "--quick"])
    out = run_example("custom_mapping.py", monkeypatch, tmp_path, capsys)
    assert "spec '7b-2cpu' is valid" in out
    assert "2 cpus" in out
    assert "simulated 7b-2cpu end-to-end" in out


def test_custom_mapping_spec_validates_via_cli(capsys):
    from repro.__main__ import main

    assert main(["validate", str(EXAMPLES / "custom_mapping.py")]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.slow
def test_design_space_exploration(monkeypatch, tmp_path, capsys):
    out = run_example("design_space_exploration.py", monkeypatch, tmp_path, capsys)
    assert "Table 1 (reconstructed)" in out
    assert "IDWT in HW 'speed-up by 12/16'" in out
