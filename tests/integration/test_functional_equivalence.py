"""Seamless refinement preserves function.

Every design version — from the software-only model to the fully mapped
VTA architectures — must decode a real codestream to exactly the output of
the reference decoder.  This is the paper's core methodological claim:
behaviour is untouched by partitioning, parallelisation and communication
refinement.
"""

import pytest

from repro.casestudy import ALL_VERSIONS, functional_workload, run_version


@pytest.fixture(scope="module")
def lossless_workload():
    return functional_workload(True)


@pytest.fixture(scope="module")
def lossy_workload():
    return functional_workload(False)


@pytest.mark.parametrize("version", list(ALL_VERSIONS))
def test_lossless_equivalence(version, lossless_workload):
    report = run_version(version, True, lossless_workload)
    assert report.image is not None
    assert report.image == lossless_workload.reference


@pytest.mark.parametrize("version", list(ALL_VERSIONS))
def test_lossy_equivalence(version, lossy_workload):
    report = run_version(version, False, lossy_workload)
    assert report.image == lossy_workload.reference


def test_lossy_output_close_to_source(lossy_workload):
    """Sanity: the functional pipeline is a real lossy codec, not a copy."""
    from repro.jpeg2000.image import synthetic_image

    source = synthetic_image(64, 64, 3, seed=2008)
    psnr = lossy_workload.reference.psnr(source)
    assert 30.0 < psnr < 80.0


def test_refinement_changes_timing_not_function(lossless_workload):
    """Same output, different times: the whole point of the two layers."""
    app = run_version("3", True, lossless_workload)
    vta = run_version("6a", True, lossless_workload)
    assert app.image == vta.image
    assert vta.decode_ms != app.decode_ms
