"""Fast and reference substrates report identical Table 1 values.

The Table 1 versions with pipelines, shared buses, point-to-point links
and guarded Shared-Object calls run under the reference scheduler
(``fast=False``) and under the fast substrate (kernel fast paths plus
channel burst fast-forwarding).  Their reported milliseconds must be
identical in both modes; this asserts values only, never wall clock.
"""

import pytest

from repro.casestudy.explorer import run_version
from repro.kernel import set_default_fast


def _values_in_mode(version: str, fast: bool):
    """``(decode_ms, idwt_ms)`` of both modes of *version* under one substrate."""
    previous = set_default_fast(fast)
    try:
        rows = (run_version(version, lossless=True),
                run_version(version, lossless=False))
    finally:
        set_default_fast(previous)
    return [(row.decode_ms, row.idwt_ms) for row in rows]


@pytest.mark.parametrize("version", ["3", "6a", "6b", "7a", "7b"])
def test_substrate_value_invariance(version):
    assert _values_in_mode(version, fast=True) == _values_in_mode(version, fast=False)
