"""Repository-wide test fixtures.

The run ledger appends to ``.repro/ledger.jsonl`` under the current
directory by default; tests must never write provenance records into
the developer's working tree, so every test gets a throwaway ledger
path (tests that want to *read* what their command appended read the
same path back via the environment).
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path_factory, monkeypatch):
    # A directory of its own, NOT the test's tmp_path: tests assert
    # things about their tmp_path's contents and must not find our
    # ledger there.
    base = tmp_path_factory.mktemp("observability")
    monkeypatch.setenv("REPRO_LEDGER_PATH", str(base / "ledger.jsonl"))
    monkeypatch.setenv("REPRO_CRASH_DIR", str(base / "crash"))


@pytest.fixture(scope="session")
def pool_workers():
    """``pool_workers(n)``: the worker count a batch the runner sends to
    a pool of *n* reports on this host — *n* where a process pool can
    run, else 1 (the runner's in-process fallback on hosts without
    semaphores or fork)."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            pool.submit(int).result()
    except (ImportError, NotImplementedError, OSError, BrokenProcessPool):
        return lambda requested: 1
    return lambda requested: requested
