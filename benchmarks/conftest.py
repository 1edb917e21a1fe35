"""Shared benchmark fixtures: the results directory and table output."""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def engine():
    """The shared experiment runner every benchmark goes through.

    Results come from the content-addressed cache when the matrix cell
    is unchanged; the per-test ``benchmark`` timings measure raw
    (uncached) request execution instead, so the recorded numbers stay
    meaningful on a warm cache.
    """
    from repro.experiments import ResultCache, Runner

    return Runner(cache=ResultCache())


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a reconstructed table and persist it under results/."""

    def _emit(table, stem):
        text = table.render()
        print("\n" + text)
        table.write(results_dir / f"{stem}.txt", results_dir / f"{stem}.csv")
        return text

    return _emit
