"""Shared benchmark fixtures.

The benchmark suite regenerates every table and figure of the paper's
evaluation (Section VI) on the simulated cluster.  Datasets and matcher
caches are session-scoped: the first run of a dataset pays for the real
similarity computations, subsequent runs hit the per-pair cache, so a
whole figure's sweep stays fast while remaining bit-for-bit deterministic.

Every bench is an ordinary test.  Reports are printed straight to the
terminal (bypassing capture), so

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e -q

runs them all and shows the paper-style tables.
"""

from __future__ import annotations

import pytest

from repro.data import Dataset, make_books, make_citeseer, make_skewed
from repro.similarity import books_matcher, citeseer_matcher


#: Benchmark workload scales.  The paper runs 1.5M/30M entities on a
#: 25-machine Hadoop cluster; the simulator reproduces the curve shapes at
#: laptop scale (see DESIGN.md's substitution table).
CITESEER_SCALE = 2000
BOOKS_SCALE = 3000


@pytest.fixture(scope="session")
def citeseer_dataset() -> Dataset:
    """CiteSeerX-like workload (Sections VI-B1 / VI-B2)."""
    return make_citeseer(CITESEER_SCALE, seed=7)


@pytest.fixture(scope="session")
def books_dataset() -> Dataset:
    """OL-Books-like workload (Sections VI-B3 / VI-B4)."""
    return make_books(BOOKS_SCALE, seed=11)


@pytest.fixture(scope="session")
def skewed_dataset() -> Dataset:
    """Hub-skewed workload for the load-balancing benchmark."""
    return make_skewed(1200, seed=5, hub_fraction=0.6)


@pytest.fixture(scope="session")
def citeseer_cached_matcher():
    """One caching matcher per session: every citeseer run shares pairs."""
    return citeseer_matcher(cache=True)


@pytest.fixture(scope="session")
def books_cached_matcher():
    """One caching matcher per session for the books workload."""
    return books_matcher(cache=True)


@pytest.fixture(scope="session")
def skewed_cached_matcher():
    """One caching matcher per session for the skewed workload (the
    skewed family reuses the citeseer similarity functions)."""
    return citeseer_matcher(cache=True)


@pytest.fixture()
def report(capsys):
    """Print a benchmark report to the real terminal, capture or not."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _report
