import os

import pytest
from hypothesis import settings

from zonotopal.abelian import GList
from zonotopal.corpus import CorpusLimits, corpus

# With CI set, every property test draws the same examples on every run, so
# a workflow result does not depend on one run's random draw.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter):
    """Print one line per acceptance criterion at the end of the run."""
    import sys
    results = []
    for name, mod in sys.modules.items():
        if name.rsplit(".", 1)[-1] == "test_acceptance":
            results = getattr(mod, "RESULTS", [])
            break
    if results:
        terminalreporter.section("acceptance criteria")
        for line in sorted(results):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mixed_corpus():
    """Criterion-4 corpus: 50 lists, d <= 3, torsion allowed.

    Volumes are capped so the d = 3 dimension checks stay at desk scale.
    """
    return corpus(seed=20240, limits=CorpusLimits(max_volume=36), count=50)


_GEOMETRY_LIMITS = CorpusLimits(max_dim=2, max_len=5, max_entry=2,
                                allow_torsion=False, require_pointed=True,
                                max_volume=10)


@pytest.fixture(scope="session")
def geometry_corpus():
    """Pointed torsion-free lists (d <= 2, N <= 5) for the spline identities."""
    return corpus(seed=7321, limits=_GEOMETRY_LIMITS, count=8)


@pytest.fixture(scope="session")
def long_geometry_corpus():
    """The geometry corpus continued to 24 lists; the first 8 are
    `geometry_corpus`."""
    return corpus(seed=7321, limits=_GEOMETRY_LIMITS, count=24)


@pytest.fixture(scope="session")
def unity_corpus():
    """Coloop-free pointed lists: the partition-of-unity identity needs the
    box spline to vanish on the zonotope boundary."""
    limits = CorpusLimits(max_dim=2, max_len=5, max_entry=2,
                          allow_torsion=False, require_pointed=True,
                          max_volume=10, no_coloops=True)
    return corpus(seed=4711, limits=limits, count=8)


@pytest.fixture(scope="session")
def zp_list():
    return GList.from_rows([[1, 0, 1, -1], [0, 1, 1, 1]])


@pytest.fixture(scope="session")
def x124():
    return GList.from_rows([[1, 2, 4]])


@pytest.fixture(scope="session")
def x11():
    return GList.from_rows([[1, 1]])


@pytest.fixture(scope="session")
def x12():
    return GList.from_rows([[1, 2]])
