import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gridrestore import builtin_feeder


def pytest_report_header(config):
    # The golden digests and the stacked learner's padding exactness were
    # measured with one BLAS build; name it so a failure elsewhere can be read.
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return f"numpy {np.__version__}; BLAS not reported"
    return (f"numpy {np.__version__}; BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration reported')})")


@pytest.fixture(scope="session")
def ieee13():
    return builtin_feeder("ieee13")


@pytest.fixture(scope="session")
def ieee123():
    return builtin_feeder("ieee123")


@pytest.fixture
def fresh_feeder():
    """``builtin_feeder`` for tests that count solves or page fills.

    The session feeders above carry the verdict pages every earlier test
    filled, so a count on them would depend on test order. A feeder object
    built here has no pages, and the test holds its only reference.
    """
    return builtin_feeder
