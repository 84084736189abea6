import ctypes
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gridrestore import builtin_feeder


def _openblas_core():
    """The kernel a bundled DYNAMIC_ARCH OpenBLAS chose at run time, when the
    library exports a ``*get_corename*`` function; else None."""
    root = Path(np.__file__).parent
    for lib in [*(root.parent / "numpy.libs").glob("*openblas*"),
                *(root / ".dylibs").glob("*openblas*")]:
        data = lib.read_bytes()
        k = data.find(b"get_corename")
        while k >= 0:  # symbol names are NUL-terminated strings
            name = data[data.rfind(b"\0", 0, k) + 1: data.find(b"\0", k)]
            corename = getattr(ctypes.CDLL(str(lib)), name.decode(errors="replace"), None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
            k = data.find(b"get_corename", k + 1)
    return None


def _source_lines():
    """Lines in the package's Python files under ``src/``, counted as ``wc -l`` counts."""
    src = Path(__file__).parent.parent / "src"
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def pytest_report_header(config):
    # The golden digests, the stacked learner's padding exactness and its
    # bootstrap tables were measured with one BLAS build and run-time kernel;
    # name both so a failure elsewhere can be read. The source line count
    # shows the package's size against its line budget in every run.
    lines = f"src/ {_source_lines():,} lines"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        return f"numpy {np.__version__}; BLAS not reported; {lines}"
    core = _openblas_core()
    return (f"numpy {np.__version__}; BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration reported')})"
            + (f"; runtime core {core}" if core else "") + f"; {lines}")


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
