"""Times one set-up in a fresh interpreter and prints the seconds.

Usage: python3 benchmark/probe_setup.py <workload> <seed>

The clock covers importing the package, building the workload's feeder and
constructing its configuration: everything a run does before its first
round.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from specs import SPECS, build  # noqa: E402  (imports nothing of the program)


def main() -> None:
    spec = SPECS[sys.argv[1]]
    seed = int(sys.argv[2])
    start = time.perf_counter()
    import gridrestore

    build(gridrestore, spec, seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
