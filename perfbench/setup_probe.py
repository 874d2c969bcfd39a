"""Time a workload's set-up, repeated, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <checkout root> <workload> <seed> <scratch prefix> <repeats>

numpy and the scipy modules qreflect uses are imported first, off the clock:
they are most of a cold start, they are not the program's work, and on a
shared machine their import time swings by half between runs. Each repeat
then drops qreflect from ``sys.modules`` and times ``import qreflect`` plus
the workload's potential or table construction, followed by one sample of the
``definitions`` calibration reference. Prints one line per repeat: set-up
seconds and reference seconds.
"""

import sys
import time

import numpy  # noqa: F401
import scipy.integrate  # noqa: F401
import scipy.interpolate  # noqa: F401
import scipy.optimize  # noqa: F401

import calibration
from workloads import WORKLOADS


def main() -> int:
    root, name, seed, scratch, repeats = sys.argv[1:6]
    sys.path.insert(0, f"{root}/src")
    # qreflect's bytecode goes to a cache of this probe's own, written by the
    # first repeat and read by the rest, whatever the checkout holds and
    # whatever PYTHONDONTWRITEBYTECODE says: a set-up loads bytecode, it does
    # not compile the package
    sys.pycache_prefix = f"{scratch}-pycache"
    sys.dont_write_bytecode = False
    workload = WORKLOADS[name](int(seed), scratch)
    for _ in range(int(repeats)):
        for module in [m for m in sys.modules if m.partition(".")[0] == "qreflect"]:
            del sys.modules[module]
        start = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        calibration.definitions()
        print(repr(end - start), repr(time.perf_counter() - end))
    return 0


if __name__ == "__main__":
    sys.exit(main())
