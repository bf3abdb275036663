"""Reference work that measures how fast the host is at a given moment.

Timings on a shared host drift: a fixed pure-Python loop has been seen to
take anywhere from 0.44 s to 0.90 s within one minute on a 2-vCPU virtual
machine.  The runner therefore times a reference between cycles of
operations and reports each operation's time scaled to a nominal reference
time (see README.md, "Calibrated timings").  Neither reference runs any
vdplin code, so a change to vdplin cannot move them.
"""

import subprocess
import sys
from time import perf_counter

# nominal reference times: the calibrated figures are seconds on a host
# where the references take this long
KERNEL_NOMINAL_S = 0.010
IMPORT_NOMINAL_S = 0.600


def python_kernel() -> int:
    """Interpreter work: integer arithmetic, dict updates, small strings."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(40000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + 1
        acc += len(str(i))
    return acc + len(counts)


def numpy_kernel() -> int:
    """The same interpreter work interleaved with small-array numpy calls,
    the mix of scipy's Python-level integrators."""
    import numpy as np

    counts: dict[int, int] = {}
    acc = 0
    y = np.zeros(2)
    step = np.array([0.5, -0.25])
    for i in range(12000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + 1
        acc += len(str(i))
        if i % 4 == 0:
            y = 0.5 * (step * y + step)
    return acc + len(counts) + int(y[0] > 0)


def time_kernel(kernel=python_kernel) -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def time_import(env: dict) -> float:
    """A fresh interpreter importing the numerical stack vdplin depends on:
    the reference for operations that start a new process."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import numpy, scipy.integrate, scipy.interpolate"],
                   env=env, check=True, timeout=120)
    return perf_counter() - t0
