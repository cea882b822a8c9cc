"""A fixed kernel that tracks how fast the machine is running right now.

On a shared host the same work can take a quarter longer for tens of
seconds at a time, and ten runs of a workload then spread with the host's
load more than with anything the program does.  The workload process times
this kernel after every op it measures, outside the op's time; ``run.py``
scales the run's throughput and op times by the median kernel time over
``REFERENCE_S``, so that a run made while the host was slow counts as a
run at reference speed.  In one process that alternated a fixed mg-n500
trial with a longer version of this kernel for 120 s on a 2-vCPU Xeon VM,
the trial's 5 s medians varied by 7.0% (coefficient of variation) and the
trial's time over the kernel's by 2.5%.  A single 40 ms kernel time
varies by about 7% from one second to the next, which is why the run
takes the median of all of them rather than scaling each op by its own.

The kernel does what a trial does, at a fixed size: a reservoir update
loop of matrix-vector products and ``tanh`` in Python, a Gram matrix and
a QR factorisation.  It runs with the workload's BLAS threads.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on a 2-vCPU Xeon VM with one BLAS thread;
# calibrated times are in seconds at that speed
REFERENCE_S = 0.04
REPEATS = 1


def _kernel(w: np.ndarray, x: np.ndarray) -> None:
    for _ in range(10):
        state = np.zeros(len(w))
        for _ in range(28):
            state = np.tanh(w @ state + 0.1)
    x.T @ x
    np.linalg.qr(x[:, :64])


def measure(seed: int = 0) -> list[float]:
    """Seconds of each of ``REPEATS`` runs of the kernel.

    The kernel's arrays live only during the call, so that they do not
    add to the peak RSS of the ops measured between calls.
    """
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((500, 500)) / 25.0
    x = rng.standard_normal((2000, 500))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel(w, x)
        times.append(time.perf_counter() - start)
    return times
