"""Machine-speed calibration, so that end-to-end times are steady on a shared host.

On the shared 2-vCPU virtual machine this benchmark was defined on, the
speed of the same single-threaded code drifts by up to 1.7x within minutes
(other tenants of the host), so raw run medians spread by 20-50% between
runs.
A fixed kernel independent of nsab - interpreter arithmetic, small BLAS
products and FFTs - is timed next to every operation; an operation's
calibrated time is its raw time times ``REFERENCE_S`` over the kernel time
measured around it.  In windows of 20 s this cut the spread of a stationary
solve from +-22% (raw) to +-6% (calibrated).  Calibrated times are seconds
at the speed that machine had when ``REFERENCE_S`` was measured.
"""

import statistics
import time

import numpy as np

#: median kernel time on that machine (Python 3.11, numpy 2.4.6,
#: OPENBLAS_NUM_THREADS=1); only sets the scale of calibrated seconds
REFERENCE_S = 0.015
#: share of an operation's time to spend on kernel samples after it
#: (between 1 and MAX_SAMPLES samples)
SAMPLE_SHARE = 0.05
MAX_SAMPLES = 9

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((96, 96))
_X = _rng.standard_normal((32, 32, 49))


def kernel():
    s = 0
    for i in range(60000):
        s += i * i
    for _ in range(20):
        _A @ _A
    for _ in range(8):
        np.fft.fft2(_X, axes=(0, 1))


def sample(n=1):
    """Median seconds of n kernel runs."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def samples_after(latency):
    """Kernel runs to take after an operation of the given raw latency."""
    return max(1, min(MAX_SAMPLES, round(SAMPLE_SHARE * latency / REFERENCE_S)))


def calibrated(raw, kernel_s):
    return raw * REFERENCE_S / kernel_s
