"""Host-speed reference for the benchmark's timings.

The benchmark shares a few cores of a host with other tenants, and the
speed of one fixed call drifts by up to a factor of two over seconds and
minutes.  Drift between runs hides any change smaller than itself.  So an
untraced pass also times a fixed kernel of the benchmark's own, between
units of work and outside every measured interval.  Every timing metric is
then scaled by ``NOMINAL_S`` over the median kernel time of the run: it is
the time the work would take on a host on which the kernel takes
``NOMINAL_S``.  The kernel uses none of the program's code, so no change to
the program can move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the kernel's median time on the 2-vCPU Xeon (2.1 GHz) of README's tables
NOMINAL_S = 2.5e-3
# a probe at most this often, so that probes add a few percent to a run
MIN_GAP_S = 0.1

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((81, 3))
_WEIGHTS = _rng.standard_normal((32, 32))
_FEATURES = _rng.standard_normal((600, 32))


def kernel() -> float:
    """The program's mix in miniature: pairwise distances and a cutoff at
    N=81, a small dense layer, and interpreted scalar arithmetic."""
    total = 0.0
    for _ in range(6):
        d = np.linalg.norm(_POINTS[:, None, :] - _POINTS[None, :, :], axis=-1)
        total += float(np.count_nonzero(d < 1.0))
        total += float(np.tanh(_FEATURES @ _WEIGHTS).sum())
        for i in range(200):
            total += i * 0.5
    return total


class HostSpeed:
    """Kernel times taken over one pass."""

    def __init__(self):
        kernel()  # warm-up, untimed
        self.samples: list[float] = []
        self.last = -math.inf

    def probe(self) -> None:
        """Times the kernel, unless the last probe ended under ``MIN_GAP_S``
        ago."""
        start = time.perf_counter()
        if start - self.last < MIN_GAP_S:
            return
        kernel()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def scale(self) -> float:
        """Factor that turns this pass's times into times on the nominal host."""
        return NOMINAL_S / statistics.median(self.samples)
