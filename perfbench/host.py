"""Host-speed probe.

The benchmark runs on shared machines where other tenants slow every
process on a core by up to half, in spells of seconds to minutes; CPU time
rises with wall time, so neither tells contention from a slower program.
A fixed numpy kernel timed next to each unit of work does: the program's
unit time divided by the probe time stays steady while both slow down
together (on a shared 2-CPU x86-64 VM: correlation 0.86 between probe and
unit times; 10-unit medians of the ratio varied by about 2.5% where those
of the raw unit times varied by 15%).

``scale`` turns a measured time into the time it would have taken on the
reference host (2-CPU x86-64, OpenBLAS, 1 BLAS thread, uncontended), where
the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's uncontended time on the reference host (about the fastest
# of 500 probes)
REFERENCE_S = 0.011


class HostProbe:
    """A fixed mix of the program's kinds of work: small matmuls with
    elementwise and reduction ops (per-utterance evaluation), one large
    matmul and a transcendental pass (training batches)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((199, 64))
        self.large = rng.standard_normal((4900, 64))
        self.w = rng.standard_normal((64, 128)) / 8.0
        self.times: list[float] = []

    def probe(self) -> float:
        """Time the kernel once; the time is also kept in ``times``."""
        t0 = time.perf_counter()
        for _ in range(16):
            y = np.tanh(self.small @ self.w)
            y = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(y.var(axis=-1, keepdims=True) + 1e-5)
        z = self.large @ self.w
        np.exp(-np.abs(z), out=z)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed


def scale(unit_s, before_s, after_s):
    """Unit times rescaled to the reference host, each by the mean of the
    probes taken just before and just after it."""
    unit_s, before_s, after_s = (np.asarray(a, dtype=np.float64)
                                 for a in (unit_s, before_s, after_s))
    return unit_s * REFERENCE_S / (0.5 * (before_s + after_s))
