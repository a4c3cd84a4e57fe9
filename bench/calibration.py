"""Host-speed calibration that keeps reported times steady on a shared host.

On a shared machine the same code runs up to 1.7 times slower for stretches
of seconds to minutes, as other tenants load the host.  That swing is
larger than any bound a benchmark could usefully set, and a run of a few
seconds can fall entirely inside a slow stretch, so no statistic over raw
wall times is steady from run to run.

The slowdown is close to uniform for one kind of work, so the benchmark
times a fixed NumPy kernel (independent of the library) right before and
right after each unit of work, and scales the unit's wall time by the
kernel's reference time over the mean of the two kernel times.  Every time
the benchmark reports is therefore in *reference-host milliseconds*: the
wall time the work would take with the kernel running at its reference
time, as it does on the host the benchmark was defined on (2-core Xeon VM,
OpenBLAS, one thread) when that host is not loaded.  Raw wall times are
printed beside the scaled ones.

Two kernels exist because the two kinds of work slow down differently: many
small NumPy calls (serving) lose more speed under load than large BLAS
products (training).  Measured over 100 s of training jobs, the dispatch
kernel left a 5% spread between 10 s windows and the BLAS kernel 1.5%.

Library changes cannot move a kernel, so scaled times compare commits
faithfully; on other hardware they stay comparable between commits but are
not that machine's wall time.
"""
from __future__ import annotations

import time

import numpy as np


def _dispatch_kernel(rng: np.random.Generator):
    """Small matmuls, row normalisation and exponentials, as in one request."""
    x = rng.standard_normal((12, 64))
    w = rng.standard_normal((64, 64))
    b = rng.standard_normal((64, 4))

    def run() -> None:
        for _ in range(150):
            y = x @ w
            y = (y - y.mean(axis=-1, keepdims=True)) / (y.std(axis=-1, keepdims=True) + 1e-5)
            float(np.exp(-np.abs((y @ b) @ b.T)).sum())

    return run


def _blas_kernel(rng: np.random.Generator):
    """Large matrix products, as in a batched training step."""
    m = rng.standard_normal((256, 256))
    n = rng.standard_normal((256, 256))

    def run() -> None:
        for _ in range(4):
            m @ n

    return run


#: Kernel name -> (factory, reference time in ms on the unloaded reference host).
KERNELS = {"dispatch": (_dispatch_kernel, 4.75), "blas": (_blas_kernel, 2.9)}


class HostSpeed:
    def __init__(self, kernel: str) -> None:
        factory, self.reference_ms = KERNELS[kernel]
        self._run = factory(np.random.default_rng(0))
        self._last: float | None = None

    def kernel_ms(self) -> float:
        t0 = time.perf_counter()
        self._run()
        return (time.perf_counter() - t0) * 1e3

    def invalidate(self) -> None:
        """Forget the last kernel time, after untimed work between units."""
        self._last = None

    def bracket(self, work):
        """Run ``work()`` between two kernel timings.

        Returns ``(result, scale)``; multiplying a wall time measured inside
        ``work`` by ``scale`` gives reference-host time.  The closing kernel
        timing opens the next bracket unless :meth:`invalidate` is called.
        """
        before = self._last if self._last is not None else self.kernel_ms()
        self._last = None
        result = work()
        self._last = self.kernel_ms()
        return result, self.reference_ms / ((before + self._last) / 2)
