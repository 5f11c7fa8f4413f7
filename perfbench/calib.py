"""Machine-speed calibration for the gated timings.

On a shared virtual machine the speed of the whole CPU moves with the
neighbours' load: the same 9-bus screen took 0.34 ms in one 25 s run and
0.19 ms in another a few minutes later, and a 2 s window can be twice as
slow as one a few seconds before it. Every part of a run slows together, so a timing divided by the
time of a fixed reference kernel measured right next to it stays put:
over 2 s windows of 40 s, the quartile spread of the 9-bus screen median
fell from 0.09 of its median to 0.03, and of the 40-bus screen from 0.13
to 0.05 (README.md, Noise).

The kernel is owned by the benchmark and calls nothing in the library, so
a change to the library moves a calibrated timing by the same share as the
wall time, unless it slows the rest of the process as well. It mixes what the library's operations are made of:
interpreted Python over a dict, a small dense LU and a sparse LU with two
solves. A gated timing is reported in reference seconds: the wall time
times ``REF_S`` over the kernel's time around the operation, that is, the
time the operation would take on a machine where the kernel takes
``REF_S``. The wall times and the kernel's own time are reported beside
them.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REF_S = 4.0e-4          # about the kernel's time on the machine the bounds were set on
TICK_S = 0.1            # longest gap between calibrations while measuring
CALLS_PER_TICK = 3      # a calibration is the median of this many kernel calls
_SIDE = 10              # the sparse LU is of a _SIDE x _SIDE grid


def _inputs():
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((9, 9)) + 9.0 * np.eye(9)
    line = sp.diags([-1.0, 4.1, -1.0], [-1, 0, 1], shape=(_SIDE, _SIDE))
    hops = sp.diags([-1.0, -1.0], [-1, 1], shape=(_SIDE, _SIDE))
    eye = sp.identity(_SIDE)
    grid = sp.kron(eye, line) + sp.kron(hops, eye) + 0.3j * sp.identity(_SIDE * _SIDE)
    table = {i: float(i) for i in range(2000)}
    return dense, rng.standard_normal(9), grid.tocsc(), np.ones(_SIDE * _SIDE, complex), table


_DENSE, _DENSE_RHS, _SPARSE, _SPARSE_RHS, _TABLE = _inputs()


def kernel() -> float:
    total = 0.0
    for k, v in _TABLE.items():
        total += v * 1.5 if k % 3 else -v
    total += float(np.abs(la.lu_solve(la.lu_factor(_DENSE), _DENSE_RHS)).sum())
    lu = spla.splu(_SPARSE)
    return total + float(np.abs(lu.solve(lu.solve(_SPARSE_RHS))).sum())


class Calibration:
    """Kernel timings along a run, and the scale they give each operation."""

    def __init__(self):
        kernel()                        # first calls load code; not timed
        self.ticks: list[tuple[float, float]] = []    # (start, kernel seconds)
        self._last = -np.inf

    def tick(self, force: bool = False) -> None:
        """Time the kernel, unless it was timed less than TICK_S ago."""
        now = time.perf_counter()
        if not force and now - self._last < TICK_S:
            return
        runs = []
        for _ in range(CALLS_PER_TICK):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self.ticks.append((now, float(np.median(runs))))
        self._last = time.perf_counter()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the kernel time of the last calibration before
        ``start`` and the first after ``end`` (their mean)."""
        starts = [t for t, _ in self.ticks]
        near = [self.ticks[k][1] for k in (bisect.bisect_right(starts, start) - 1,
                                           bisect.bisect_left(starts, end))
                if 0 <= k < len(starts)]
        return REF_S / float(np.mean(near))

    def kernel_s(self) -> float:
        return float(np.median([s for _, s in self.ticks]))
