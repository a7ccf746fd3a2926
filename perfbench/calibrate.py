"""A fixed reference kernel that tracks the speed of the machine.

The host that runs the benchmark is shared, and its speed drifts by 10-40%
over tens of seconds to minutes. The timed loop runs this kernel after
every operation. It uses nothing from the package, so a change to the
package never changes its cost. Dividing an operation's wall time by the
kernel's time around it cancels the drift; multiplying by REFERENCE_S
gives the result back in seconds at a fixed speed. REFERENCE_S is about
the kernel's median time on the 2-CPU VM the benchmark was written on;
it only sets the scale.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.030

_rng = np.random.default_rng(0)
_VEC = _rng.random(1 << 15)
_BIG = _rng.random(1 << 21)            # 16 MB, larger than the caches
_BUF = np.empty(1 << 20)               # allocated once: the kernel allocates
                                       # no large block of its own


def _wht(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    n, h = a.shape[-1], 1
    while h < n:
        b = a.reshape(n // (2 * h), 2, h)
        diff = b[:, 0, :] - b[:, 1, :]
        b[:, 0, :] += b[:, 1, :]
        b[:, 1, :] = diff
        h *= 2
    return a


def kernel() -> float:
    """Array butterflies, a memory-bound sort and an interpreter loop, as
    the package mixes them; returns the kernel's wall time."""
    t0 = perf_counter()
    for _ in range(6):
        _wht(_VEC)
    _BUF[:] = _BIG[::2]
    _BUF.sort()
    total = 0
    for i in range(150_000):
        total += i * i
    return perf_counter() - t0
