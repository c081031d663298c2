"""A fixed reference kernel that measures how fast this machine runs right now.

On a shared host the same inputs take different wall times from minute to
minute: other tenants' load slows the cores, caches and memory this
process uses. On a 2-core cloud VM (Intel Xeon, Python 3.11, numpy 2.4),
the median item time of one workload, taken over consecutive windows of
15 to 40 seconds that ran the same inputs, spread by 5 to 22% of its
median (quartile distance) from window to window.

The benchmark times the kernel (:func:`reference_seconds`) before and
after every item and every set-up step, untimed, and scales each step's
time by ``REFERENCE_S`` over the mean of the two kernel times around it
(:func:`scaled`): a step then reads as the time it would have taken with
the machine at the speed it has when the kernel takes ``REFERENCE_S``
seconds. Over the same windows, scaling each item by a kernel of this
kind cut the spread to 1 to 8%. The kernel is a few vectorised numpy
passes over arrays of a few MiB; kernels of interpreter loops tracked
the program's slowdowns worse. It is the benchmark's own code and calls
nothing in ``spxkit``, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the machine named above; scaled times read close
# to that machine's wall times.
REFERENCE_S = 0.0071
PASSES = 3

_RNG = np.random.default_rng(12345)
_CUBE = _RNG.standard_normal((64, 64, 64), dtype=np.float32)
_IMAGE = _RNG.random((128, 128, 1))
_CENTRES = _RNG.random(16)
# Every pass writes into these buffers, so the kernel allocates nothing and
# its speed does not depend on the heap the program leaves behind.
_MEANS = np.empty((64, 1, 1), dtype=np.float32)
_SHIFTED = np.empty_like(_CUBE)
_DIST = np.empty((128, 128, 16))
_NEAREST = np.empty((128, 128), dtype=np.intp)


def _one_pass() -> float:
    start = time.perf_counter()
    total = 0.0
    for _ in range(4):
        np.mean(_CUBE, axis=(1, 2), keepdims=True, out=_MEANS)
        np.multiply(_MEANS, 0.1, out=_MEANS)
        np.add(_CUBE, _MEANS, out=_SHIFTED)
        total += float(_SHIFTED.sum(dtype=np.float64))
        np.subtract(_IMAGE, _CENTRES, out=_DIST)
        np.abs(_DIST, out=_DIST)
        np.argmin(_DIST, axis=2, out=_NEAREST)
        total += float(_NEAREST.sum())
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Fastest of PASSES back-to-back passes of the reference kernel, in seconds.

    The passes run within a few hundredths of a second, well inside one
    spell of machine speed; the minimum drops the jitter of single passes.
    """
    return min(_one_pass() for _ in range(PASSES))


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the reference speed, from the kernel times around it."""
    return seconds * 2 * REFERENCE_S / (kernel_before + kernel_after)
