"""Block-mean message passing on feature maps, guided by superpixels.

The single-scale operator adds ``alpha`` times the blockwise mean back
to every feature: with P the block-averaging projector (replace each
pixel's feature by its block mean, per channel), the map is
``X -> X + alpha * P X``. P is symmetric and idempotent, so the
operator is linear and self-adjoint and its exact gradient is the
operator itself applied to the upstream gradient.

The multiscale form chains single-scale passes over partitions of
strictly increasing block count (large blocks first), generating
superpixels from the full-resolution image and mapping them down to
feature resolution by per-cell majority vote. Quick Shift's scales
share one sigma sweep on the calling thread.

All arithmetic accumulates in float64 in a fixed row-major order, so
results are bit-reproducible run to run. A pass or a whole cascade runs
channel by channel: all stages of one channel run, each rounded through
that channel of the C-order output, before the next channel starts.
Block sums are one sparse product per channel with the partition's
cached CSR membership matrix (see
:class:`~spxkit.core.SuperpixelPartition`): a CSR row is summed from 0.0
over its entries in ascending column order, which is the row-major pixel
order in which ``np.bincount(labels, weights=row)`` accumulates, and
every entry is 1.0, so each product is exact and the sums equal
``bincount``'s bit for bit.

The block sums also stand in for a scan of the whole map for NaN and
infinity. Both survive float64 addition (inf + -inf is NaN), and finite
float16 or float32 values cannot overflow a float64 sum, so for those
dtypes "every block sum is finite" is "every value is finite". A finite
float64 map whose block sum overflows is rejected too, with an error
that says so. An output that overflows its dtype raises ``ValueError``
rather than holding inf. With several faults in one map, the first
channel holding one, at any stage, sets the error.

A map's channels, like a cascade's SLIC scales, are jobs in one queue
that up to two threads share (see ``_THREAD_MIN_PIXELS``): a thread
pops a job, runs one step of it and puts it back unless it is done, so
neither thread idles while two jobs are left. A channel's step is all
its stages; a SLIC run's is one k-means step or its connectivity pass,
and the run yields its partition last.
No step's arithmetic depends on the thread, and the lowest failing
job's error is raised, so outputs, partitions and errors are those of
one thread. Beside the output, each running thread keeps one float64
row and one message row, each one channel long: O(H*W). The SLIC runs
share one array of pixel coordinates; beside the Lab image, scales
200/300/400 at 512^2 peak at ~96 B/pixel on two threads (two steps'
scratch at once) and ~62 B/pixel on one.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .color import srgb_to_lab
from .core import (
    SuperpixelPartition,
    check_count,
    check_feature_layout,
    check_feature_map,
    check_image,
    relabel_contiguous,
)
from .quickshift import QuickShiftParams, quickshift_match_scale
from .slic import SlicParams, _slic_steps
from .slic import slic_segment  # noqa: F401  perfbench/tracing.py wraps it here

__all__ = [
    "CascadeTrace",
    "MspConfig",
    "block_means",
    "cascade_apply",
    "cascade_backward",
    "cascade_forward",
    "downsample_partition",
    "gradient_check",
    "mean_map",
    "message_pass",
    "message_pass_grad",
    "random_partition",
    "refine_probabilities",
]

# _share runs its jobs on two threads when there are 2 or more of
# them, each of at least _THREAD_MIN_PIXELS pixels, and 2 or more CPUs
# in the process's affinity mask, so taskset or a cpuset keeps every
# job on the calling thread. The jobs are a map's channels in _stages
# and a cascade's SLIC scales in _segment_scales; for both, the
# thread's start and contention outweigh a small job's share. Two
# threads' time over one thread's, medians of 15-21 interleaved calls
# on a 2-core Xeon, as ranges (and the median) over repeated sweeps; a
# 3-stage cascade_apply over Voronoi partitions of 200/300/400 blocks,
# and SLIC scales 200/300/400 on Voronoi scenes, both stepped from one
# queue:
#
#   pixels per job    64 channels        8 channels         SLIC scales
#   160^2  (25,600)   0.82-1.21 (1.04)   1.09-1.49 (1.29)   1.04-1.26 (1.18)
#   176^2  (30,976)   0.71-1.05 (0.93)   0.83-1.42 (1.08)   1.02-1.19 (1.09)
#   191x193 (36,863)  0.63-1.19 (0.79)   0.67-1.24 (0.94)   0.80-1.11 (1.01)
#   192^2  (36,864)   0.60-0.99 (0.91)   0.63-1.25 (0.92)   0.97-1.13 (1.02)
#   256^2  (65,536)   0.57-0.87 (0.69)   0.66-1.03 (0.74)   0.71-1.00 (0.81)
#
# Maps of 2 or 4 channels still read 0.89-1.44x at 192^2 (medians
# 1.15 and 1.06, at most 0.75 ms a call) and 0.73-1.22x (0.88) at 256^2.
_THREAD_MIN_PIXELS = 192 * 192


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:  # also rejects NaN
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


def _check_increasing(name: str, scales: tuple[int, ...]) -> None:
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {scales}")


def _check_pair(features: np.ndarray, partition: SuperpixelPartition) -> np.ndarray:
    x = check_feature_layout(features)
    if partition.labels.shape != x.shape[1:]:
        raise ValueError(
            f"partition is {partition.labels.shape}, feature map is "
            f"{x.shape[1:]} (expects matching H, W)"
        )
    return x


def _block_sums(row: np.ndarray, plan, c: int) -> np.ndarray:
    """Block sums of channel ``c``'s float64 row, ``plan.members @ row``:
    ``np.bincount``'s bit for bit, and ``ValueError`` unless all are finite."""
    sums = plan.members @ row
    if not np.isfinite(sums).all():
        if np.isfinite(row).all():
            raise ValueError(
                f"feature map is finite, but a block sum in channel {c} "
                "overflows float64"
            )
        raise ValueError("feature map must be finite, found NaN or infinity")
    return sums


def block_means(
    features: np.ndarray, partition: SuperpixelPartition
) -> np.ndarray:
    """Per-block channel means, shape (C, num_blocks), float64."""
    x = _check_pair(features, partition)
    plan = partition._plan
    return np.array([_block_sums(xc.ravel().astype(np.float64), plan, c) / plan.sizes
                     for c, xc in enumerate(x)])


def mean_map(features: np.ndarray, partition: SuperpixelPartition) -> np.ndarray:
    """Blockwise-mean map: every pixel replaced by its block's channel mean.

    This is the projector P applied to the features; applying it twice
    reproduces the same map (up to roundoff).
    """
    means = block_means(features, partition)
    return np.take(means, partition._plan.index, axis=1).reshape(-1, *partition.labels.shape)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share(jobs: int, pixels: int, step) -> None:
    """Run jobs ``0 .. jobs - 1`` of ``pixels`` pixels each from one queue.

    Each thread pops a job, calls ``step(job, thread)`` and, if that
    returns True, pushes the job back at the tail. ``thread`` is 0 on
    the calling thread and 1 on the extra one, which starts only when
    the jobs split (see ``_THREAD_MIN_PIXELS``); if the OS refuses it,
    the calling thread runs every job. A failed job is dropped, and so is
    each job above it when next popped; once both threads are done, the
    lowest failing job's error is raised, as in job order.
    """
    queue = deque(range(jobs))
    faults: dict[int, Exception] = {}
    failed = jobs  # a failed job, once one fails; no job above it can set the error

    def work(thread: int) -> None:
        nonlocal failed
        # A thread leaves once the queue is empty: every job left is then
        # the one the other thread holds.
        while True:
            try:
                i = queue.popleft()
            except IndexError:
                return
            if i > failed:
                continue
            try:
                again = step(i, thread)
            except Exception as err:
                faults[i] = err
                failed = min(failed, i)  # a race may leave the other failed job
            else:
                if again:
                    queue.append(i)

    worker = None
    if jobs >= 2 and pixels >= _THREAD_MIN_PIXELS and _usable_cpus() >= 2:
        worker = threading.Thread(target=work, args=(1,))
        try:
            worker.start()
        except RuntimeError:  # no thread to be had, e.g. at a pid limit
            worker = None
    try:
        work(0)
    finally:
        if worker is not None:
            worker.join()
    if faults:
        raise faults[min(faults)]


def _stages(features: np.ndarray, partitions, alpha: float) -> np.ndarray:
    """Single-scale passes over ``partitions`` in order, channel by channel;
    each stage's float64 result is rounded to the input dtype, as one pass stores it.

    Each channel is one ``_share`` job, run in one step.
    """
    for part in partitions:
        x = _check_pair(features, part)
    _check_alpha(alpha)
    plans = [part._plan for part in partitions]
    out = np.empty(x.shape, x.dtype)  # C order, so each channel is one flat row
    flat = out.reshape(x.shape[0], -1)
    channels, pixels = flat.shape
    # One row and one message buffer per thread, all made by the calling
    # thread: made in the worker, they came from a new malloc arena and
    # raised the peak RSS of a training step by 2.3 MiB.
    buffers = np.empty((2, 2, pixels))

    def channel(c: int, thread: int) -> None:
        row, message = buffers[thread]
        # numpy's error state is per thread, so each step sets its own.
        with np.errstate(over="raise"):
            out[c] = x[c]
            for plan in plans:
                row[...] = flat[c]
                means = _block_sums(row, plan, c) / plan.sizes
                # "clip" gathers into message directly; no index is out of range.
                np.take(alpha * means, plan.index, out=message, mode="clip")
                row += message
                flat[c] = row  # this stage's output, in the input dtype

    try:
        _share(channels, pixels, channel)
    except FloatingPointError:
        raise ValueError(
            f"message passing overflows the {x.dtype} output: "
            "features + alpha * block mean exceed its range"
        ) from None
    return out


def message_pass(
    features: np.ndarray, partition: SuperpixelPartition, alpha: float
) -> np.ndarray:
    """Single-scale pass: features + alpha * blockwise mean.

    Output dtype matches the input's floating dtype; internals are
    float64, one channel at a time, so extra memory is O(H*W) beside
    the partition's cached plan. A result beyond the output dtype's
    range raises ``ValueError``.
    """
    return _stages(features, [partition], alpha)


def message_pass_grad(
    grad_output: np.ndarray, partition: SuperpixelPartition, alpha: float
) -> np.ndarray:
    """Gradient of :func:`message_pass` with respect to its features.

    The operator Id + alpha * P is self-adjoint, so the backward pass is
    the forward computation applied to the upstream gradient; this
    delegates to the identical code path.
    """
    return message_pass(grad_output, partition, alpha)


def downsample_partition(
    partition: SuperpixelPartition, target_height: int, target_width: int
) -> SuperpixelPartition:
    """Reduce a partition to a coarser grid by per-cell majority vote.

    Target cell (i, j) covers source rows floor(i*H/h)..floor((i+1)*H/h)-1
    and the analogous columns; the cell takes the most frequent source
    label (ties: smallest label). Blocks that vanish are dropped by a
    contiguous relabel. The target dims must be integers in [1, H] and
    [1, W].
    """
    h_src, w_src = partition.labels.shape
    target_height = check_count("target_height", target_height, 1, h_src)
    target_width = check_count("target_width", target_width, 1, w_src)

    # Inverse of the cell->rows box mapping: row y lands in cell
    # floor(((y + 1) * h - 1) / H).
    ty = ((np.arange(h_src, dtype=np.int64) + 1) * target_height - 1) // h_src
    tx = ((np.arange(w_src, dtype=np.int64) + 1) * target_width - 1) // w_src
    cell = ty[:, None] * target_width + tx[None, :]

    # Majority vote over runs of the sorted (cell, label) key. Every cell
    # covers a source pixel; lexsort puts each cell's largest count first
    # and, being stable, keeps tied runs in ascending label order. The
    # keys sort in the narrowest unsigned dtype that holds every key and
    # K, so the divmod below stays in it too.
    k = partition.num_blocks
    narrow = np.min_scalar_type(max(target_height * target_width * k - 1, k))
    joint = np.sort((cell.ravel() * k + partition.labels.ravel()).astype(narrow))
    starts = np.flatnonzero(np.r_[True, joint[1:] != joint[:-1]])
    counts = np.diff(np.r_[starts, joint.size])
    run_cell, run_label = np.divmod(joint[starts], k)
    first = np.flatnonzero(np.r_[True, run_cell[1:] != run_cell[:-1]])
    majority = run_label[np.lexsort((-counts, run_cell))[first]]
    return relabel_contiguous(majority.reshape(target_height, target_width))


@dataclass(frozen=True)
class CascadeTrace:
    """Per-stage record of a multiscale forward pass.

    ``stages`` holds (requested scale, feature-resolution partition)
    pairs in application order; there is at least one, scales are
    strictly increasing and all partitions share one grid shape.
    """

    stages: tuple[tuple[int, SuperpixelPartition], ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("trace stages must be nonempty")
        _check_increasing("trace scales", tuple(s for s, _ in self.stages))
        shapes = {p.labels.shape for _, p in self.stages}
        if len(shapes) > 1:
            raise ValueError(f"trace partitions disagree on shape: {shapes}")


def cascade_apply(
    features: np.ndarray,
    partitions: list[SuperpixelPartition] | tuple[SuperpixelPartition, ...],
    alpha: float,
) -> np.ndarray:
    """Chain single-scale passes over the given partitions, in order.

    At least one partition is required, so every input is checked.
    """
    if not partitions:
        raise ValueError("partitions must be nonempty")
    return _stages(features, partitions, alpha)


@dataclass(frozen=True)
class MspConfig:
    """Settings for the multiscale message-passing cascade.

    ``scales`` lists the requested block count per stage, integers >= 1
    that must be strictly increasing (large blocks first, finer blocks
    later).
    ``alpha`` weights the block-mean message added back to each feature.
    ``segmenter`` picks the superpixel generator and holds its knobs: a
    :class:`SlicParams` is a template whose ``num_superpixels`` each
    stage replaces with its scale; a :class:`QuickShiftParams` starts
    every stage's sigma sweep.
    """

    alpha: float = 0.1
    scales: tuple[int, ...] = (200, 300, 400)
    segmenter: SlicParams | QuickShiftParams = SlicParams(200)

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        scales = tuple(check_count("every scale", s) for s in self.scales)
        if not scales:
            raise ValueError("scales must be nonempty")
        _check_increasing("scales", scales)
        object.__setattr__(self, "scales", scales)
        if not isinstance(self.segmenter, (SlicParams, QuickShiftParams)):
            raise ValueError(
                "segmenter must be SlicParams or QuickShiftParams, got "
                f"{self.segmenter!r}"
            )


def _segment_scales(
    lab: np.ndarray, segmenter: SlicParams | QuickShiftParams, scales: tuple[int, ...]
) -> list[SuperpixelPartition]:
    """Full-resolution partitions of ``lab``, one per scale, in scale order.

    Quick Shift's scales share one sigma sweep on the calling thread:
    each distinct sigma is segmented once. SLIC's scales are ``_share``
    jobs of the image's pixels each, and a job's step advances its
    ``_slic_steps`` run by one step; a run yields its partition last,
    into its scale's slot. Each run's arithmetic is its own, so the labels do
    not depend on the threads, and the lowest failing scale's error is
    raised.
    """
    if isinstance(segmenter, QuickShiftParams):
        memo: dict[float, SuperpixelPartition] = {}  # sigma -> partition
        return [quickshift_match_scale(lab, segmenter, s, memo=memo) for s in scales]
    h, w = lab.shape[:2]
    yx = np.indices((h, w), dtype=np.float64).reshape(2, -1)
    runs = [_slic_steps(lab, replace(segmenter, num_superpixels=s), yx) for s in scales]
    del yx  # each run lets go of it before its connectivity pass
    parts: list = [None] * len(scales)

    def advance(i: int, thread: int) -> bool:
        parts[i] = next(runs[i])
        return parts[i] is None

    _share(len(scales), h * w, advance)
    return parts


def cascade_forward(
    features: np.ndarray, image: np.ndarray, config: MspConfig
) -> tuple[np.ndarray, CascadeTrace]:
    """Multiscale pass: one superpixel scale per stage, small scale first.

    Superpixels are generated per scale from the full-resolution image,
    reduced to feature resolution by majority vote, and then applied as
    one cascade. With Quick Shift, the scales share one sigma sweep:
    each distinct sigma is segmented once per call. Returns the final
    tensor and the trace of feature-resolution partitions actually used.
    """
    x = check_feature_map(features)
    img = check_image(image)
    h_f, w_f = x.shape[1:]
    if h_f > img.shape[0] or w_f > img.shape[1]:
        raise ValueError(
            f"feature map {x.shape[1:]} exceeds image resolution {img.shape[:2]}"
        )
    lab = srgb_to_lab(img)
    parts = [downsample_partition(part, h_f, w_f)
             for part in _segment_scales(lab, config.segmenter, config.scales)]
    trace = CascadeTrace(stages=tuple(zip(config.scales, parts)))
    return _stages(x, parts, config.alpha), trace


def cascade_backward(
    grad_output: np.ndarray, trace: CascadeTrace, alpha: float
) -> np.ndarray:
    """Gradient of :func:`cascade_forward` with respect to its features.

    Each stage is self-adjoint, so the chain rule reduces to applying
    the stages to the upstream gradient in reverse order.
    """
    return _stages(grad_output, [part for _, part in reversed(trace.stages)], alpha)


def refine_probabilities(
    probs: np.ndarray, image: np.ndarray, config: MspConfig
) -> np.ndarray:
    """Smooth per-class probabilities with the cascade, then argmax.

    Returns an (H, W) uint32 label map; argmax ties resolve to the
    smallest class index.
    """
    p = check_feature_layout(probs)
    # NaN and -inf fail this test too; cascade_forward's finiteness scan
    # catches +inf. On failure, "finite" is reported before "nonnegative".
    if not (p >= 0).all():
        check_feature_map(p)
        raise ValueError("probabilities must be nonnegative")
    out, _ = cascade_forward(p, image, config)
    return np.argmax(out, axis=0).astype(np.uint32)


# ---------------------------------------------------------------------------
# Verification helpers: seeded fixtures and the finite-difference check
# ---------------------------------------------------------------------------

# Fixture values are quantized to multiples of 2^-13 and the difference
# step equals the quantum, so perturbed inputs are exactly representable
# and the alpha = 0 check reports an exactly zero error.
_QUANTUM = 2.0**-13


def random_partition(
    height: int, width: int, blocks: int, rng: np.random.Generator
) -> SuperpixelPartition:
    """Seeded Voronoi partition: ``blocks`` distinct seed pixels, each
    pixel labeled by its nearest seed (ties: lowest seed index).

    ``height`` and ``width`` are integers >= 1, ``blocks`` one in
    [1, height·width].
    """
    height, width = check_count("height", height), check_count("width", width)
    blocks = check_count("blocks", blocks, 1, height * width)
    seeds = rng.choice(height * width, size=blocks, replace=False)
    sy, sx = divmod(seeds, width)
    yy = np.arange(height)[:, None]
    xx = np.arange(width)[None, :]
    # Running minimum over seeds in index order; the squared distances
    # are exact integers, so a strict < keeps ties at the lowest index.
    best = np.full((height, width), np.iinfo(np.int64).max)
    labels = np.zeros((height, width), dtype=np.int64)
    for k, (y, x) in enumerate(zip(sy.tolist(), sx.tolist())):
        d2 = (yy - y) ** 2 + (xx - x) ** 2
        closer = d2 < best
        best[closer] = d2[closer]
        labels[closer] = k
    return relabel_contiguous(labels)


def _quantized(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.integers(-8192, 8193, size=shape).astype(np.float64) * _QUANTUM


def gradient_check(
    channels: int,
    height: int,
    width: int,
    blocks: int,
    seed: int,
    alpha: float = 0.1,
    stages: int = 1,
) -> dict:
    """Compare the analytic backward pass against central finite differences.

    Builds a seeded random feature map, loss weights, and ``stages``
    Voronoi partitions, then checks every coordinate of the gradient of
    L = sum(w * cascade(X)) plus the adjoint identity
    <F(X), Y> = <X, B(Y)> where B applies the stages in reverse order
    (for a single stage this is plain self-adjointness, since each stage
    is symmetric). Errors are relative with a denominator floor of 1.
    Returns {"max_rel_err", "adjoint_err", "pass"}; pass requires
    max_rel_err <= 1e-4 and adjoint_err <= 1e-6.

    ``channels``, ``height`` and ``width`` are integers >= 1, ``blocks``
    and ``stages`` integers in [1, height·width], and ``seed`` an
    integer >= 0; anything else raises ``ValueError`` naming it.
    """
    channels = check_count("channels", channels)
    height, width = check_count("height", height), check_count("width", width)
    blocks = check_count("blocks", blocks, 1, height * width)
    stages = check_count("stages", stages, 1, height * width)
    seed = check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    shape = (channels, height, width)
    x = _quantized(rng, shape)
    weights = _quantized(rng, shape)
    parts = [
        random_partition(height, width, min(height * width, blocks * (i + 1)), rng)
        for i in range(stages)
    ]

    # Stage indices stand in for scales: capped block counts can tie.
    trace = CascadeTrace(stages=tuple((i + 1, p) for i, p in enumerate(parts)))
    analytic = cascade_backward(weights, trace, alpha)

    step = _QUANTUM
    max_rel_err = 0.0
    for i in np.ndindex(shape):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        diff = cascade_apply(xp, parts, alpha) - cascade_apply(xm, parts, alpha)
        fd = float((weights * diff).sum()) / (2.0 * step)
        err = abs(fd - float(analytic[i])) / max(1.0, abs(float(analytic[i])))
        max_rel_err = max(max_rel_err, err)

    y = _quantized(rng, shape)
    fx = cascade_apply(x, parts, alpha)
    by = cascade_backward(y, trace, alpha)
    lhs = float((fx * y).sum())
    rhs = float((x * by).sum())
    adjoint_err = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    return {
        "max_rel_err": max_rel_err,
        "adjoint_err": adjoint_err,
        "pass": bool(max_rel_err <= 1e-4 and adjoint_err <= 1e-6),
    }
