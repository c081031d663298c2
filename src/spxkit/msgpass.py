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
feature resolution by per-cell majority vote.

All arithmetic accumulates in float64 in a fixed row-major order, so
results are bit-reproducible run to run. A pass or a whole cascade runs
channel by channel: all stages of one channel run, each rounded to the
output dtype, before the next channel starts, so the scratch beside one
output is O(H*W). Block sums are one sparse product per channel with the
partition's cached CSR membership matrix (see
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .color import srgb_to_lab
from .core import (
    SuperpixelPartition,
    check_feature_layout,
    check_feature_map,
    check_image,
    relabel_contiguous,
)
from .quickshift import QuickShiftParams, quickshift_match_scale
from .slic import SlicParams, slic_segment

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


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:  # also rejects NaN
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


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


def _channel_means(x: np.ndarray, partition: SuperpixelPartition):
    """Yield each channel's block means, float64."""
    plan = partition._plan
    for c in range(x.shape[0]):
        yield _block_sums(x[c].ravel().astype(np.float64), plan, c) / plan.sizes


def block_means(
    features: np.ndarray, partition: SuperpixelPartition
) -> np.ndarray:
    """Per-block channel means, shape (C, num_blocks), float64."""
    x = _check_pair(features, partition)
    return np.array(list(_channel_means(x, partition)))


def mean_map(features: np.ndarray, partition: SuperpixelPartition) -> np.ndarray:
    """Blockwise-mean map: every pixel replaced by its block's channel mean.

    This is the projector P applied to the features; applying it twice
    reproduces the same map (up to roundoff).
    """
    x = _check_pair(features, partition)
    means = np.array(list(_channel_means(x, partition)))
    return np.take(means, partition._plan.index, axis=1).reshape(x.shape)


def _stages(features: np.ndarray, partitions, alpha: float) -> np.ndarray:
    """Single-scale passes over ``partitions`` in order, channel by channel;
    each stage's float64 result is rounded to the input dtype, as one pass stores it."""
    for part in partitions:
        x = _check_pair(features, part)
    _check_alpha(alpha)
    plans = [part._plan for part in partitions]
    out, kept = np.empty_like(x), np.empty(x[0].size, x.dtype)
    row, message = np.empty(kept.size), np.empty(kept.size)
    try:
        with np.errstate(over="raise"):
            for c in range(x.shape[0]):
                kept.reshape(x.shape[1:])[...] = x[c]
                for plan in plans:
                    row[...] = kept
                    means = _block_sums(row, plan, c) / plan.sizes
                    # "clip" gathers into message directly; no index is out of range.
                    np.take(alpha * means, plan.index, out=message, mode="clip")
                    row += message
                    kept[...] = row  # this stage's output, in the input dtype
                out[c] = kept.reshape(x.shape[1:])
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
    contiguous relabel.
    """
    h_src, w_src = partition.labels.shape
    for name, dim in (("target_height", target_height), ("target_width", target_width)):
        if not isinstance(dim, Integral):
            raise ValueError(f"{name} must be an integer, got {dim!r}")
    target_height, target_width = int(target_height), int(target_width)
    if not (1 <= target_height <= h_src and 1 <= target_width <= w_src):
        raise ValueError(
            f"target dims ({target_height}, {target_width}) must be in "
            f"[1, source dims ({h_src}, {w_src})]"
        )

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
        scales = [s for s, _ in self.stages]
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise ValueError(f"trace scales must be strictly increasing: {scales}")
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

    ``scales`` lists the requested block count per stage, integers that
    must be strictly increasing (large blocks first, finer blocks later).
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
        object.__setattr__(self, "scales", tuple(self.scales))
        _check_alpha(self.alpha)
        if not self.scales:
            raise ValueError("scales must be nonempty")
        if any(not isinstance(s, Integral) or s < 1 for s in self.scales):
            raise ValueError(f"every scale must be an integer >= 1, got {self.scales}")
        object.__setattr__(self, "scales", tuple(int(s) for s in self.scales))
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError(
                "scales must be strictly increasing (each scale must exceed "
                f"the previous one), got {self.scales}"
            )
        if not isinstance(self.segmenter, (SlicParams, QuickShiftParams)):
            raise ValueError(
                "segmenter must be SlicParams or QuickShiftParams, got "
                f"{self.segmenter!r}"
            )


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
    parts = []
    memo: dict[float, SuperpixelPartition] = {}  # Quick Shift sigma -> partition
    for scale in config.scales:
        if isinstance(config.segmenter, SlicParams):
            spec = replace(config.segmenter, num_superpixels=scale)
            part_full = slic_segment(lab, spec)
        else:
            part_full = quickshift_match_scale(lab, config.segmenter, scale, memo=memo)
        parts.append(downsample_partition(part_full, h_f, w_f))
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
    pixel labeled by its nearest seed (ties: lowest seed index)."""
    n = height * width
    if not 1 <= blocks <= n:
        raise ValueError(f"blocks must be in [1, {n}], got {blocks}")
    seeds = rng.choice(n, size=blocks, replace=False)
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
    """
    if stages < 1:
        raise ValueError(f"stages must be >= 1, got {stages}")
    if not 1 <= blocks <= height * width:
        raise ValueError(
            f"blocks must be in [1, {height * width}], got {blocks}"
        )
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
