"""Quick Shift superpixels: mode seeking on a Parzen density estimate.

Each pixel carries a 5-D feature (scaled L, a, b, x, y). Density is a
truncated Gaussian sum over a square window of radius ceil(3*sigma)
(capped at max(H, W) - 1: every farther offset leaves the image),
which is also the search window for links. Every pixel starts as its
own root and links to its nearest neighbor of strictly higher density,
provided the 5-D distance is at most tau; on equal density, the neighbor
at offset (dy, dx) ranks higher when its row-major index step dy*W + dx
is negative. The links form a forest and each tree is one superpixel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .core import SuperpixelPartition, check_lab_image, relabel_contiguous

__all__ = ["QuickShiftParams", "quickshift_match_scale", "quickshift_segment"]


@dataclass(frozen=True)
class QuickShiftParams:
    """Bandwidth ``sigma`` (pixels), maximum link distance ``tau`` (pixels),
    and ``color_ratio`` weighting Lab channels relative to x/y."""

    sigma: float = 5.0
    tau: float = 10.0
    color_ratio: float = 0.5

    def __post_init__(self) -> None:
        # Comparisons that fail on NaN, so NaN is rejected too. The
        # density weights use 1 / (2 sigma^2), so both terms must be finite.
        two_sigma2 = 2.0 * self.sigma * self.sigma
        if not (self.sigma > 0 and 0 < two_sigma2 < math.inf
                and 1.0 / two_sigma2 < math.inf):
            raise ValueError(
                f"sigma must be > 0 with 1 / (2 sigma^2) finite, got {self.sigma}"
            )
        if not self.tau >= 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if not 0.0 <= self.color_ratio <= 1.0:
            raise ValueError(
                f"color_ratio must be in [0, 1], got {self.color_ratio}"
            )
        if self.tau <= self.sigma:
            warnings.warn(
                f"tau ({self.tau}) <= sigma ({self.sigma}); tau > sigma is "
                "recommended so links can span at least one bandwidth",
                stacklevel=2,
            )


def _sq_dist(color: np.ndarray, a, b, dy: int, dx: int) -> np.ndarray:
    """Squared 5-D feature distance from each pixel in ``a`` to its
    (dy, dx) neighbour in ``b``.

    ``color`` holds the three scaled Lab planes, shape (3, H, W). The
    x/y differences are exactly dx and dy, so their squares are added
    as scalars. Terms are summed in the order L, a, b, x, y: the order
    in which ``ndarray.sum(axis=2)`` reduces a stacked (H, W, 5)
    feature array, so the sums are the same floats.
    """
    diff = color[(slice(None), *b)] - color[(slice(None), *a)]
    diff *= diff
    d2 = diff[0] + diff[1]
    d2 += diff[2]
    d2 += dx * dx
    d2 += dy * dy
    return d2


def _offset_slices(h: int, w: int, dy: int, dx: int):
    """Slices (a, b) so that b is a shifted by (dy, dx), both in bounds."""
    ay0, ay1 = max(0, -dy), h - max(0, dy)
    ax0, ax1 = max(0, -dx), w - max(0, dx)
    a = (slice(ay0, ay1), slice(ax0, ax1))
    b = (slice(ay0 + dy, ay1 + dy), slice(ax0 + dx, ax1 + dx))
    return a, b


def quickshift_segment(
    lab: np.ndarray, params: QuickShiftParams
) -> SuperpixelPartition:
    """Segment a Lab image by Quick Shift mode seeking.

    Deterministic: every pixel starts as its own root, density sums
    accumulate per window offset in row-major order, distances sum
    their terms in a fixed order (see ``_sq_dist``), density ties go by
    the sign of the offset's index step dy*W + dx, and distance ties
    between link candidates go to the smaller row-major index. The link
    search skips window offsets whose spatial distance alone exceeds
    tau; no such offset can supply a link, so the labels are unchanged.
    """
    lab = check_lab_image(lab)
    h, w = lab.shape[:2]

    color = np.moveaxis(lab * params.color_ratio, 2, 0).copy()
    # Farther offsets leave the image; both passes walk the ones that overlap it.
    radius = min(int(math.ceil(3.0 * params.sigma)), max(h, w) - 1)
    window = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            a, b = _offset_slices(h, w, dy, dx)
            if a[0].start < a[0].stop and a[1].start < a[1].stop:
                window.append((dy, dx, a, b))

    inv_two_sigma2 = 1.0 / (2.0 * params.sigma**2)
    density = np.zeros((h, w))
    for dy, dx, a, b in window:
        d2 = _sq_dist(color, a, b, dy, dx)
        d2 *= -inv_two_sigma2
        density[a] += np.exp(d2)

    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    parent = idx.copy()
    best_d2 = np.full((h, w), np.inf)
    tau2 = params.tau**2
    for dy, dx, a, b in window:
        # d2 adds dx*dx and dy*dy (exact integers) to the nonnegative
        # colour terms, and rounding is monotone, so here
        # d2 >= dx*dx + dy*dy > tau2 and ``take`` would be all False.
        if (dy == 0 and dx == 0) or dy * dy + dx * dx > tau2:
            continue
        d2 = _sq_dist(color, a, b, dy, dx)
        # |dx| < w on an overlapping offset, so dy*w + dx is the index step.
        if dy * w + dx < 0:
            higher = density[b] >= density[a]
        else:
            higher = density[b] > density[a]
        take = higher & (d2 <= tau2) & (d2 < best_d2[a])
        best_d2[a][take] = d2[take]
        parent[a][take] = idx[b][take]

    roots = parent.ravel()
    while not np.array_equal(roots[roots], roots):
        roots = roots[roots]
    return relabel_contiguous(roots.reshape(h, w))


def quickshift_match_scale(
    lab: np.ndarray,
    params: QuickShiftParams,
    target_blocks: int,
    *,
    memo: dict[float, SuperpixelPartition] | None = None,
) -> SuperpixelPartition:
    """Sweep sigma downward until the block count reaches target_blocks / 2.

    ``target_blocks`` must be an integer >= 1.

    Quick Shift has no direct block-count control, so sigma is shrunk
    geometrically (factor 0.8, at most 8 attempts) and the last result
    is returned as-is even when the target is missed; a miss emits a
    ``UserWarning`` naming the target, the blocks delivered and the
    final sigma.

    ``memo`` maps sigma to the partition of ``lab`` under ``params``
    with that sigma. The sweep reads a sigma from it before segmenting
    and stores every new result in it, so calls that share one dict,
    one image and one ``params`` (as the scales of one cascade do)
    segment each sigma once. The sweep always starts at
    ``params.sigma``, so repeated sigmas are equal floats.
    """
    if not isinstance(target_blocks, Integral) or target_blocks < 1:
        raise ValueError(f"target_blocks must be an integer >= 1, got {target_blocks}")
    if memo is None:
        memo = {}
    sigma = params.sigma
    for attempt in range(8):
        if attempt:
            sigma *= 0.8
        part = memo.get(sigma)
        if part is None:
            part = quickshift_segment(lab, replace(params, sigma=sigma))
            memo[sigma] = part
        if part.num_blocks >= target_blocks / 2:
            return part
    warnings.warn(
        f"Quick Shift missed its target: {part.num_blocks} blocks for a "
        f"request of {target_blocks} (needs >= {target_blocks / 2:g}) "
        f"at final sigma {sigma:g}",
        stacklevel=2,
    )
    return part
