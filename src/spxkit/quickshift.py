"""Quick Shift superpixels: mode seeking on a Parzen density estimate.

Each pixel carries a 5-D feature (scaled L, a, b, x, y). Density is a
truncated Gaussian sum over a square window of radius ceil(3*sigma)
(capped at max(H, W) - 1: every farther offset leaves the image),
which is also the search window for links. Every pixel starts as its
own root and links to its nearest neighbor of strictly higher density,
provided the 5-D distance is at most tau; on equal density, the neighbor
at offset (dy, dx) ranks higher when its row-major index step dy*W + dx
is negative. The links form a forest and each tree is one superpixel.

The distance to a window offset does not depend on sigma, so several
sigmas share one walk over the widest window: each offset's distance is
computed once and weighted by every sigma whose window holds it
(``_segment_sigmas``). ``quickshift_segment`` is the walk at one sigma;
``quickshift_match_scale`` tries its first sigma alone and, on a miss,
segments the rest of its ladder in one walk.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
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
        _check_sigma(self.sigma)
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
                stacklevel=3,  # past the generated __init__, to the caller
            )


def _sigma_usable(sigma: float) -> bool:
    # Comparisons that fail on NaN, so NaN is refused too. The density
    # weights use 1 / (2 sigma^2), so both terms must be finite.
    two_sigma2 = 2.0 * sigma * sigma
    return sigma > 0 and 0 < two_sigma2 < math.inf and 1.0 / two_sigma2 < math.inf


def _check_sigma(sigma: float) -> None:
    if not _sigma_usable(sigma):
        raise ValueError(f"sigma must be > 0 with 1 / (2 sigma^2) finite, got {sigma}")


def _offset_slices(h: int, w: int, dy: int, dx: int):
    """Slices (a, b) so that b is a shifted by (dy, dx), both in bounds."""
    ay0, ay1 = max(0, -dy), h - max(0, dy)
    ax0, ax1 = max(0, -dx), w - max(0, dx)
    a = (slice(ay0, ay1), slice(ax0, ax1))
    b = (slice(ay0 + dy, ay1 + dy), slice(ax0 + dx, ax1 + dx))
    return a, b


def _runs(w: int, a, dy: int, dx: int) -> tuple[slice, slice]:
    """The whole rows of ``a``, and the (dy, dx) neighbours of their
    pixels, as two runs of the padded layout (see ``_segment_sigmas``)."""
    start, stop = (a[0].start + 1) * w, (a[0].stop + 1) * w
    step = dy * w + dx
    return slice(start, stop), slice(start + step, stop + step)


def _sq_dist(
    planes: np.ndarray, w: int, a, dy: int, dx: int, scratch: np.ndarray
) -> np.ndarray:
    """Squared 5-D feature distance from each pixel in the whole rows
    of ``a`` to its (dy, dx) neighbour, +inf in the columns outside
    ``a``, in the first row of ``scratch``.

    ``planes`` holds the three scaled Lab planes in the padded layout,
    shape (3, (H + 2) * W); ``scratch`` has shape (3, H*W), and its
    other two rows are free once this returns. The x/y differences are
    exactly dx and dy, so their squares are added as scalars. Terms are
    summed in the order L, a, b, x, y: the order in which
    ``ndarray.sum(axis=2)`` reduces a stacked (H, W, 5) feature array,
    so the sums are the same floats.
    """
    run, nbr = _runs(w, a, dy, dx)
    n = run.stop - run.start
    diff = scratch[:3, :n]
    np.subtract(planes[:, nbr], planes[:, run], out=diff)
    diff *= diff
    d2 = np.add(diff[0], diff[1], out=diff[0])
    d2 += diff[2]
    d2 += dx * dx
    d2 += dy * dy
    by_row = d2.reshape(-1, w)
    by_row[:, :a[1].start] = np.inf  # these columns wrapped to another row
    by_row[:, a[1].stop:] = np.inf
    return d2


def _segment_sigmas(
    lab: np.ndarray, params: QuickShiftParams, sigmas: list[float]
) -> list[SuperpixelPartition]:
    """Quick Shift at each of ``sigmas`` (usable bandwidths, see
    ``_check_sigma``) with the tau and colour ratio of ``params``.

    One walk over the widest window computes each offset's distance
    once for every sigma, and one walk over the link offsets computes
    it once more. Each sigma accumulates density and links over the
    offsets its own window holds, in that window's row-major order, so
    every partition equals the one a walk at that sigma alone gives.
    Each extra sigma costs three H*W arrays: density, link distance and
    parent.

    Per-pixel arrays use a padded layout: flat, row-major, with one row
    before the image and one after. The whole rows an offset's pixels
    span, and their neighbours, are then two runs (``_runs``), so every
    step works on one contiguous run. The columns a shift wraps into
    another row get d2 = +inf: they add exp(-inf) = 0 to a density,
    which leaves it unchanged, and never link.
    """
    lab = check_lab_image(lab)
    h, w = lab.shape[:2]
    size = (h + 2) * w

    planes = np.zeros((3, size))
    planes[:, w:-w] = np.moveaxis(lab * params.color_ratio, 2, 0).reshape(3, -1)
    scratch = np.empty((3, h * w))  # see _sq_dist
    # Farther offsets leave the image; both passes walk the ones that overlap it.
    radii = [min(int(math.ceil(3.0 * s)), max(h, w) - 1) for s in sigmas]
    radius = max(radii)
    window = []  # (dy, dx, a, its runs, indices of the sigmas whose window holds it)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            a, _ = _offset_slices(h, w, dy, dx)
            if a[0].start < a[0].stop and a[1].start < a[1].stop:
                reach = max(abs(dy), abs(dx))
                held = [k for k, r in enumerate(radii) if reach <= r]
                window.append((dy, dx, a, *_runs(w, a, dy, dx), held))

    neg_inv_two_sigma2 = [-(1.0 / (2.0 * s**2)) for s in sigmas]
    density = [np.zeros(size) for _ in sigmas]
    # A tiny sigma can overflow d2 * (-1 / (2 sigma^2)) to -inf, and
    # exp(-inf) = 0 is the weight wanted for so distant a neighbour.
    with np.errstate(over="ignore"):
        for dy, dx, a, run, _, held in window:
            d2 = _sq_dist(planes, w, a, dy, dx, scratch)
            term = scratch[1, :d2.size]
            for k in held:
                np.multiply(d2, neg_inv_two_sigma2[k], out=term)
                density[k][run] += np.exp(term, out=term)

    idx = np.arange(-w, size - w, dtype=np.int64)  # the pixel index at each position
    parent = [idx.copy() for _ in sigmas]
    best_d2 = [np.full(size, np.inf) for _ in sigmas]
    tau2 = params.tau**2
    for dy, dx, a, run, nbr, held in window:
        # d2 adds dx*dx and dy*dy (exact integers) to the nonnegative
        # colour terms, and rounding is monotone, so here
        # d2 >= dx*dx + dy*dy > tau2 and ``take`` would be all False.
        if (dy == 0 and dx == 0) or dy * dy + dx * dx > tau2:
            continue
        d2 = _sq_dist(planes, w, a, dy, dx, scratch)
        near = d2 <= tau2
        # |dx| < w on an overlapping offset, so dy*w + dx is the index step.
        ties_up = dy * w + dx < 0
        for k in held:
            dens, best = density[k], best_d2[k][run]
            if ties_up:
                higher = dens[nbr] >= dens[run]
            else:
                higher = dens[nbr] > dens[run]
            take = higher & near & (d2 < best)
            np.copyto(best, d2, where=take)
            np.copyto(parent[k][run], idx[nbr], where=take)

    del planes, scratch, density, best_d2  # only the links are read from here on
    parts = []
    for links in parent:
        roots = links[w:-w]
        while not np.array_equal(roots[roots], roots):
            roots = roots[roots]
        parts.append(relabel_contiguous(roots.reshape(h, w)))
    return parts


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
    (part,) = _segment_sigmas(lab, params, [params.sigma])
    return part


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
    final sigma. A sigma of the ladder that is too small for the
    density kernel raises ``ValueError`` when the sweep reaches it.

    The sweep segments in at most two walks: ``params.sigma`` alone,
    then, if that misses, every later sigma of the ladder at once (see
    ``_segment_sigmas``), up to the first one that is too small.

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
    ladder = [params.sigma]
    for _ in range(7):
        ladder.append(ladder[-1] * 0.8)
    for attempt, sigma in enumerate(ladder):
        if sigma not in memo:
            _check_sigma(sigma)
            if attempt == 0:
                memo[sigma] = quickshift_segment(lab, params)
            else:  # the rest of the ladder in one walk, up to an unusable sigma
                rest = [s for s in itertools.takewhile(_sigma_usable, ladder[attempt:])
                        if s not in memo]
                memo.update(zip(rest, _segment_sigmas(lab, params, rest)))
        part = memo[sigma]
        if part.num_blocks >= target_blocks / 2:
            return part
    warnings.warn(
        f"Quick Shift missed its target: {part.num_blocks} blocks for a "
        f"request of {target_blocks} (needs >= {target_blocks / 2:g}) "
        f"at final sigma {sigma:g}",
        stacklevel=2,
    )
    return part
