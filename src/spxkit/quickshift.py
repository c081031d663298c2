"""Quick Shift superpixels: mode seeking on a Parzen density estimate.

Each pixel carries a 5-D feature (scaled L, a, b, x, y). Density is a
truncated Gaussian sum over a square window of radius ceil(3*sigma)
(capped at max(H, W) - 1: every farther offset leaves the image),
which is also the search window for links. Every pixel starts as its
own root and links to its nearest neighbor of strictly higher density,
provided the 5-D distance is at most tau; on equal density, the neighbor
at offset (dy, dx) ranks higher when its row-major index step dy*W + dx
is negative. Of equally near neighbors, the one with the smallest index
step wins. The links form a forest and each tree is one superpixel.

The distance to a window offset does not depend on sigma, so several
sigmas share one walk over the widest window: each offset's distance is
computed once and weighted by every sigma whose window holds it
(``_parents``). ``quickshift_segment`` is the walk at one sigma;
``quickshift_match_scale`` tries its first sigma alone and, on a miss,
segments the rest of its ladder in one walk.

Links are searched nearest-first. A squared 5-D distance is at least
the squared spatial one, dy^2 + dx^2, so after the 8 nearest offsets a
pixel whose best distance is below 2 pixels is settled; only the rest
are linked afresh over every link offset, gathered in place. Where
most pixels stay open, as on noisy images, a sigma walks all its link
offsets row by row instead. Offsets beyond tau are never searched.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SuperpixelPartition, check_count, check_lab_image, relabel_contiguous

__all__ = ["QuickShiftParams", "quickshift_match_scale", "quickshift_segment"]

# A sigma links by gathering (``_link_gather``) while at most this share
# of its pixels is still open after the 8 nearest offsets, and by the
# row-major walk (``_link_walk``) above it. At 96^2 on a 2-core Xeon a
# gathered (pixel, offset) pair costs 5-6.5 times a contiguous one in a
# walk at one sigma, and 12-14 times its per-sigma share in a
# seven-sigma walk; 1/8 lies between the two break-even shares.
_DENSE_OPEN = 1 / 8


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


def _sq_dist(planes: np.ndarray, w: int, offset, scratch: np.ndarray) -> np.ndarray:
    """Squared 5-D feature distance from each pixel of the run of
    ``offset`` (an entry of ``_window``) to its neighbour, +inf in the
    columns outside x0:x1, in the first row of ``scratch``.

    ``planes`` holds the three scaled Lab planes in the padded layout,
    shape (3, (H + 2 pad) * W); ``scratch`` has shape (3, H*W), and its
    other two rows are free once this returns. The x/y differences are
    exactly dx and dy, so their squares are added as scalars. Terms are
    summed in the order L, a, b, x, y: the order in which
    ``ndarray.sum(axis=2)`` reduces a stacked (H, W, 5) feature array,
    so the sums are the same floats.
    """
    dy, dx, x0, x1, run, nbr, _ = offset
    diff = scratch[:3, :run.stop - run.start]
    np.subtract(planes[:, nbr], planes[:, run], out=diff)
    diff *= diff
    d2 = np.add(diff[0], diff[1], out=diff[0])
    d2 += diff[2]
    d2 += dx * dx
    d2 += dy * dy
    by_row = d2.reshape(-1, w)
    by_row[:, :x0] = np.inf  # these columns wrapped to another row
    by_row[:, x1:] = np.inf
    return d2


def _window(h: int, w: int, radii: list[int], pad: int) -> list:
    """The offsets (dy, dx) within the largest of ``radii`` that overlap
    an H x W image, in row-major order, each as (dy, dx, x0, x1, run,
    nbr, held). Columns x0:x1 hold the pixels whose (dy, dx) neighbour
    is in the image; ``run`` is the whole rows those pixels span and
    ``nbr`` their neighbours, as two runs of the layout with ``pad``
    rows on each side (see ``_parents``); ``held`` lists the indices of
    the radii that hold the offset."""
    radius = max(radii)
    # by_ring[m]: the radii indices that hold ring m, shared by its offsets.
    by_ring = [[k for k, r in enumerate(radii) if m <= r] for m in range(radius + 1)]
    window = []
    for dy in range(-radius, radius + 1):
        y0, y1 = max(0, -dy), h - max(0, dy)
        if y0 >= y1:
            continue
        run = slice((y0 + pad) * w, (y1 + pad) * w)
        for dx in range(-radius, radius + 1):
            x0, x1 = max(0, -dx), w - max(0, dx)
            if x0 < x1:
                step = dy * w + dx
                nbr = slice(run.start + step, run.stop + step)
                window.append((dy, dx, x0, x1, run, nbr, by_ring[max(abs(dy), abs(dx))]))
    return window


def _link_walk(
    planes: np.ndarray, w: int, offsets: list, ks: list[int], density: list,
    best_d2: list, parent: list, idx: np.ndarray, scratch: np.ndarray,
) -> None:
    """Link each pixel, for each sigma index in ``ks``, over ``offsets``
    (entries of ``_window``) in row-major order: an offset whose
    neighbour has higher density replaces the link when its d2 is
    strictly below the best so far. A pixel's best starts just above
    tau^2 (see ``_parents``), so no link is longer than tau."""
    for offset in offsets:
        dy, dx, _, _, run, nbr, held = offset
        here = [k for k in held if k in ks]
        if not here:
            continue
        d2 = _sq_dist(planes, w, offset, scratch)
        # |dx| < w on an overlapping offset, so dy*w + dx is the index step.
        ties_up = dy * w + dx < 0
        for k in here:
            dens, best = density[k], best_d2[k][run]
            if ties_up:
                higher = dens[nbr] >= dens[run]
            else:
                higher = dens[nbr] > dens[run]
            take = higher & (d2 < best)
            np.copyto(best, d2, where=take)
            np.copyto(parent[k][run], idx[nbr], where=take)


def _link_gather(
    planes: np.ndarray, w: int, inner: slice, links: list, jobs: list,
    density: list, best_d2: list, parent: list, unlinked: float,
) -> None:
    """For each (sigma index k, flat pixel indices) of ``jobs``, link
    those pixels afresh over every offset of ``links`` (entries of
    ``_window``) that sigma k's window holds, gathered in place from the
    padded layout whose image rows are ``inner`` (see ``_parents``).

    A pixel takes its lexicographically least (d2, index step) eligible
    candidate, or no link when it has none; its link and best d2 before
    the call are not read. ``unlinked`` is the best d2 of a pixel with
    no link, the float just above tau^2: a candidate must be below it.
    A chunk of max(1, H*W/4 // offsets) pixels meets every offset at
    once, so scratch arrays hold at most max(H*W/4, offsets) (pixel,
    offset) pairs; fewer than 4*H*W offsets overlap the image.
    """
    for k, pixels in jobs:
        offsets = [o for o in links if k in o[-1]]
        dens, best, link = density[k], best_d2[k][inner], parent[k][inner]
        dys, dxs, x0s, x1s = (np.array([o[i] for o in offsets]) for i in range(4))
        steps = dys * w + dxs
        dxx, dyy = (dxs * dxs).astype(np.float64), (dys * dys).astype(np.float64)
        split = int(np.count_nonzero(steps < 0))  # row-major: these come first
        at, xs = inner.start + pixels[:, None], pixels[:, None] % w  # position, column
        n = max(1, (inner.stop - inner.start) // 4 // len(offsets))
        for p0 in range(0, pixels.size, n):
            pix, q, x = pixels[p0:p0 + n], at[p0:p0 + n], xs[p0:p0 + n]
            nb = q + steps
            dq, dn = dens[q], dens[nb]
            refused = np.empty(dn.shape, dtype=bool)  # fails the density rule,
            np.less(dn[:, :split], dq, out=refused[:, :split])  # as padding rows do,
            np.less_equal(dn[:, split:], dq, out=refused[:, split:])
            refused |= x < x0s  # or its column wrapped into another row
            refused |= x >= x1s
            d2 = planes[0][nb]  # summed as in _sq_dist, so the same floats
            d2 -= planes[0][q]
            d2 *= d2
            for c in (1, 2):
                t = planes[c][nb]
                t -= planes[c][q]
                t *= t
                d2 += t
            d2 += dxx
            d2 += dyy
            np.copyto(d2, np.inf, where=refused)
            # The least d2 of a higher neighbour is eligible if it is
            # at most tau^2; if it is not, no candidate of this pixel is.
            j = d2.argmin(axis=1)  # the first: ties go to the smaller step
            got = d2[np.arange(j.size), j]
            best[pix] = np.minimum(got, unlinked)
            link[pix] = np.where(got < unlinked, pix + steps[j], pix)


def _parents(
    lab: np.ndarray, params: QuickShiftParams, sigmas: list[float]
) -> list[np.ndarray]:
    """Each pixel's link at each of ``sigmas`` (usable bandwidths, see
    ``_check_sigma``), with the tau and colour ratio of ``params``, on a
    checked Lab image: flat (H*W) arrays of parent indices, in which a
    root is its own parent.

    One walk over the widest window computes each offset's distance
    once for every sigma. Each sigma accumulates density over the
    offsets its own window holds, in that window's row-major order, so
    every density equals the one a walk at that sigma alone gives.

    A pixel links to the eligible offset (its neighbour has higher
    density, d2 <= tau^2) with the least (d2, index step dy*W + dx).
    Links are searched nearest-first: every pixel first takes the 8
    offsets with dy^2 + dx^2 <= 2. Every other offset has d2 >= 4 (see
    below), so only the pixels whose best d2 is still >= 4 are linked
    again, afresh over every link offset of their sigma, gathered
    (``_link_gather``). A sigma with more than ``_DENSE_OPEN`` of its
    pixels open starts over with the row-major walk over all its link
    offsets instead (``_link_walk``), which the sigmas taking it share.

    Per-pixel arrays share one layout: flat, row-major, with 1 + reach
    padding rows on each side of the image, reach being the largest
    |dy| of a link offset. The whole rows an offset's pixels span, and
    their neighbours, are then two runs (``_window``), and every link
    neighbour, at a pixel's position plus dy*W + dx, lies in the layout.
    Padding rows have density 0, below any pixel's (its own offset adds
    exp(0) = 1), and never link; nor do the columns outside an offset's
    x0:x1, which wrapped into another row. Those get d2 = +inf, which
    adds exp(-inf) = 0 to a density.
    """
    h, w = lab.shape[:2]
    # Farther offsets leave the image; both passes walk the ones that overlap it.
    radii = [min(int(math.ceil(3.0 * s)), max(h, w) - 1) for s in sigmas]
    pad = 1 + int(min(params.tau, max(radii), h - 1))  # 1 + the reach of a link
    size = (h + 2 * pad) * w
    inner = slice(pad * w, (pad + h) * w)  # the image rows

    planes = np.zeros((3, size))
    planes[:, inner] = np.moveaxis(lab * params.color_ratio, 2, 0).reshape(3, -1)
    scratch = np.empty((3, h * w))  # see _sq_dist
    window = _window(h, w, radii, pad)

    neg_inv_two_sigma2 = [-(1.0 / (2.0 * s**2)) for s in sigmas]
    density = [np.zeros(size) for _ in sigmas]
    # A tiny sigma can overflow d2 * (-1 / (2 sigma^2)) to -inf, and
    # exp(-inf) = 0 is the weight wanted for so distant a neighbour.
    with np.errstate(over="ignore"):
        for offset in window:
            d2 = _sq_dist(planes, w, offset, scratch)
            term = scratch[1, :d2.size]
            run, held = offset[4], offset[-1]
            for k in held:
                np.multiply(d2, neg_inv_two_sigma2[k], out=term)
                density[k][run] += np.exp(term, out=term)

    idx = np.arange(size, dtype=np.int64) - inner.start  # the pixel index at each position
    parent = [idx.copy() for _ in sigmas]
    tau2 = params.tau**2 if params.tau < 2.0**512 else math.inf  # a square >= 2^1024 is inf
    # Every best starts just above tau2, so "d2 < best" also means d2 <= tau2.
    unlinked = float(np.nextafter(tau2, np.inf))
    best_d2 = [np.full(size, unlinked) for _ in sigmas]
    # d2 adds dx*dx and dy*dy (exact integers) to the nonnegative colour
    # terms, and rounding is monotone, so d2 >= dx*dx + dy*dy: no offset
    # beyond tau links, and none with dx*dx + dy*dy above a pixel's best
    # d2 can beat it.
    links = [o for o in window if 0 < o[0] ** 2 + o[1] ** 2 <= tau2]
    nearest = [o for o in links if o[0] ** 2 + o[1] ** 2 <= 2]  # the rest are >= 4
    every = range(len(sigmas))
    _link_walk(planes, w, nearest, every, density, best_d2, parent, idx, scratch)
    jobs, dense = [], []
    for k in every:
        is_open = best_d2[k][inner] >= 4.0
        n_open = np.count_nonzero(is_open)
        # Settled, or every link offset of sigma k is among the 8 nearest: a
        # radius >= 2 (capped at max(H, W) - 1) holds (0, 2) or (2, 0), at d2 4.
        if not n_open or radii[k] < 2 or tau2 < 4:
            continue
        if n_open > _DENSE_OPEN * h * w:
            dense.append(k)
        else:
            jobs.append((k, np.flatnonzero(is_open)))
    _link_gather(planes, w, inner, links, jobs, density, best_d2, parent, unlinked)
    for k in dense:
        best_d2[k].fill(unlinked)
        parent[k][:] = idx
    if dense:
        _link_walk(planes, w, links, dense, density, best_d2, parent, idx, scratch)
    return [p[inner] for p in parent]


def _segment_sigmas(
    lab: np.ndarray, params: QuickShiftParams, sigmas: list[float]
) -> list[SuperpixelPartition]:
    """Quick Shift at each of ``sigmas`` (usable bandwidths, see
    ``_check_sigma``) with the tau and colour ratio of ``params``; every
    partition equals the one a walk at that sigma alone gives (see
    ``_parents``)."""
    lab = check_lab_image(lab)
    h, w = lab.shape[:2]
    parts = []
    for roots in _parents(lab, params, sigmas):
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
    search is nearest-first and skips only offsets whose spatial
    distance alone exceeds tau or a pixel's best link distance after
    its 8 nearest offsets, so the labels are those of a full search.
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
    check_count("target_blocks", target_blocks)
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
