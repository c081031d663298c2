"""SLIC superpixels: windowed k-means in (L, a, b, x, y) space.

The clustering is fully deterministic: seeds start on a regular grid,
each seed is nudged to the lowest-gradient pixel in its 3x3
neighborhood, assignment searches a 2S x 2S window per cluster with a
strict-improvement update rule, and center updates accumulate in a
fixed row-major order. A connectivity pass then splits stray components
and absorbs fragments below a size floor, so the returned partition is
always valid and 4-connected. The components come from one raster
labelling (``scipy.ndimage.label``) of a grid that holds the pixels and
the links between equal-label 4-neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import SuperpixelPartition, check_lab_image, check_label_map, relabel_contiguous

__all__ = ["SlicParams", "enforce_connectivity", "slic_segment"]


# The fixed schedule: k-means stops after 10 iterations, or sooner once
# the mean center displacement (combined-distance units) drops below
# 0.25; connectivity then absorbs fragments under a quarter of S^2.
_MAX_ITERATIONS = 10
_RESIDUAL_THRESHOLD = 0.25
_MIN_REGION_FRACTION = 0.25


@dataclass(frozen=True)
class SlicParams:
    """Tuning knobs for :func:`slic_segment`.

    ``num_superpixels`` is the requested block count, an integer >= 1;
    the delivered count can deviate (grid rounding, connectivity merges)
    but stays within half the request on smooth inputs. ``compactness``
    trades color fidelity against spatial regularity. The k-means
    schedule (at most 10 iterations) and the connectivity size floor (a
    quarter of S^2, S = sqrt(H*W / num_superpixels)) are fixed.
    """

    num_superpixels: int
    compactness: float = 10.0

    def __post_init__(self) -> None:
        if not isinstance(self.num_superpixels, Integral) or self.num_superpixels < 1:
            raise ValueError(
                f"num_superpixels must be an integer >= 1, got {self.num_superpixels}"
            )
        # slic_segment squares it, so the square must be finite too;
        # comparisons that fail on NaN refuse NaN.
        c = self.compactness
        if not (0 < c < np.inf and float(c) * float(c) < np.inf):
            raise ValueError(
                f"compactness must be > 0 with a finite square, got {c}"
            )


def _initial_centers(lab: np.ndarray, num_superpixels: int) -> np.ndarray:
    """Seed centers as (L, a, b, x, y) rows, row-major grid order.

    Grid spacing is H/n_y and W/n_x with n = round(dim / S); spatial
    coordinates use the pixel-center convention ((i + 0.5) * step - 0.5)
    so a symmetric image splits into exactly equal blocks. Each seed is
    then moved to the lowest-gradient pixel in the 3x3 neighborhood of
    its nearest pixel, but only on strict improvement (first minimum in
    row-major order; neighbors off the image count as +inf); an unmoved
    seed keeps its fractional grid position.
    """
    h, w = lab.shape[:2]
    spacing = np.sqrt(h * w / num_superpixels)
    n_y = max(1, round(h / spacing))
    n_x = max(1, round(w / spacing))
    cy, cx = np.meshgrid(
        (np.arange(n_y) + 0.5) * (h / n_y) - 0.5,
        (np.arange(n_x) + 0.5) * (w / n_x) - 0.5,
        indexing="ij",
    )
    cy, cx = cy.ravel(), cx.ravel()
    py = np.clip(np.rint(cy).astype(np.intp), 0, h - 1)
    px = np.clip(np.rint(cx).astype(np.intp), 0, w - 1)

    # The gradient is taken only at the 9 neighbors of each seed: the
    # squared Lab central differences, horizontal plus vertical, with
    # edge-replicated borders; a neighbor off the image counts as +inf.
    offsets = np.array([(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
    ny = py + offsets[:, :1]  # (9, seeds)
    nx = px + offsets[:, 1:]
    off = (ny < 0) | (ny >= h) | (nx < 0) | (nx >= w)
    ny, nx = np.clip(ny, 0, h - 1), np.clip(nx, 0, w - 1)
    dx = lab[ny, np.minimum(nx + 1, w - 1)] - lab[ny, np.maximum(nx - 1, 0)]
    dy = lab[np.minimum(ny + 1, h - 1), nx] - lab[np.maximum(ny - 1, 0), nx]
    around = (dx**2).sum(axis=2) + (dy**2).sum(axis=2)
    around[off] = np.inf
    moved = around.min(axis=0) < around[4]  # around[4] is the seed itself
    step = offsets[np.argmin(around[:, moved], axis=0)]
    py[moved] += step[:, 0]
    px[moved] += step[:, 1]
    cy[moved] = py[moved]
    cx[moved] = px[moved]
    return np.column_stack([lab[py, px], cx, cy])


def _assign(
    lab: np.ndarray, centers: np.ndarray, spacing: float, ratio: float
) -> np.ndarray:
    """One assignment sweep; returns the (H, W) label array.

    ``ratio`` is m^2 / S^2, the spatial weight in the squared combined
    distance d_c^2 + ratio * d_s^2. Each cluster searches the pixels of
    its clipped window [floor(c - S), ceil(c + S)]; a pixel takes the
    smallest distance, ties going to the lowest cluster index, which is
    what a sweep over clusters in index order with a strict-improvement
    update gives. Pixels missed by every window are assigned by a full
    search over all centers.

    Within a chunk of clusters every window is one fixed-size strided
    view of the Lab planes, anchored inside the image and masked to the
    cluster's own window, so the sweep runs no Python loop per cluster;
    a chunk holds about H*W/2 window pixels, which bounds the scratch
    memory by O(H*W).

    Chunks go in descending cluster order. After a chunk's ``fmin`` a
    window entry whose distance equals its pixel's best has improved or
    tied that best, and its cluster index is below every label already
    written there, since those came from the higher-index chunks walked
    before it. One ``minimum`` over those entries therefore keeps the
    smallest distance with ties to the lowest index: a label left by a
    distance that has since been beaten is always replaced, so no label
    is reset between chunks.
    """
    h, w = lab.shape[:2]
    k = len(centers)
    best = np.full(h * w, np.inf)
    labels = np.full(h * w, k, dtype=np.intp)  # above every index, for minimum.at

    cy, cx = centers[:, 4], centers[:, 3]
    y0 = np.clip(np.floor(cy - spacing), 0, h).astype(np.intp)
    y1 = np.clip(np.ceil(cy + spacing) + 1, 0, h).astype(np.intp)
    x0 = np.clip(np.floor(cx - spacing), 0, w).astype(np.intp)
    x1 = np.clip(np.ceil(cx + spacing) + 1, 0, w).astype(np.intp)
    win_h = max(1, int((y1 - y0).max()))
    win_w = max(1, int((x1 - x0).max()))
    # Window origins, shifted inside the image; the mask trims the rest.
    oy = np.minimum(y0, h - win_h)
    ox = np.minimum(x0, w - win_w)
    planes = np.moveaxis(lab, 2, 0)
    windows = np.lib.stride_tricks.sliding_window_view(
        planes, (win_h, win_w), axis=(1, 2)
    )
    ry = np.arange(win_h)
    rx = np.arange(win_w)

    chunk = max(1, (h * w // 2) // (win_h * win_w))
    # An infinite offset outside a cluster's own window makes d2 inf, or
    # NaN (0 * inf) if ratio underflowed to 0; neither equals a best.
    with np.errstate(invalid="ignore"):
        for lo in reversed(range(0, k, chunk)):
            sl = slice(lo, min(k, lo + chunk))
            rows = oy[sl, None] + ry  # (n, win_h)
            cols = ox[sl, None] + rx  # (n, win_w)
            # Summed as ((dL^2 + da^2) + db^2), the order of .sum(axis=2),
            # on the gathered window copies.
            d2 = windows[0][oy[sl], ox[sl]]
            d2 -= centers[sl, 0, None, None]
            d2 *= d2
            for c in (1, 2):
                t = windows[c][oy[sl], ox[sl]]
                t -= centers[sl, c, None, None]
                t *= t
                d2 += t
            yy = rows - cy[sl, None]
            yy[(rows < y0[sl, None]) | (rows >= y1[sl, None])] = np.inf
            xx = cols - cx[sl, None]
            xx[(cols < x0[sl, None]) | (cols >= x1[sl, None])] = np.inf
            np.add(yy[:, :, None] ** 2, xx[:, None, :] ** 2, out=t)  # t is free again
            t *= ratio
            d2 += t

            pix = (rows[:, :, None] * w + cols[:, None, :]).ravel()
            d2 = d2.ravel()
            np.fmin.at(best, pix, d2)
            hit = np.flatnonzero(d2 == best[pix])
            np.minimum.at(labels, pix[hit], lo + hit // (win_h * win_w))

    labels = labels.reshape(h, w).astype(np.int32)
    missed = (best == np.inf).reshape(h, w)  # no window offered d2 < inf
    if missed.any():
        ys, xs = np.nonzero(missed)
        pts = np.concatenate(
            [lab[ys, xs], xs[:, None].astype(np.float64), ys[:, None].astype(np.float64)],
            axis=1,
        )
        d_c2 = ((pts[:, None, :3] - centers[None, :, :3]) ** 2).sum(axis=2)
        d_s2 = ((pts[:, None, 3:] - centers[None, :, 3:]) ** 2).sum(axis=2)
        labels[ys, xs] = np.argmin(d_c2 + ratio * d_s2, axis=1).astype(np.int32)
    return labels


def _update_centers(
    points: np.ndarray, labels: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Recompute centers as member means; empty clusters keep their center.

    ``points`` is the (5, H*W) array of pixel (L, a, b, x, y) rows. Sums
    use np.bincount over the row-major pixel order, which fixes the
    accumulation order and keeps reruns bit-identical.
    """
    k = len(centers)
    flat = labels.ravel()
    counts = np.bincount(flat, minlength=k).astype(np.float64)
    new = np.empty_like(centers)
    for c in range(5):
        new[:, c] = np.bincount(flat, weights=points[c], minlength=k)
    nonempty = counts > 0
    new[nonempty] /= counts[nonempty, None]
    new[~nonempty] = centers[~nonempty]
    return new


def slic_segment(lab: np.ndarray, params: SlicParams) -> SuperpixelPartition:
    """Segment a Lab image into roughly ``params.num_superpixels`` blocks.

    Runs windowed k-means until the mean center displacement (in
    combined-distance units) drops below 0.25 or 10 iterations are done,
    then enforces connectivity with a size floor of a quarter of S^2
    (S = sqrt(H*W / num_superpixels)). The result is deterministic and
    always a valid partition.
    """
    lab = check_lab_image(lab)
    h, w = lab.shape[:2]
    if params.num_superpixels > h * w:
        raise ValueError(
            f"num_superpixels {params.num_superpixels} exceeds pixel count {h * w}"
        )

    spacing = np.sqrt(h * w / params.num_superpixels)
    ratio = params.compactness**2 / spacing**2
    centers = _initial_centers(lab, params.num_superpixels)
    yx = np.indices((h, w), dtype=np.float64).reshape(2, -1)
    points = np.vstack([lab.reshape(-1, 3).T, yx[::-1]])  # rows L, a, b, x, y

    for _ in range(_MAX_ITERATIONS):
        labels = _assign(lab, centers, spacing, ratio)
        new_centers = _update_centers(points, labels, centers)
        d_c2 = ((new_centers[:, :3] - centers[:, :3]) ** 2).sum(axis=1)
        d_s2 = ((new_centers[:, 3:] - centers[:, 3:]) ** 2).sum(axis=1)
        residual = float(np.mean(np.sqrt(d_c2 + ratio * d_s2)))
        centers = new_centers
        if residual < _RESIDUAL_THRESHOLD:
            break

    min_size = max(1, int(_MIN_REGION_FRACTION * spacing**2))
    return enforce_connectivity(labels, min_size)


def _components_first_appearance(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of equal-label regions.

    One raster labelling of a (2H-1) x (2W-1) bool grid: pixels sit at
    the even/even nodes, and the node between two 4-adjacent pixels is
    set when their labels are equal (odd/odd nodes stay unset), so the
    4-connected components of the grid are those of the label map. The
    first node of each grid component in raster order is a pixel, so
    ``ndi.label``'s ids already follow row-major first appearance.
    scipy.ndimage loads at the first call, not when spxkit is imported.
    """
    from scipy import ndimage as ndi

    h, w = labels.shape
    grid = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    grid[::2, ::2] = True
    grid[::2, 1::2] = labels[:, :-1] == labels[:, 1:]
    grid[1::2, ::2] = labels[:-1, :] == labels[1:, :]
    nodes, ncomp = ndi.label(grid)
    return np.subtract(nodes[::2, ::2], 1, dtype=np.int64), ncomp


def _border_neighbors(comp: np.ndarray, ncomp: int) -> list[dict[int, int]]:
    """Per-component map of adjacent component -> shared border length.

    Border length counts 4-adjacent pixel pairs with different
    component ids (each pair once).
    """
    keys = []
    for a, b in ((comp[:, :-1], comp[:, 1:]), (comp[:-1, :], comp[1:, :])):
        a, b = a.ravel(), b.ravel()
        m = a != b
        keys.append(np.minimum(a[m], b[m]) * ncomp + np.maximum(a[m], b[m]))
    # lo * ncomp + hi sorts like the (lo, hi) pairs, since hi < ncomp.
    uniq, counts = np.unique(np.concatenate(keys), return_counts=True)
    neighbors: list[dict[int, int]] = [dict() for _ in range(ncomp)]
    for key, c in zip(uniq.tolist(), counts.tolist()):
        p, q = divmod(key, ncomp)
        neighbors[p][q] = c
        neighbors[q][p] = c
    return neighbors


def enforce_connectivity(
    raw_labels: np.ndarray, min_size: int
) -> SuperpixelPartition:
    """Split disconnected label regions and absorb undersized fragments.

    Every connected component becomes its own block; components smaller
    than ``min_size`` are merged into the adjacent region sharing the
    longest border (ties: smallest component id in row-major
    first-appearance order). Merges accumulate, so a fragment absorbed
    early still follows its host through later merges.

    Components come from one raster labelling of a grid of pixels and
    equal-label links (see ``_components_first_appearance``).
    ``raw_labels`` must be a nonempty 2-D integer array. One ascending
    sweep over component ids merges ``r`` if it is below ``min_size`` and
    has a neighbour; ``r`` is still a root then, since only its own step
    points it elsewhere. This equals always merging the smallest eligible
    root: merges only grow sizes and neighbour maps only name roots, so a
    root the sweep has passed can never become eligible again.
    """
    comp, ncomp = _components_first_appearance(check_label_map(raw_labels))
    sizes = np.bincount(comp.ravel(), minlength=ncomp).astype(np.int64)
    neighbors = _border_neighbors(comp, ncomp)

    parent = np.arange(ncomp)
    for r in range(ncomp):
        if sizes[r] >= min_size or not neighbors[r]:
            continue
        target = max(neighbors[r].items(), key=lambda kv: (kv[1], -kv[0]))[0]
        parent[r] = target
        sizes[target] += sizes[r]
        for nbr, cnt in neighbors[r].items():
            if nbr == target:
                continue
            neighbors[target][nbr] = neighbors[target].get(nbr, 0) + cnt
            # The maps stay symmetric with counts >= 1: nbr's holds r with cnt.
            del neighbors[nbr][r]
            neighbors[nbr][target] = neighbors[nbr].get(target, 0) + cnt
        neighbors[target].pop(r, None)
        neighbors[r] = {}

    # Each merge pointed at a root, so pointer jumping ends at the roots.
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    return relabel_contiguous(parent[comp])
