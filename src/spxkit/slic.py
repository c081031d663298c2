"""SLIC superpixels: windowed k-means in (L, a, b, x, y) space.

The clustering is fully deterministic: seeds start on a regular grid,
each seed is nudged to the lowest-gradient pixel in its 3x3
neighborhood, assignment searches a 2S x 2S window per cluster with a
strict-improvement update rule, and center updates accumulate in a
fixed row-major order. A connectivity pass then splits stray components
and absorbs fragments below a size floor, so the returned partition is
always valid and 4-connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .core import SuperpixelPartition, check_lab_image, relabel_contiguous

__all__ = ["SlicParams", "enforce_connectivity", "slic_segment"]


@dataclass(frozen=True)
class SlicParams:
    """Tuning knobs for :func:`slic_segment`.

    ``num_superpixels`` is the requested block count; the delivered count
    can deviate (grid rounding, connectivity merges) but stays within
    half the request on smooth inputs. ``compactness`` trades color
    fidelity against spatial regularity. ``min_region_fraction`` is the
    size floor for connectivity enforcement, as a fraction of S^2 where
    S = sqrt(H*W / num_superpixels).
    """

    num_superpixels: int
    compactness: float = 10.0
    max_iterations: int = 10
    residual_threshold: float = 0.25
    min_region_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.num_superpixels < 1:
            raise ValueError(
                f"num_superpixels must be >= 1, got {self.num_superpixels}"
            )
        if not 0 < self.compactness < np.inf:  # also rejects NaN
            raise ValueError(
                f"compactness must be finite and > 0, got {self.compactness}"
            )
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )


def _lab_gradient(lab: np.ndarray) -> np.ndarray:
    """Squared Lab difference of horizontal plus vertical neighbors.

    Central differences with edge-replicated borders, so the map is
    defined (and deterministic) at every pixel.
    """
    padded = np.pad(lab, ((1, 1), (1, 1), (0, 0)), mode="edge")
    dx = padded[1:-1, 2:] - padded[1:-1, :-2]
    dy = padded[2:, 1:-1] - padded[:-2, 1:-1]
    return (dx**2).sum(axis=2) + (dy**2).sum(axis=2)


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

    padded = np.pad(_lab_gradient(lab), 1, constant_values=np.inf)
    offsets = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    around = np.stack([padded[py + 1 + dy, px + 1 + dx] for dy, dx in offsets])
    moved = around.min(axis=0) < around[4]  # around[4] is the seed itself
    step = np.array(offsets)[np.argmin(around[:, moved], axis=0)]
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

    Clusters go in ascending chunks. Within a chunk every window is one
    fixed-size strided view of the Lab planes, anchored inside the image
    and masked to the cluster's own window, so the sweep runs no Python
    loop per cluster; a chunk holds about H*W/4 window pixels, which
    bounds the scratch memory by O(H*W).
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

    chunk = max(1, (h * w // 4) // (win_h * win_w))
    for lo in range(0, k, chunk):
        sl = slice(lo, min(k, lo + chunk))
        rows = oy[sl, None] + ry  # (n, win_h)
        cols = ox[sl, None] + rx  # (n, win_w)
        # Summed as ((dL^2 + da^2) + db^2), the order of .sum(axis=2).
        d2 = (windows[0][oy[sl], ox[sl]] - centers[sl, 0, None, None]) ** 2
        d2 += (windows[1][oy[sl], ox[sl]] - centers[sl, 1, None, None]) ** 2
        d2 += (windows[2][oy[sl], ox[sl]] - centers[sl, 2, None, None]) ** 2
        # An infinite offset outside the cluster's own window makes d2
        # inf (or NaN if ratio underflowed to 0); neither can win below.
        yy = rows - cy[sl, None]
        yy[(rows < y0[sl, None]) | (rows >= y1[sl, None])] = np.inf
        xx = cols - cx[sl, None]
        xx[(cols < x0[sl, None]) | (cols >= x1[sl, None])] = np.inf
        d2 += ratio * (yy[:, :, None] ** 2 + xx[:, None, :] ** 2)

        pix = (rows[:, :, None] * w + cols[:, None, :]).ravel()
        d2 = d2.ravel()
        before = best[pix]
        np.fmin.at(best, pix, d2)
        after = best[pix]
        labels[pix[after < before]] = k
        hit = np.flatnonzero(d2 == after)
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
    combined-distance units) drops below ``residual_threshold`` or
    ``max_iterations`` is reached, then enforces connectivity. The
    result is deterministic and always a valid partition.
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

    labels = None
    for _ in range(params.max_iterations):
        labels = _assign(lab, centers, spacing, ratio)
        new_centers = _update_centers(points, labels, centers)
        d_c2 = ((new_centers[:, :3] - centers[:, :3]) ** 2).sum(axis=1)
        d_s2 = ((new_centers[:, 3:] - centers[:, 3:]) ** 2).sum(axis=1)
        residual = float(np.mean(np.sqrt(d_c2 + ratio * d_s2)))
        centers = new_centers
        if residual < params.residual_threshold:
            break

    min_size = max(1, int(params.min_region_fraction * spacing**2))
    return enforce_connectivity(labels, min_size)


def _components_first_appearance(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of equal-label regions.

    One connected-components pass over the graph whose edges join
    4-adjacent pixels of equal label. Component ids are assigned in
    row-major first-appearance order.
    """
    h, w = labels.shape
    idx = np.arange(h * w).reshape(h, w)
    right = labels[:, :-1] == labels[:, 1:]
    down = labels[:-1, :] == labels[1:, :]
    src = np.concatenate([idx[:, :-1][right], idx[:-1, :][down]])
    dst = np.concatenate([idx[:, 1:][right], idx[1:, :][down]])
    graph = coo_matrix((np.ones_like(src), (src, dst)), shape=(h * w, h * w))
    _, flat = connected_components(graph, directed=False)
    uniq, first = np.unique(flat, return_index=True)
    order = np.argsort(first)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    return rank[flat].reshape(labels.shape), int(uniq.size)


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

    One ascending sweep over component ids merges ``r`` if it is still a
    root, below ``min_size`` and has a neighbour. This equals always
    merging the smallest eligible root: merges only grow sizes and
    neighbour maps only name roots, so a root the sweep has passed can
    never become eligible again.
    """
    arr = np.asarray(raw_labels)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("raw_labels must be a nonempty 2-D array")
    comp, ncomp = _components_first_appearance(arr)
    sizes = np.bincount(comp.ravel(), minlength=ncomp).astype(np.int64)
    neighbors = _border_neighbors(comp, ncomp)

    parent = np.arange(ncomp)
    for r in range(ncomp):
        if parent[r] != r or sizes[r] >= min_size or not neighbors[r]:
            continue
        target = max(neighbors[r].items(), key=lambda kv: (kv[1], -kv[0]))[0]
        parent[r] = target
        sizes[target] += sizes[r]
        for nbr, cnt in neighbors[r].items():
            if nbr == target:
                continue
            neighbors[target][nbr] = neighbors[target].get(nbr, 0) + cnt
            moved = neighbors[nbr].pop(r, 0)
            if moved:
                neighbors[nbr][target] = neighbors[nbr].get(target, 0) + moved
        neighbors[target].pop(r, None)
        neighbors[r] = {}

    # Each merge pointed at a root, so pointer jumping ends at the roots.
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    return relabel_contiguous(parent[comp])
