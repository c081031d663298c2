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

from .core import SuperpixelPartition, relabel_contiguous

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
        if self.compactness <= 0:
            raise ValueError(f"compactness must be > 0, got {self.compactness}")
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
    its nearest pixel, but only on strict improvement; an unmoved seed
    keeps its fractional grid position.
    """
    h, w = lab.shape[:2]
    spacing = np.sqrt(h * w / num_superpixels)
    n_y = max(1, round(h / spacing))
    n_x = max(1, round(w / spacing))
    step_y = h / n_y
    step_x = w / n_x
    grad = _lab_gradient(lab)

    centers = np.empty((n_y * n_x, 5))
    k = 0
    for i in range(n_y):
        for j in range(n_x):
            cy = (i + 0.5) * step_y - 0.5
            cx = (j + 0.5) * step_x - 0.5
            py = min(h - 1, max(0, int(round(cy))))
            px = min(w - 1, max(0, int(round(cx))))
            best = grad[py, px]
            best_pos = None
            for ny in range(max(0, py - 1), min(h, py + 2)):
                for nx in range(max(0, px - 1), min(w, px + 2)):
                    if grad[ny, nx] < best:
                        best = grad[ny, nx]
                        best_pos = (ny, nx)
            if best_pos is not None:
                py, px = best_pos
                cy, cx = float(py), float(px)
            centers[k, :3] = lab[py, px]
            centers[k, 3] = cx
            centers[k, 4] = cy
            k += 1
    return centers


def _assign(
    lab: np.ndarray, centers: np.ndarray, spacing: float, ratio: float
) -> np.ndarray:
    """One assignment sweep; returns the (H, W) label array.

    ``ratio`` is m^2 / S^2, the spatial weight in the squared combined
    distance d_c^2 + ratio * d_s^2. Clusters are visited in index order
    and a pixel switches only on strictly smaller distance, so ties go
    to the lowest cluster index. Pixels missed by every window are
    assigned by a full search over all centers.
    """
    h, w = lab.shape[:2]
    best = np.full((h, w), np.inf)
    labels = np.full((h, w), -1, dtype=np.int32)
    half = spacing

    for k in range(len(centers)):
        cl = centers[k, :3]
        cx, cy = centers[k, 3], centers[k, 4]
        y0 = max(0, int(np.floor(cy - half)))
        y1 = min(h, int(np.ceil(cy + half)) + 1)
        x0 = max(0, int(np.floor(cx - half)))
        x1 = min(w, int(np.ceil(cx + half)) + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        win = lab[y0:y1, x0:x1]
        d_c2 = ((win - cl) ** 2).sum(axis=2)
        yy = np.arange(y0, y1, dtype=np.float64)[:, None] - cy
        xx = np.arange(x0, x1, dtype=np.float64)[None, :] - cx
        d2 = d_c2 + ratio * (yy**2 + xx**2)
        view_best = best[y0:y1, x0:x1]
        view_labels = labels[y0:y1, x0:x1]
        better = d2 < view_best
        view_best[better] = d2[better]
        view_labels[better] = k

    missed = labels < 0
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
    lab = np.asarray(lab, dtype=np.float64)
    if lab.ndim != 3 or lab.shape[2] != 3:
        raise ValueError(f"lab image must have shape (H, W, 3), got {lab.shape}")
    h, w = lab.shape[:2]
    if h < 2 or w < 2:
        raise ValueError(f"image must be at least 2x2, got {h}x{w}")
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
    pairs = []
    a, b = comp[:, :-1].ravel(), comp[:, 1:].ravel()
    m = a != b
    pairs.append(np.stack([a[m], b[m]], axis=1))
    a, b = comp[:-1, :].ravel(), comp[1:, :].ravel()
    m = a != b
    pairs.append(np.stack([a[m], b[m]], axis=1))
    allp = np.concatenate(pairs, axis=0)
    if allp.size:
        allp = np.sort(allp, axis=1)
        uniq, counts = np.unique(allp, axis=0, return_counts=True)
    else:
        uniq, counts = np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    neighbors: list[dict[int, int]] = [dict() for _ in range(ncomp)]
    for (p, q), c in zip(uniq, counts):
        neighbors[int(p)][int(q)] = int(c)
        neighbors[int(q)][int(p)] = int(c)
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
