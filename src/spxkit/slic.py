"""SLIC superpixels: windowed k-means in (L, a, b, x, y) space.

The clustering is fully deterministic: seeds start on a regular grid,
each seed is nudged to the lowest-gradient pixel in its 3x3
neighborhood, assignment searches a 2S x 2S window per cluster with a
strict-improvement update rule, and center updates accumulate in a
fixed row-major order. A connectivity pass then splits stray components
and absorbs fragments below a size floor, so the returned partition is
always valid and 4-connected. The components come from the label
map's row runs, joined where two runs of equal label touch across rows
(``scipy.sparse.csgraph.connected_components``); their border lengths
are one symmetric CSR adjacency, so the merge keeps a few arrays over
component pairs and no Python object per component.

Beside its Lab input, a run keeps one (2, H*W) array of pixel x and y
for the center updates and one chunk of window distances for the
assignment; both are gone before the connectivity pass, whose own
scratch is O(H*W) too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SuperpixelPartition,
    check_count,
    check_lab_image,
    check_label_map,
    relabel_contiguous,
)

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
        check_count("num_superpixels", self.num_superpixels)
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
    points, labels: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Recompute centers as member means; empty clusters keep their center.

    ``points`` holds the five (H*W,) rows of pixel L, a, b, x and y: a
    (5, H*W) array, or views of the Lab planes and of the pixel
    coordinates, which ``slic_segment`` passes so as not to copy them.
    Sums use np.bincount over the row-major pixel order, which fixes the
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
    # Views, unless the image is strided: rows L, a, b, x, y.
    points = (*lab.reshape(-1, 3).T, *yx[::-1])

    for _ in range(_MAX_ITERATIONS):
        labels = _assign(lab, centers, spacing, ratio)
        new_centers = _update_centers(points, labels, centers)
        d_c2 = ((new_centers[:, :3] - centers[:, :3]) ** 2).sum(axis=1)
        d_s2 = ((new_centers[:, 3:] - centers[:, 3:]) ** 2).sum(axis=1)
        residual = float(np.mean(np.sqrt(d_c2 + ratio * d_s2)))
        centers = new_centers
        if residual < _RESIDUAL_THRESHOLD:
            break

    del lab, points, yx  # the connectivity pass reads only the labels
    min_size = max(1, int(_MIN_REGION_FRACTION * spacing**2))
    return enforce_connectivity(labels, min_size)


def _components_first_appearance(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of equal-label regions.

    Components are unions of row runs: a run starts at column 0 or where
    a label differs from its left neighbour. Two runs in adjacent rows
    with equal labels touch if they overlap, and the overlap begins at
    one of their starts, so testing the pixel above and below each start
    finds every such pair. ``connected_components`` over the run graph
    numbers components by their lowest run, and runs are numbered in
    raster order, so the ids follow row-major first appearance (He, Chao
    & Suzuki, "A Run-Based Two-Scan Labeling Algorithm", IEEE TIP 2008).
    Run ids are int32 and the graph a CSR matrix built in place: the
    scratch is ~15 B/pixel on SLIC labels and ~28 B/pixel on 4-level
    uniform noise, three runs in four pixels.
    scipy.sparse loads at the first call, not when spxkit is imported.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    h, w = labels.shape
    n = h * w
    flat = labels.ravel()
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(flat[1:], flat[:-1], out=start[1:])
    start[::w] = True
    run = np.cumsum(start, dtype=np.int32)
    run -= 1  # each pixel's run id
    at = np.flatnonzero(start)  # each run's first pixel
    del start
    # same[p + w]: pixels p and p + w hold equal labels; False off the image.
    same = np.zeros(n + w, dtype=bool)
    np.equal(flat[:-w], flat[w:], out=same[w:n])
    link = np.empty((at.size, 2), dtype=bool)  # to the run above, below
    link[:, 0] = same[at]
    link[:, 1] = same[at + w]
    del same
    edge = np.flatnonzero(link)  # row-major, so grouped by run
    indptr = np.zeros(at.size + 1, dtype=np.int32)
    np.cumsum(link.sum(axis=1, dtype=np.int8), dtype=np.int32, out=indptr[1:])
    del link
    nbr = at[edge >> 1]
    nbr += (edge & 1) * (2 * w) - w
    del edge
    graph = csr_matrix((np.ones(nbr.size), run[nbr], indptr), shape=(at.size, at.size))
    del nbr, indptr
    ncomp, of_run = connected_components(graph, directed=False)
    del graph
    return of_run.astype(np.int64)[run].reshape(h, w), ncomp


def _border_adjacency(
    comp: np.ndarray, ncomp: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency of the components: (rows, cols, counts).

    Entry (a, b) counts the 4-adjacent pixel pairs with component ids a
    and b, a != b; each pair is listed from both sides. One ``np.unique``
    over the keys ``a * ncomp + b`` and ``b * ncomp + a``, in the
    narrowest unsigned dtype that holds ``ncomp**2 - 1``, orders the
    entries by (row, column).
    """
    narrow = np.min_scalar_type(ncomp * ncomp - 1)
    flat = comp.astype(narrow).ravel()
    w = comp.shape[1]
    right = flat[:-1] != flat[1:]
    right[w - 1 :: w] = False  # a row's last pixel and the next row's first
    keys = []
    for step, pair in ((1, right), (w, flat[:-w] != flat[w:])):
        at = np.flatnonzero(pair)
        a, b = flat[at], flat[at + step]
        keys += [a * ncomp + b, b * ncomp + a]
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    rows, cols = np.divmod(keys, ncomp)
    return rows, cols, counts


def enforce_connectivity(
    raw_labels: np.ndarray, min_size: int
) -> SuperpixelPartition:
    """Split disconnected label regions and absorb undersized fragments.

    Every connected component becomes its own block; components smaller
    than ``min_size`` (an integer >= 1) are merged into the adjacent
    region sharing the longest border (ties: smallest component id in
    row-major first-appearance order). Merges accumulate, so a fragment
    absorbed early still follows its host through later merges.

    Components come from the label map's row runs (see
    ``_components_first_appearance``).
    ``raw_labels`` must be a nonempty 2-D integer array. The merges are
    those of one ascending sweep over component ids that merges ``r`` if
    it is below ``min_size`` and has a neighbour; ``r`` is still a root
    then, since only its own step points it elsewhere. This equals always
    merging the smallest eligible root: merges only grow sizes and
    adjacency only names roots, so a root the sweep has passed can never
    become eligible again.

    The sweep runs on one symmetric CSR adjacency of the original
    components (``_border_adjacency``), so its memory is a few arrays
    over component pairs, with no Python object per component. Only a
    component that starts below ``min_size`` ever merges, and the border
    map of ``r`` changes only when a neighbour moves; by induction, the
    first neighbour of ``r`` to move is a lower-id component that also
    started below ``min_size``. So a small component with no such
    neighbour ("settled") reaches its turn with its original size and
    adjacency, and all settled targets come at once from one stable
    lexsort of their CSR rows. Nor does any merge touch a settled component
    before its turn: a merging set's members all started small and none
    has a higher id than the set's root. So settled merges are entered
    up front, each into its target's member ring, and only the other
    small components are walked, in ascending id. A walked ``r`` sums its
    members' original CSR rows by current root, which is the border map
    the sweep holds for ``r``; ``parent`` always names a component's
    root at the walk's current step, since a merge relabels the whole
    member ring and a settled component is never a neighbour of a walked
    set before its turn.
    """
    check_count("min_size", min_size)
    comp, ncomp = _components_first_appearance(check_label_map(raw_labels))
    sizes = np.bincount(comp.ravel(), minlength=ncomp)
    rows, cols, counts = _border_adjacency(comp, ncomp)
    indptr = np.searchsorted(rows, np.arange(ncomp + 1, dtype=rows.dtype))

    small = sizes < min_size
    walked = np.zeros(ncomp, dtype=bool)
    walked[rows[(cols < rows) & small[cols]]] = True
    walked &= small
    # First entry of each settled row in (row, -count) order: the stable
    # lexsort keeps ties in ascending column order, as the majority vote does.
    pick = (small & ~walked)[rows]
    own = rows[pick]
    first = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])[: own.size]
    best = np.lexsort((-counts[pick], own))[first]
    settled, targets = own[best], cols[pick][best]
    parent = np.arange(ncomp)
    parent[settled] = targets
    np.add.at(sizes, targets, sizes[settled])
    # Member rings: each target's settled members follow it, and the
    # last of them points back at the target.
    next_member = np.arange(ncomp)
    if settled.size:
        by_target = np.argsort(targets)
        ts, ss = targets[by_target], settled[by_target]
        head = np.r_[True, ts[1:] != ts[:-1]]
        tail = np.r_[head[1:], True]
        next_member[ss] = np.where(tail, ts, np.roll(ss, -1))
        next_member[ts[head]] = ss[head]

    par, ring, size = memoryview(parent), memoryview(next_member), memoryview(sizes)
    start, col, cnt = memoryview(indptr), memoryview(cols), memoryview(counts)
    for r in np.flatnonzero(walked).tolist():
        if size[r] >= min_size:
            continue
        border: dict[int, int] = {}
        m = r
        while True:
            lo, hi = start[m], start[m + 1]
            for c, k in zip(col[lo:hi], cnt[lo:hi]):
                t = par[c]
                if t != r:
                    border[t] = border.get(t, 0) + k
            m = ring[m]
            if m == r:
                break
        if not border:
            continue
        target, longest = r, 0
        for t, k in border.items():
            if k > longest or (k == longest and t < target):
                target, longest = t, k
        size[target] += size[r]
        m = r
        while True:
            par[m] = target
            m = ring[m]
            if m == r:
                break
        ring[r], ring[target] = ring[target], ring[r]
    # Component ids follow first appearance, so ranking the roots over
    # the component ids ranks the blocks over the pixels.
    return SuperpixelPartition(relabel_contiguous(parent[None]).labels[0][comp])
