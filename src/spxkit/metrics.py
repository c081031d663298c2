"""Segmentation and superpixel quality measures.

Boundary scores use class-agnostic boundary masks matched under a
Chebyshev pixel tolerance (default 2). Undersegmentation error uses the
bounded min(inside, outside) form. Classes absent from both prediction
and ground truth are excluded from the mIoU mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage as ndi

from .core import SuperpixelPartition, check_label_map

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
        return {
            "miou": self.miou,
            "per_class_iou": list(self.per_class_iou),
            "pixel_accuracy": self.pixel_accuracy,
            "boundary_precision": self.boundary_precision,
            "boundary_recall": self.boundary_recall,
            "boundary_fscore": self.boundary_fscore,
        }


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
    p = check_label_map(pred)
    g = check_label_map(gt)
    if p.shape != g.shape:
        raise ValueError(f"pred {p.shape} and gt {g.shape} differ in shape")
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")

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

    joint = gf[counted] * num_classes + pf[counted]
    counts = np.bincount(joint, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def miou(confusion: np.ndarray) -> tuple[float, tuple[float | None, ...]]:
    """Mean intersection-over-union from a square confusion matrix.

    IoU_c = diag_c / (row_c + col_c - diag_c); classes with zero union
    (absent from both maps) are flagged None and excluded from the mean.
    """
    cm = np.asarray(confusion, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    diag = np.diag(cm)
    union = cm.sum(axis=0) + cm.sum(axis=1) - diag
    per_class: list[float | None] = []
    present = []
    for c in range(cm.shape[0]):
        if union[c] == 0:
            per_class.append(None)
        else:
            iou = float(diag[c] / union[c])
            per_class.append(iou)
            present.append(iou)
    mean = float(np.mean(present)) if present else 0.0
    return mean, tuple(per_class)


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


def _dilate_chebyshev(mask: np.ndarray, tolerance_px: int) -> np.ndarray:
    if tolerance_px <= 0:
        return mask
    size = 2 * tolerance_px + 1
    return ndi.binary_dilation(mask, structure=np.ones((size, size), dtype=bool))


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
    p = check_label_map(pred)
    g = check_label_map(gt)
    if p.shape != g.shape:
        raise ValueError(f"pred {p.shape} and gt {g.shape} differ in shape")
    if tolerance_px < 0:
        raise ValueError(f"tolerance_px must be >= 0, got {tolerance_px}")

    pm = boundary_mask(p)
    gm = boundary_mask(g)
    if ignore_label is not None:
        keep = g != ignore_label
        pm &= keep
        gm &= keep

    precision = (
        float((pm & _dilate_chebyshev(gm, tolerance_px)).sum() / pm.sum())
        if pm.any()
        else 1.0
    )
    recall = (
        float((gm & _dilate_chebyshev(pm, tolerance_px)).sum() / gm.sum())
        if gm.any()
        else 1.0
    )
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
    g = check_label_map(gt)
    if partition.labels.shape != g.shape:
        raise ValueError(
            f"partition {partition.labels.shape} and gt {g.shape} differ in shape"
        )
    _, g_ids = np.unique(g.ravel(), return_inverse=True)
    n_seg = int(g_ids.max()) + 1
    joint = partition.labels.ravel().astype(np.int64) * n_seg + g_ids
    overlap = np.bincount(joint, minlength=partition.num_blocks * n_seg)
    overlap = overlap.reshape(partition.num_blocks, n_seg)
    sizes = partition.block_sizes[:, None]
    leak = np.minimum(overlap, sizes - overlap)
    return float(leak[overlap > 0].sum() / g.size)


def spx_boundary_recall(
    partition: SuperpixelPartition, gt: np.ndarray, tolerance_px: int = 2
) -> float:
    """Fraction of gt boundary pixels near some superpixel boundary pixel.

    Vacuously 1 when the ground truth has no boundary at all.
    """
    g = check_label_map(gt)
    if partition.labels.shape != g.shape:
        raise ValueError(
            f"partition {partition.labels.shape} and gt {g.shape} differ in shape"
        )
    if tolerance_px < 0:
        raise ValueError(f"tolerance_px must be >= 0, got {tolerance_px}")
    gm = boundary_mask(g)
    if not gm.any():
        return 1.0
    sm = boundary_mask(partition.labels)
    return float((gm & _dilate_chebyshev(sm, tolerance_px)).sum() / gm.sum())


def evaluate_segmentation(
    pred: np.ndarray,
    gt: np.ndarray,
    num_classes: int,
    ignore_label: int | None = None,
    boundary_tolerance_px: int = 2,
) -> MetricsReport:
    """Full report: mIoU, per-class IoU, pixel accuracy, boundary P/R/F."""
    cm = confusion_matrix(pred, gt, num_classes, ignore_label)
    mean_iou, per_class = miou(cm)
    total = cm.sum()
    accuracy = float(np.trace(cm) / total) if total > 0 else 0.0
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
