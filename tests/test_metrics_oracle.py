"""Metrics against the earlier implementations.

The oracle below is the original metrics module: a dense (C x C)
confusion matrix behind evaluate_segmentation, a dense
(blocks x gt segments) overlap table behind undersegmentation_error,
and boundary matching by binary dilation with a (2t+1)^2 structuring
element. The library versions must return the same scores under ``==``
and use memory at most linear in pixels plus classes, whatever the
tolerance or the label count.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage as ndi

from spxkit import metrics
from spxkit.core import SuperpixelPartition, check_label_map, relabel_contiguous
from spxkit.metrics import MetricsReport, boundary_mask
from spxkit.msgpass import random_partition


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


def to_dict(self: MetricsReport) -> dict:
    return {
        "miou": self.miou,
        "per_class_iou": list(self.per_class_iou),
        "pixel_accuracy": self.pixel_accuracy,
        "boundary_precision": self.boundary_precision,
        "boundary_recall": self.boundary_recall,
        "boundary_fscore": self.boundary_fscore,
    }


IGNORE = 255


def _label_map(rng, h, w, values, blocky):
    """Random labels in [0, values), per pixel or in square blocks."""
    if not blocky:
        return rng.integers(0, values, (h, w))
    side = int(rng.integers(2, 9))
    cells = rng.integers(0, values, (-(-h // side), -(-w // side)))
    return np.repeat(np.repeat(cells, side, axis=0), side, axis=1)[:h, :w]


@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(1, 32),
    w=st.integers(1, 32),
    num_classes=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    blocky=st.booleans(),
    ignore=st.sampled_from(["none", "some", "all"]),
    data=st.data(),
)
def test_scores_match_oracle(h, w, num_classes, seed, blocky, ignore, data):
    rng = np.random.default_rng(seed)
    pred = _label_map(rng, h, w, num_classes, blocky)
    gt = _label_map(rng, h, w, num_classes, blocky)
    ignore_label = None if ignore == "none" else IGNORE
    if ignore == "some":
        gt[rng.random((h, w)) < 0.2] = IGNORE
    elif ignore == "all":
        gt[:] = IGNORE
    # 0 up to well past the image size, where the clamp takes over
    tol = data.draw(st.integers(0, 2 * max(h, w) + 3), label="tol")

    cm = metrics.confusion_matrix(pred, gt, num_classes, ignore_label)
    want_cm = confusion_matrix(pred, gt, num_classes, ignore_label)
    assert cm.dtype == want_cm.dtype and np.array_equal(cm, want_cm)
    assert metrics.miou(cm) == miou(want_cm)
    assert metrics.boundary_fscore(pred, gt, tol, ignore_label) == boundary_fscore(
        pred, gt, tol, ignore_label
    )
    report = metrics.evaluate_segmentation(pred, gt, num_classes, ignore_label, tol)
    want = evaluate_segmentation(pred, gt, num_classes, ignore_label, tol)
    assert report == want
    assert report.to_dict() == to_dict(want)
    assert list(report.to_dict()) == list(to_dict(want))

    part = relabel_contiguous(pred if data.draw(st.booleans()) else rng.integers(
        0, h * w, (h, w)))
    assert metrics.undersegmentation_error(part, gt) == undersegmentation_error(
        part, gt)
    assert metrics.spx_boundary_recall(part, gt, tol) == spx_boundary_recall(
        part, gt, tol)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_miou_matches_oracle_on_any_square_matrix(n, seed):
    # Negative entries make unions of 0 or below 0 from nonzero rows.
    cm = np.random.default_rng(seed).integers(-2, 4, (n, n))
    assert metrics.miou(cm) == miou(cm)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_huge_tolerance_costs_like_the_image_size():
    # The oracle builds a 2001^2 structuring element here (7.6 MiB, 5 s).
    gt = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)
    part = relabel_contiguous(np.zeros((8, 8), dtype=np.int64))
    peak = _peak_bytes(metrics.spx_boundary_recall, part, gt, 1000)
    assert peak < 64 * 2**10, f"peak {peak / 2**10:.1f} KiB"
    assert metrics.spx_boundary_recall(part, gt, 1000) == 0.0
    assert metrics.spx_boundary_recall(part, gt, 10**30) == 0.0


def test_undersegmentation_memory_linear_in_pixels():
    # One gt segment per pixel: the oracle's 400 x 16384 table is 50 MiB.
    part = random_partition(128, 128, 400, np.random.default_rng(0))
    gt = np.arange(128 * 128).reshape(128, 128)
    assert metrics.undersegmentation_error(part, gt) == undersegmentation_error(
        part, gt)
    peak = _peak_bytes(metrics.undersegmentation_error, part, gt)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _gt_values(rng, shape, dtype, low, high):
    """A blocky ``dtype`` gt map of up to 12 values in [low, high]. The two
    ends fill the top rows side by side, so a block that straddles them
    scores differently if they are ever taken for one segment."""
    values = rng.integers(low, high, 12, endpoint=True, dtype=dtype)
    gt = values[_label_map(rng, *shape, values.size, True)]
    gt[:6, : shape[1] // 2] = low
    gt[:6, shape[1] // 2 :] = high
    return gt


I64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "dtype, low, high",
    [
        (np.int64, -7, 5),  # negative labels
        (np.int64, -(2**40), 3),  # a span far past the largest value
        (np.int8, -128, 127),
        (np.int32, -128, 128),  # a span of 2^8 needs 16 bits
        (np.int32, -(2**31), 2**31 - 1),
        (np.uint32, 0, 2**32 - 1),  # as the CLI reads gt from uint32 files
        (np.int64, 2**32, 2**40),  # int64 past 2^32
        (np.int64, I64.min, I64.max),  # a span of 2^64 - 1
        (np.uint64, 2**63, 2**64 - 1),  # past int64
        (np.uint64, 0, 2**64 - 1),
        (np.uint16, 0, 2**16 - 1),
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_undersegmentation_matches_oracle_on_any_gt_values(dtype, low, high, seed):
    rng = np.random.default_rng(seed)
    gt = _gt_values(rng, (24, 20), dtype, low, high)
    assert gt.dtype == dtype and gt.min() == low and gt.max() == high
    for part in (random_partition(24, 20, 30, rng),
                 relabel_contiguous(rng.integers(0, 480, (24, 20)))):
        assert metrics.undersegmentation_error(part, gt) == undersegmentation_error(part, gt)


def test_undersegmentation_of_one_block_over_256_segments():
    # One block: the largest key, 255, fits in uint8, but the segment
    # count 256 it is multiplied by does not.
    part = relabel_contiguous(np.zeros((16, 16), dtype=np.int64))
    gt = np.arange(256).reshape(16, 16)
    assert metrics.undersegmentation_error(part, gt) == undersegmentation_error(part, gt)


def pair_count_undersegmentation_error(partition, gt):
    """The oracle's sum, over the (block, segment) pairs that occur, counted
    in a dict: exact where the dense table would not fit in memory."""
    pairs = Counter(zip(partition.labels.ravel().tolist(), np.asarray(gt).ravel().tolist()))
    sizes = partition.block_sizes.tolist()
    return float(sum(min(n, sizes[b] - n) for (b, _), n in pairs.items()) / gt.size)


def test_pair_count_oracle_matches_dense_oracle():
    rng = np.random.default_rng(4)
    gt = _gt_values(rng, (24, 20), np.int64, -(2**40), 2**40)
    part = random_partition(24, 20, 40, rng)
    assert pair_count_undersegmentation_error(part, gt) == undersegmentation_error(part, gt)


def test_undersegmentation_with_keys_past_2_to_the_32():
    # 70,000 blocks by 70,000 segments: (block, segment) keys need 64 bits,
    # and the oracle's dense table would take 36 GiB.
    rng = np.random.default_rng(5)
    h = w = 300
    pairs = rng.choice((h * w - 2) // 2, 20000, replace=False)
    labels = np.arange(h * w)
    labels[2 * pairs + 1] = labels[2 * pairs]  # 20,000 two-pixel blocks
    seg = np.arange(h * w)
    seg[2 * pairs + 2] = seg[2 * pairs + 1]  # each straddles a segment boundary
    part = relabel_contiguous(labels.reshape(h, w))
    gt = (seg.reshape(h, w) - 45000) * 2**40  # negative and past 2^32 too
    n_seg = np.unique(gt).size
    assert part.num_blocks * n_seg > 2**32
    got = metrics.undersegmentation_error(part, gt)
    assert got == pair_count_undersegmentation_error(part, gt)
    assert got > 0


def test_evaluate_segmentation_memory_linear_in_classes():
    # The oracle's 5000^2 confusion matrix is 191 MiB.
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 5000, (8, 8))
    gt = rng.integers(0, 5000, (8, 8))
    report = metrics.evaluate_segmentation(pred, gt, 5000)
    assert len(report.per_class_iou) == 5000
    peak = _peak_bytes(metrics.evaluate_segmentation, pred, gt, 5000)
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"
