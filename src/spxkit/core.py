"""Shared domain types: partitions, labels, input validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgorithmError",
    "SCALES_DEFAULT",
    "SuperpixelPartition",
    "ValidationResult",
    "check_feature_map",
    "check_image",
    "check_lab_image",
    "check_label_map",
    "relabel_contiguous",
    "validate_partition",
]

# Default multiscale schedule (block counts per stage, small to large).
SCALES_DEFAULT = (200, 300, 400)


class AlgorithmError(RuntimeError):
    """An algorithm produced an internally inconsistent result."""


@dataclass(frozen=True, eq=False)
class SuperpixelPartition:
    """A label map over an H x W pixel grid plus a per-block pixel census.

    Labels are contiguous ints in [0, num_blocks) and every block is
    nonempty; ``block_sizes[i]`` is the number of pixels labeled ``i``.
    Instances are immutable and safe to share across threads.
    """

    labels: np.ndarray  # (H, W) int32
    num_blocks: int
    block_sizes: np.ndarray  # (num_blocks,) int64

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class ValidationResult:
    """Verdict of a partition check; ``pixel`` is the first offender, if any."""

    ok: bool
    reason: str | None = None
    pixel: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_partition(partition: SuperpixelPartition) -> ValidationResult:
    """Check every partition invariant, reporting the first violation found.

    Checks, in order: label array shape/dtype, label range, label
    contiguity (every id in [0, K) used), and census correctness.
    """
    labels = partition.labels
    if labels.ndim != 2 or labels.size == 0:
        return ValidationResult(False, "labels must be a nonempty 2-D array")
    if not np.issubdtype(labels.dtype, np.integer):
        return ValidationResult(False, "labels must be an integer array")
    k = partition.num_blocks
    if k < 1:
        return ValidationResult(False, f"num_blocks must be >= 1, got {k}")

    flat = labels.ravel()
    bad = (flat < 0) | (flat >= k)
    if bad.any():
        i = int(np.argmax(bad))
        y, x = divmod(i, labels.shape[1])
        return ValidationResult(
            False, f"label {int(flat[i])} out of range [0, {k})", (y, x)
        )

    counts = np.bincount(flat, minlength=k)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        return ValidationResult(False, f"label {int(missing[0])} unused")

    sizes = np.asarray(partition.block_sizes)
    if sizes.shape != (k,):
        return ValidationResult(
            False, f"block_sizes must have length {k}, got {sizes.shape}"
        )
    if int(sizes.sum()) != labels.size:
        return ValidationResult(
            False,
            f"block_sizes sum {int(sizes.sum())} != pixel count {labels.size}",
        )
    mismatch = np.flatnonzero(sizes != counts)
    if mismatch.size:
        b = int(mismatch[0])
        return ValidationResult(
            False,
            f"block_sizes[{b}] = {int(sizes[b])} but {int(counts[b])} pixels "
            f"carry label {b}",
        )
    return ValidationResult(True)


def relabel_contiguous(raw_labels: np.ndarray) -> SuperpixelPartition:
    """Remap arbitrary integer labels to 0..K-1 in row-major first-appearance order.

    The result always satisfies every :class:`SuperpixelPartition`
    invariant; applying the function to its own output is the identity.
    """
    arr = np.asarray(raw_labels)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("raw_labels must be a nonempty 2-D array")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("raw_labels must be an integer array")

    flat = arr.ravel()
    uniq, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first)  # unique values sorted by first appearance
    rank = np.empty(uniq.size, dtype=np.int32)
    rank[order] = np.arange(uniq.size, dtype=np.int32)
    new_labels = rank[inverse].reshape(arr.shape)
    sizes = np.bincount(new_labels.ravel(), minlength=uniq.size).astype(np.int64)
    return SuperpixelPartition(
        labels=new_labels, num_blocks=int(uniq.size), block_sizes=sizes
    )


def check_image(image: np.ndarray) -> np.ndarray:
    """Validate an 8-bit sRGB image array of shape (H, W, 3), H and W >= 2."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"image must have shape (H, W, 3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"image must be uint8, got dtype {arr.dtype}")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"image must be at least 2x2 pixels, got {arr.shape[:2]}")
    return arr


def check_lab_image(lab: np.ndarray) -> np.ndarray:
    """Validate a finite Lab image of shape (H, W, 3), H and W >= 2; returns float64.

    NaN or infinity would poison every distance the segmenters compare.
    """
    arr = np.asarray(lab, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"lab image must have shape (H, W, 3), got {arr.shape}")
    h, w = arr.shape[:2]
    if h < 2 or w < 2:
        raise ValueError(f"image must be at least 2x2, got {h}x{w}")
    if not np.isfinite(arr).all():
        raise ValueError("lab image must be finite, found NaN or infinity")
    return arr


def check_feature_map(features: np.ndarray) -> np.ndarray:
    """Validate a finite floating feature map laid out as (channels, height, width).

    NaN or infinity would spread to its whole block through the block mean.
    """
    arr = np.asarray(features)
    if arr.ndim != 3:
        raise ValueError(f"feature map must have shape (C, H, W), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        raise ValueError(f"feature map must be floating point, got {arr.dtype}")
    if min(arr.shape) < 1:
        raise ValueError(f"every dimension must be >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("feature map must be finite, found NaN or infinity")
    return arr


def check_label_map(labels: np.ndarray) -> np.ndarray:
    """Validate a 2-D integer label map."""
    arr = np.asarray(labels)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"label map must be a nonempty 2-D array, got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"label map must be integer, got dtype {arr.dtype}")
    return arr
