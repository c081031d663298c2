"""Shared domain types: partitions, labels, input validation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "AlgorithmError",
    "SuperpixelPartition",
    "ValidationResult",
    "check_feature_map",
    "check_image",
    "check_lab_image",
    "check_label_map",
    "relabel_contiguous",
    "validate_partition",
]

class AlgorithmError(RuntimeError):
    """An algorithm produced an internally inconsistent result."""


class _BlockPlan(NamedTuple):
    """What every block mean over one partition needs, built once.

    ``index`` is the row-major label map as intp, ready for ``np.take``;
    ``members`` is the K x H*W CSR membership matrix (data 1.0, each row
    holding its block's pixels in ascending order); ``sizes`` is the
    census as float64.
    """

    index: np.ndarray
    members: sp.csr_matrix
    sizes: np.ndarray


@dataclass(frozen=True, eq=False)
class SuperpixelPartition:
    """A label map over an H x W pixel grid; the label map is its only state.

    Labels are contiguous ints in [0, num_blocks) and every block is
    nonempty. The census is derived from the labels on first use:
    ``block_sizes[i]`` is the number of pixels labeled ``i`` and
    ``num_blocks`` its length. Message passing also caches a private
    plan on first use: the labels as intp and a CSR block-membership
    matrix, about 20 bytes per pixel (8 for the index, 4 for the column
    indices, 8 for the ones). Instances are immutable and safe to share
    across threads (computing the census or the plan twice gives equal
    arrays, and either copy may be kept).
    """

    labels: np.ndarray  # (H, W) int32

    @cached_property
    def block_sizes(self) -> np.ndarray:
        return np.bincount(self.labels.ravel()).astype(np.int64)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def _plan(self) -> _BlockPlan:
        index = self.labels.ravel().astype(np.intp)
        sizes = self.block_sizes
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        members = sp.csr_matrix(
            (np.ones(index.size), np.argsort(index, kind="stable"), indptr),
            shape=(sizes.size, index.size),
        )
        return _BlockPlan(index, members, sizes.astype(np.float64))


@dataclass(frozen=True)
class ValidationResult:
    """Verdict of a partition check; ``pixel`` is the first offender, if any."""

    ok: bool
    reason: str | None = None
    pixel: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_partition(partition: SuperpixelPartition) -> ValidationResult:
    """Check the label map, reporting the first violation found.

    Checks, in order: a nonempty 2-D integer array, no negative label
    (``pixel`` names the first), and every id in [0, num_blocks) used;
    an id at or above the pixel count is reported before any census is
    built. The census is derived from the labels, so it cannot disagree
    with them.
    """
    labels = partition.labels
    if labels.ndim != 2 or labels.size == 0:
        return ValidationResult(False, "labels must be a nonempty 2-D array")
    if not np.issubdtype(labels.dtype, np.integer):
        return ValidationResult(False, "labels must be an integer array")

    flat = labels.ravel()
    bad = flat < 0
    if bad.any():
        i = int(np.argmax(bad))
        y, x = divmod(i, labels.shape[1])
        return ValidationResult(False, f"label {int(flat[i])} is negative", (y, x))

    top = int(flat.max())
    if top >= flat.size:  # more ids than pixels, so one below ``top`` is unused
        return ValidationResult(False, f"label {top} leaves an id below it unused")
    missing = np.flatnonzero(partition.block_sizes == 0)
    if missing.size:
        return ValidationResult(False, f"label {int(missing[0])} unused")
    return ValidationResult(True)


def relabel_contiguous(raw_labels: np.ndarray) -> SuperpixelPartition:
    """Remap arbitrary integer labels to 0..K-1 in row-major first-appearance order.

    The result always satisfies every :class:`SuperpixelPartition`
    invariant; applying the function to its own output is the identity.

    A map with values in [0, H*W) is ranked through a table indexed by
    value: ``np.minimum.at`` records each value's first pixel, a bool
    mask over the pixels lists the used values in first-appearance
    order, and one gather maps every pixel to its rank, so nothing is
    sorted. Any other map is first compressed to [0, U) with
    ``np.unique(..., return_inverse=True)``.
    """
    arr = check_label_map(raw_labels)
    flat = arr.ravel()
    n = flat.size
    if flat.min() < 0 or flat.max() >= n:
        flat = np.unique(flat, return_inverse=True)[1].ravel()
    first = np.full(int(flat.max()) + 1, n, dtype=np.intp)
    np.minimum.at(first, flat, np.arange(n))
    starts = np.zeros(n, dtype=bool)
    starts[first[first < n]] = True
    values = flat[np.flatnonzero(starts)]  # used values, first appearance first
    rank = np.empty(first.size, dtype=np.int32)  # unused values are never read
    rank[values] = np.arange(values.size, dtype=np.int32)
    return SuperpixelPartition(rank[flat].reshape(arr.shape))


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
