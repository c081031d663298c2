"""Superpixel segmentation, block-mean message passing, and boundary metrics.

The library groups into:

- :mod:`spxkit.core`: partition/label types and validation.
- :mod:`spxkit.color`: sRGB to CIELAB conversion.
- :mod:`spxkit.slic` / :mod:`spxkit.quickshift`: superpixel generators.
- :mod:`spxkit.msgpass`: the block-mean message-passing operator, its
  exact backward pass, the multiscale cascade and its configuration,
  and label refinement.
- :mod:`spxkit.metrics`: mIoU, boundary F-score, undersegmentation
  error, boundary recall.
- :mod:`spxkit.io`: PPM/PGM images, the MSPT tensor container, overlays.
- :mod:`spxkit.cli`: the ``spxkit`` command-line frontend.
"""

from .color import srgb_to_lab
from .core import (
    SCALES_DEFAULT,
    AlgorithmError,
    SuperpixelPartition,
    ValidationResult,
    relabel_contiguous,
    validate_partition,
)
from .io import (
    FormatError,
    read_mspt,
    read_pgm,
    read_ppm,
    render_overlay,
    write_mspt,
    write_pgm,
    write_ppm,
)
from .metrics import (
    MetricsReport,
    boundary_fscore,
    boundary_mask,
    confusion_matrix,
    evaluate_segmentation,
    miou,
    spx_boundary_recall,
    undersegmentation_error,
)
from .msgpass import (
    CascadeTrace,
    MspConfig,
    block_means,
    cascade_apply,
    cascade_backward,
    cascade_forward,
    downsample_partition,
    gradient_check,
    mean_map,
    message_pass,
    message_pass_grad,
    random_partition,
    refine_probabilities,
)
from .quickshift import QuickShiftParams, quickshift_match_scale, quickshift_segment
from .slic import SlicParams, enforce_connectivity, slic_segment

__version__ = "0.1.0"

__all__ = [
    "AlgorithmError",
    "CascadeTrace",
    "FormatError",
    "MetricsReport",
    "MspConfig",
    "QuickShiftParams",
    "SCALES_DEFAULT",
    "SlicParams",
    "SuperpixelPartition",
    "ValidationResult",
    "block_means",
    "boundary_fscore",
    "boundary_mask",
    "cascade_apply",
    "cascade_backward",
    "cascade_forward",
    "confusion_matrix",
    "downsample_partition",
    "enforce_connectivity",
    "evaluate_segmentation",
    "gradient_check",
    "mean_map",
    "message_pass",
    "message_pass_grad",
    "miou",
    "quickshift_match_scale",
    "quickshift_segment",
    "random_partition",
    "read_mspt",
    "read_pgm",
    "read_ppm",
    "refine_probabilities",
    "relabel_contiguous",
    "render_overlay",
    "slic_segment",
    "spx_boundary_recall",
    "srgb_to_lab",
    "undersegmentation_error",
    "validate_partition",
    "write_mspt",
    "write_pgm",
    "write_ppm",
]
