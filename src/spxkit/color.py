"""sRGB to CIELAB conversion (D65 illuminant, 2-degree observer).

Pipeline: 8-bit sRGB -> linear RGB (standard transfer function with the
0.04045 threshold) -> XYZ (sRGB/D65 matrix) -> L*a*b* with the cube-root
break at (6/29)^3. The white point is taken as the matrix row sums so a
neutral input maps to exactly a = b = 0 and (255,255,255) to L = 100.
An 8-bit channel has only 256 levels, so the transfer function is
evaluated once, at import, into a 256-entry table that every conversion
indexes with the image itself.
"""

from __future__ import annotations

import numpy as np

from .core import check_image

__all__ = ["srgb_to_lab"]

_RGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_WHITE = _RGB_TO_XYZ.sum(axis=1)  # D65, consistent with the matrix
_DELTA = 6.0 / 29.0
_EPS = _DELTA**3


def _linearize(srgb: np.ndarray) -> np.ndarray:
    return np.where(
        srgb > 0.04045, ((srgb + 0.055) / 1.055) ** 2.4, srgb / 12.92
    )


_LINEAR = _linearize(np.arange(256) / 255.0)  # linear value of each 8-bit level


def _f(t: np.ndarray) -> np.ndarray:
    return np.where(t > _EPS, np.cbrt(t), t / (3.0 * _DELTA**2) + 4.0 / 29.0)


def srgb_to_lab(image: np.ndarray) -> np.ndarray:
    """Convert an (H, W, 3) uint8 sRGB image to float64 (L, a, b) triples.

    L lies in [0, 100]; a and b are unbounded but stay within roughly
    [-128, 127] for in-gamut inputs.
    """
    arr = check_image(image)
    rgb = _LINEAR[arr]
    xyz = rgb @ _RGB_TO_XYZ.T
    fxyz = _f(xyz / _WHITE)
    lab = np.empty_like(fxyz)
    lab[..., 0] = 116.0 * fxyz[..., 1] - 16.0
    lab[..., 1] = 500.0 * (fxyz[..., 0] - fxyz[..., 1])
    lab[..., 2] = 200.0 * (fxyz[..., 1] - fxyz[..., 2])
    return lab
