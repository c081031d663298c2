"""sRGB to CIELAB conversion (D65 illuminant, 2-degree observer).

Pipeline: 8-bit sRGB -> linear RGB (standard transfer function with the
0.04045 threshold) -> XYZ (sRGB/D65 matrix) -> L*a*b* with the cube-root
break at (6/29)^3. The white point is taken as the matrix row sums so a
neutral input maps to exactly a = b = 0 and (255,255,255) to L = 100.
An 8-bit channel has only 256 levels, so the transfer function is
evaluated once, at import, into a 256-entry table that every conversion
indexes with the image itself.

Each XYZ value is the sum ``(r*m0 + g*m1) + b*m2`` of linear r, g and b
and one matrix row, in that order, then divided by its white value: the
same elementwise operations at every pixel, so the floats do not depend
on which BLAS kernel numpy loaded. Work goes one (H, W) plane at a time.

The result is stored as three planes: an (H, W, 3) view of one (3, H, W)
array, so L, a and b are each one contiguous block. The segmenters read
one channel at a time, and read these planes with unit stride.
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


def _f(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The cube root everywhere, then the linear segment where it applies,
    # so the linear formula is evaluated only at the dark values.
    out = np.cbrt(t, out=out)
    dark = t <= _EPS
    out[dark] = t[dark] / (3.0 * _DELTA**2) + 4.0 / 29.0
    return out


def srgb_to_lab(image: np.ndarray) -> np.ndarray:
    """Convert an (H, W, 3) uint8 sRGB image to float64 (L, a, b) triples.

    L lies in [0, 100]; a and b are unbounded but stay within roughly
    [-128, 127] for in-gamut inputs. The (H, W, 3) result is a view of
    planar (3, H, W) storage: ``np.moveaxis(lab, 2, 0)`` is C-contiguous.
    """
    arr = check_image(image)
    r, g, b = (_LINEAR[arr[..., c]] for c in range(3))
    planes = np.empty((3, *arr.shape[:2]))
    lum, a_star, b_star = planes
    total = np.empty(arr.shape[:2])
    term = np.empty(arr.shape[:2])
    # f(X), f(Y) and f(Z) go to the a, L and b planes, which the last
    # lines turn into L, a and b in place.
    for (m0, m1, m2), white, plane in zip(_RGB_TO_XYZ, _WHITE, (a_star, lum, b_star)):
        np.multiply(r, m0, out=total)
        total += np.multiply(g, m1, out=term)
        total += np.multiply(b, m2, out=term)
        total /= white
        _f(total, out=plane)
    a_star -= lum
    a_star *= 500.0
    np.subtract(lum, b_star, out=b_star)
    b_star *= 200.0
    lum *= 116.0
    lum -= 16.0
    return planes.transpose(1, 2, 0)
