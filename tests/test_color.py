import numpy as np

from spxkit import srgb_to_lab
from spxkit.color import _RGB_TO_XYZ, _f, _linearize


def reference_lab(r, g, b):
    """Direct scalar evaluation of the published CIE formulas.

    Independent of the vectorized implementation: scalar math module
    arithmetic, explicit branches.
    """

    def lin(u):
        u = u / 255.0
        return ((u + 0.055) / 1.055) ** 2.4 if u > 0.04045 else u / 12.92

    rl, gl, bl = lin(r), lin(g), lin(b)
    x = 0.4124564 * rl + 0.3575761 * gl + 0.1804375 * bl
    y = 0.2126729 * rl + 0.7151522 * gl + 0.0721750 * bl
    z = 0.0193339 * rl + 0.1191920 * gl + 0.9503041 * bl
    xn, yn, zn = 0.9504700, 1.0, 1.0888300

    def f(t):
        return t ** (1.0 / 3.0) if t > (6.0 / 29.0) ** 3 else t / (3 * (6.0 / 29.0) ** 2) + 4.0 / 29.0

    fx, fy, fz = f(x / xn), f(y / yn), f(z / zn)
    return 116 * fy - 16, 500 * (fx - fy), 200 * (fy - fz)


def single_pixel(r, g, b):
    img = np.zeros((2, 2, 3), np.uint8)
    img[...] = (r, g, b)
    return srgb_to_lab(img)[0, 0]


def test_white_maps_to_l100():
    l, a, b = single_pixel(255, 255, 255)
    assert abs(l - 100.0) <= 0.01
    assert abs(a) <= 0.01 and abs(b) <= 0.01


def test_black_maps_to_origin():
    assert tuple(single_pixel(0, 0, 0)) == (0.0, 0.0, 0.0)


# The implementation pins the white point to the matrix row sums (so white
# is exactly L=100 and grays exactly neutral); the reference uses the
# textbook Yn=1.0. The conventions differ by ~1e-7 in Y, ~2e-6 in L.
def test_mid_gray_against_reference():
    l, a, b = single_pixel(119, 119, 119)
    l_ref, _, _ = reference_lab(119, 119, 119)
    assert abs(l - 50.0) <= 0.5
    assert abs(l - l_ref) <= 1e-4


def test_random_pixels_against_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r, g, b = (int(v) for v in rng.integers(0, 256, 3))
        got = single_pixel(r, g, b)
        want = reference_lab(r, g, b)
        assert np.allclose(got, want, atol=1e-4), (r, g, b)


def test_gray_axis_is_neutral():
    levels = np.arange(256, dtype=np.uint8)
    img = np.stack([levels] * 3, axis=1).reshape(16, 16, 3)
    lab = srgb_to_lab(img)
    assert np.abs(lab[..., 1]).max() <= 1e-3
    assert np.abs(lab[..., 2]).max() <= 1e-3


def test_lightness_monotone_in_gray_level():
    ls = [single_pixel(v, v, v)[0] for v in range(0, 256, 5)]
    assert all(b >= a for a, b in zip(ls, ls[1:]))


def test_lightness_range():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
    lab = srgb_to_lab(img)
    assert lab[..., 0].min() >= 0.0
    assert lab[..., 0].max() <= 100.0 + 1e-9


def test_shape_preserved():
    img = np.zeros((5, 9, 3), np.uint8)
    assert srgb_to_lab(img).shape == (5, 9, 3)


def oracle_srgb_to_lab(image):
    """The earlier conversion: the transfer function evaluated at every pixel."""
    rgb = _linearize(np.asarray(image).astype(np.float64) / 255.0)
    xyz = rgb @ _RGB_TO_XYZ.T
    fxyz = _f(xyz / _RGB_TO_XYZ.sum(axis=1))
    lab = np.empty_like(fxyz)
    lab[..., 0] = 116.0 * fxyz[..., 1] - 16.0
    lab[..., 1] = 500.0 * (fxyz[..., 0] - fxyz[..., 1])
    lab[..., 2] = 200.0 * (fxyz[..., 1] - fxyz[..., 2])
    return lab


def test_every_level_matches_per_pixel_formula_exactly():
    # Each channel runs through all 256 levels, shifted so that the three
    # channels of a pixel differ; the 256-entry table must give the bits
    # of the per-pixel evaluation.
    levels = np.arange(256, dtype=np.uint8)
    img = np.stack([levels, np.roll(levels, 85), np.roll(levels, 170)], axis=1)
    for image in (img.reshape(16, 16, 3), img.reshape(2, 128, 3)):
        assert np.array_equal(srgb_to_lab(image), oracle_srgb_to_lab(image))
    rng = np.random.default_rng(11)
    image = rng.integers(0, 256, (37, 53, 3)).astype(np.uint8)
    assert np.array_equal(srgb_to_lab(image), oracle_srgb_to_lab(image))
