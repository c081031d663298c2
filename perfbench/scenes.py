"""Seeded synthetic scenes: Voronoi regions with per-region colour ramps.

An item's scene has two sources of randomness. Its *layout* (Voronoi
sites, base colours and colour gradients) comes from the workload stream
and the item index alone. The workload seed draws everything else: one of
the eight flips and rotations of the layout, the Gaussian noise, and the
feature maps or class probabilities that go with the image.

The layout is kept out of the seed because it sets an item's cost. On
256x256 noisy scenes the SLIC connectivity work grows with the square of
the fragment count; that count moves by about a tenth from one random
layout to the next, but by a few hundredths between noise draws and
orientations of one layout. With a fixed layout sequence, runs on
different seeds see the same mix of easy and hard items, while every
input byte still changes with the seed.
"""

from __future__ import annotations

import numpy as np


def item_rng(seed: int, stream: int, item: int) -> np.random.Generator:
    """Independent generator for one item of one workload stream."""
    return np.random.default_rng([seed, stream, item])


def _orient(arr: np.ndarray, k: int) -> np.ndarray:
    """The k-th of the eight flips and rotations of the leading two axes."""
    out = np.rot90(arr, k % 4)
    return np.ascontiguousarray(out[:, ::-1] if k >= 4 else out)


def voronoi_scene(
    rng: np.random.Generator,
    layout: tuple[int, int],
    size: int,
    regions: int,
    noise_sigma: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Return a (size, size, 3) uint8 image and its (size, size) uint32 region map.

    ``layout`` seeds the Voronoi sites, each region's base colour and its
    linear colour gradient. ``rng`` picks the orientation and draws
    Gaussian noise of ``noise_sigma`` 8-bit units.
    """
    lay = np.random.default_rng(list(layout))
    sites = lay.uniform(0, size, size=(regions, 2))
    base = lay.uniform(40.0, 215.0, size=(regions, 3))
    slope = lay.uniform(-0.25, 0.25, size=(regions, 3, 2)) * (256.0 / size)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    d2 = (yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2
    region = np.argmin(d2, axis=2)
    dy = (yy - sites[region, 0])[..., None]
    dx = (xx - sites[region, 1])[..., None]
    img = base[region] + slope[region, :, 0] * dy + slope[region, :, 1] * dx

    k = int(rng.integers(8))
    img, region = _orient(img, k), _orient(region, k)
    if noise_sigma > 0:
        img += rng.normal(0.0, noise_sigma, size=img.shape)
    image = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return image, region.astype(np.uint32)


def downsample_labels(labels: np.ndarray, factor: int) -> np.ndarray:
    """Nearest-sample reduction: the label at each cell's centre pixel."""
    start = factor // 2
    return np.ascontiguousarray(labels[start::factor, start::factor])


def dirichlet_probs(
    rng: np.random.Generator, classes: int, size: int
) -> np.ndarray:
    """(classes, size, size) float32 class probabilities, one Dirichlet draw per pixel."""
    draws = rng.dirichlet(np.ones(classes), size=(size, size))
    return np.ascontiguousarray(draws.transpose(2, 0, 1), dtype=np.float32)


def feature_map(rng: np.random.Generator, channels: int, size: int) -> np.ndarray:
    """(channels, size, size) float32 standard-normal features."""
    return rng.standard_normal((channels, size, size), dtype=np.float32)
