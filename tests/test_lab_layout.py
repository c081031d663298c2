"""Segment labels do not depend on how a Lab image is laid out in memory.

``srgb_to_lab`` returns an (H, W, 3) view of planar (3, H, W) storage, so
SLIC's k-means and Quick Shift read each channel with unit stride. Any
other (H, W, 3) float64 array holding the same values must give the same
labels under ``np.array_equal``: an interleaved C-order copy, a
Fortran-order copy, and a strided slice of a larger image's Lab.
"""

import numpy as np
import pytest

from test_color import oracle_srgb_to_lab
from test_msgpass import starts  # noqa: F401 (a fixture: the threads started)

from spxkit import (
    MspConfig,
    QuickShiftParams,
    SlicParams,
    cascade_forward,
    quickshift_match_scale,
    quickshift_segment,
    slic_segment,
    srgb_to_lab,
)
from spxkit import msgpass as msgpass_module


def scene(seed: int, noise: float, h: int = 64, w: int = 80) -> np.ndarray:
    """A uint8 image of flat Voronoi regions plus Gaussian noise of std ``noise``."""
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0, max(h, w), (10, 2))
    colours = rng.uniform(30, 225, (10, 3))
    yy, xx = np.mgrid[:h, :w]
    d2 = (yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2
    img = colours[np.argmin(d2, axis=2)] + rng.normal(0.0, noise, (h, w, 3))
    return np.clip(img, 0, 255).astype(np.uint8)


def layouts(img: np.ndarray) -> dict[str, np.ndarray]:
    """The Lab of ``img`` in four memory layouts, all with equal values."""
    lab = srgb_to_lab(img)
    h, w = lab.shape[:2]
    bigger = srgb_to_lab(np.zeros((2 * h + 1, 2 * w + 3, 3), dtype=np.uint8))
    strided = bigger[1::2, 2::2][:h, :w]
    strided[...] = lab
    forms = {
        "planar": lab,
        "interleaved": np.ascontiguousarray(lab),
        "fortran": np.asfortranarray(lab),
        "strided": strided,
    }
    for form in forms.values():
        assert form.shape == lab.shape and np.array_equal(form, lab)
    assert forms["interleaved"].flags.c_contiguous
    assert forms["fortran"].flags.f_contiguous
    assert not strided.flags.c_contiguous and not np.moveaxis(strided, 2, 0).flags.c_contiguous
    return forms


SCENES = [(seed, noise) for noise in (0.0, 4.0) for seed in (0, 1)]


@pytest.mark.parametrize("seed, noise", SCENES)
def test_slic_labels_do_not_depend_on_layout(seed, noise):
    forms = layouts(scene(seed, noise))
    want = slic_segment(forms.pop("planar"), SlicParams(60)).labels
    for name, lab in forms.items():
        assert np.array_equal(slic_segment(lab, SlicParams(60)).labels, want), name


@pytest.mark.parametrize("seed, noise", SCENES)
def test_quickshift_labels_do_not_depend_on_layout(seed, noise):
    forms = layouts(scene(seed, noise, 40, 48))
    params = QuickShiftParams(sigma=2.0, tau=6.0)
    # Met at the first sigma on the clean scenes, after the sweep on the
    # noisy ones.
    target = 20 if noise == 0 else 60
    want = quickshift_segment(forms["planar"], params).labels
    want_matched = quickshift_match_scale(forms.pop("planar"), params, target).labels
    for name, lab in forms.items():
        assert np.array_equal(quickshift_segment(lab, params).labels, want), name
        got = quickshift_match_scale(lab, params, target).labels
        assert np.array_equal(got, want_matched), name


def test_threaded_slic_cascade_reads_interleaved_lab_alike(monkeypatch, starts):
    # At 192^2 each SLIC scale reaches msgpass._THREAD_MIN_PIXELS, so with
    # two usable CPUs the upper scales run on a worker thread; pinned to
    # one CPU, every scale runs on the calling thread.
    img = scene(2, 4.0, 192, 192)
    assert 192 * 192 >= msgpass_module._THREAD_MIN_PIXELS
    x = np.random.default_rng(3).standard_normal((2, 24, 24)).astype(np.float32)
    config = MspConfig(scales=(100, 200, 300), segmenter=SlicParams(1))
    want_out, want_trace = cascade_forward(x, img, config)
    threads = len(starts)
    assert threads == (1 if msgpass_module._usable_cpus() >= 2 else 0)

    monkeypatch.setattr(
        msgpass_module, "srgb_to_lab", lambda image: np.ascontiguousarray(srgb_to_lab(image))
    )
    out, trace = cascade_forward(x, img, config)
    assert len(starts) == 2 * threads
    assert np.array_equal(out, want_out)
    for (scale, part), (want_scale, want_part) in zip(trace.stages, want_trace.stages):
        assert scale == want_scale and np.array_equal(part.labels, want_part.labels)


@pytest.mark.parametrize("shape", [(2, 2), (16, 16), (37, 53), (2, 128)])
def test_srgb_to_lab_returns_planar_storage(shape):
    img = np.random.default_rng(sum(shape)).integers(0, 256, (*shape, 3), dtype=np.uint8)
    if shape == (2, 128):  # every level in every channel
        levels = np.arange(256, dtype=np.uint8)
        img = np.stack([levels, np.roll(levels, 85), np.roll(levels, 170)], axis=1)
        img = img.reshape(2, 128, 3)
    lab = srgb_to_lab(img)
    assert lab.shape == (*shape, 3) and lab.dtype == np.float64
    assert np.moveaxis(lab, 2, 0).flags.c_contiguous
    assert np.array_equal(lab, oracle_srgb_to_lab(img))
