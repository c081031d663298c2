"""Quick Shift against the earlier implementation, and the shared sweep.

The oracle below is the original ``quickshift_segment``, which scans every
window offset for links and breaks density ties by comparing row-major
indices, and the original ``quickshift_match_scale``, which restarts its
sigma sweep on every call. The library versions skip offsets beyond tau,
break density ties by the sign of the offset's index step, segment
several sigmas in one window walk, and share one sweep across the scales
of a cascade; labels and cascade outputs must stay the same, bit for bit.
"""

import importlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spxkit import (
    MspConfig,
    QuickShiftParams,
    cascade_forward,
    downsample_partition,
    message_pass,
    quickshift_match_scale,
    quickshift_segment,
    srgb_to_lab,
)
from spxkit.core import SuperpixelPartition, relabel_contiguous
from spxkit.quickshift import _offset_slices

qs_module = importlib.import_module("spxkit.quickshift")


def _features(lab: np.ndarray, color_ratio: float) -> np.ndarray:
    h, w = lab.shape[:2]
    f = np.empty((h, w, 5))
    f[..., :3] = lab * color_ratio
    f[..., 3] = np.arange(w, dtype=np.float64)[None, :]
    f[..., 4] = np.arange(h, dtype=np.float64)[:, None]
    return f


def oracle_quickshift_segment(
    lab: np.ndarray, params: QuickShiftParams
) -> SuperpixelPartition:
    """Segment a Lab image by Quick Shift mode seeking.

    Deterministic: density sums accumulate per window offset in
    row-major order, and distance ties between link candidates go to
    the candidate with the smaller row-major index.
    """
    lab = np.asarray(lab, dtype=np.float64)
    if lab.ndim != 3 or lab.shape[2] != 3:
        raise ValueError(f"lab image must have shape (H, W, 3), got {lab.shape}")
    h, w = lab.shape[:2]
    if h < 2 or w < 2:
        raise ValueError(f"image must be at least 2x2, got {h}x{w}")

    f = _features(lab, params.color_ratio)
    radius = int(math.ceil(3.0 * params.sigma))
    inv_two_sigma2 = 1.0 / (2.0 * params.sigma**2)

    density = np.zeros((h, w))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            a, b = _offset_slices(h, w, dy, dx)
            if a[0].start >= a[0].stop or a[1].start >= a[1].stop:
                continue
            d2 = ((f[b] - f[a]) ** 2).sum(axis=2)
            density[a] += np.exp(-d2 * inv_two_sigma2)

    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    best_d2 = np.full((h, w), np.inf)
    parent = np.full((h, w), -1, dtype=np.int64)
    tau2 = params.tau**2
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dy == 0 and dx == 0:
                continue
            a, b = _offset_slices(h, w, dy, dx)
            if a[0].start >= a[0].stop or a[1].start >= a[1].stop:
                continue
            d2 = ((f[b] - f[a]) ** 2).sum(axis=2)
            higher = (density[b] > density[a]) | (
                (density[b] == density[a]) & (idx[b] < idx[a])
            )
            take = higher & (d2 <= tau2) & (d2 < best_d2[a])
            view_best = best_d2[a]
            view_parent = parent[a]
            view_best[take] = d2[take]
            view_parent[take] = idx[b][take]

    flat_parent = parent.ravel()
    roots = np.where(flat_parent < 0, np.arange(h * w), flat_parent)
    while True:
        hopped = roots[roots]
        if np.array_equal(hopped, roots):
            break
        roots = hopped
    return relabel_contiguous(roots.reshape(h, w))


def oracle_match_scale(
    lab: np.ndarray, params: QuickShiftParams, target_blocks: int
) -> SuperpixelPartition:
    """Sweep sigma downward until the block count reaches target_blocks / 2.

    Quick Shift has no direct block-count control, so sigma is shrunk
    geometrically (factor 0.8, at most 8 attempts) and the last result
    is returned as-is even when the target is missed.
    """
    if target_blocks < 1:
        raise ValueError(f"target_blocks must be >= 1, got {target_blocks}")
    sigma = params.sigma
    part = None
    for _ in range(8):
        part = oracle_quickshift_segment(lab, replace(params, sigma=sigma))
        if part.num_blocks >= target_blocks / 2:
            break
        sigma *= 0.8
    return part


def quiet_params(**kw) -> QuickShiftParams:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tau <= sigma is allowed here
        return QuickShiftParams(**kw)


@st.composite
def lab_images(draw):
    h, w = draw(st.integers(2, 20)), draw(st.integers(2, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Blocky images (cell > 1) hold equal features, so density ties and
    # equal link distances reach the tie rules. Constant images, and
    # images with two levels per channel, tie density over whole regions
    # and between lone pixels of one colour, so links on both signs of
    # the offset's index step meet the density tie rule.
    cell = draw(st.integers(1, 4))
    shape = (-(-h // cell), -(-w // cell), 3)
    levels = draw(st.sampled_from([None, 1, 2]))
    if levels is None:
        coarse = rng.integers(0, 256, shape)
    else:  # channel c of every pixel takes one of values[:, c]
        values = rng.integers(0, 256, (levels, 3))
        coarse = values[rng.integers(0, levels, shape), np.arange(3)]
    img = np.repeat(np.repeat(coarse, cell, axis=0), cell, axis=1)[:h, :w]
    return srgb_to_lab(img.astype(np.uint8))


# Two levels per channel: the magenta pair, the blue pair and the four
# lone pixels (density 1, every other term underflows) each tie in
# density, and here the labels change if density ties go to the larger
# row-major index.
TIE_SCENE = np.array(
    [[(255, 0, 255), (255, 255, 255), (0, 255, 255), (0, 0, 255)],
     [(255, 0, 255), (0, 0, 255), (0, 0, 0), (255, 0, 0)]],
    dtype=np.uint8,
)


@settings(max_examples=80, deadline=None)
@example(lab=srgb_to_lab(TIE_SCENE), sigma=0.5, color_ratio=0.1, tau_frac=0.5,
         tau_mode="unpruned")
@given(
    lab=lab_images(),
    sigma=st.floats(0.5, 4.0),
    color_ratio=st.floats(0.0, 1.0),
    tau_frac=st.floats(0.01, 0.99),
    tau_mode=st.sampled_from(["pruned", "integer", "unpruned"]),
)
def test_random_images_match_oracle(lab, sigma, color_ratio, tau_frac, tau_mode):
    radius = int(math.ceil(3.0 * sigma))
    if tau_mode == "pruned":  # below the window radius: offsets are skipped
        tau = tau_frac * radius
    elif tau_mode == "integer":  # offsets at exactly tau must be kept
        tau = float(max(1, round(tau_frac * radius)))
    else:  # beyond the farthest window offset: nothing is skipped
        tau = radius * math.sqrt(2.0) + 10.0 * tau_frac
    params = quiet_params(sigma=sigma, tau=tau, color_ratio=color_ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = oracle_quickshift_segment(lab, params)
    got = quickshift_segment(lab, params)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.block_sizes, want.block_sizes)


def two_by_two_scene() -> np.ndarray:
    """A 24x24 noisy image of four colour quadrants.

    Starting at sigma 5, the sweep gives 4 blocks for its first six
    sigmas, then 6 and 9: scale 6 is met at once, scale 16 at the last
    attempt, and scale 60 is missed.
    """
    rng = np.random.default_rng(3)
    yy, xx = np.mgrid[:24, :24]
    img = np.zeros((24, 24, 3))
    img[..., 0] = np.where(xx < 12, 200, 40)
    img[..., 1] = np.where(yy < 12, 180, 60)
    img[..., 2] = 100 + 3 * xx
    return np.clip(img + rng.normal(0, 6, img.shape), 0, 255).astype(np.uint8)


SCALES = (6, 16, 60)


def seed_style_cascade(features, image, config):
    """The per-scale loop before sweep sharing, on the oracle."""
    lab = srgb_to_lab(image)
    params = config.segmenter
    x = features
    parts = []
    for scale in config.scales:
        part_full = oracle_match_scale(lab, params, scale)
        part = downsample_partition(part_full, *features.shape[1:])
        x = message_pass(x, part, config.alpha)
        parts.append((scale, part))
    return x, parts


def test_cascade_matches_seed_style_loop():
    image = two_by_two_scene()
    features = np.random.default_rng(7).normal(size=(3, 12, 12)).astype(np.float32)
    config = MspConfig(alpha=0.5, scales=SCALES, segmenter=QuickShiftParams())
    want, want_parts = seed_style_cascade(features, image, config)
    with pytest.warns(UserWarning, match="missed") as record:
        got, trace = cascade_forward(features, image, config)
    assert len(record) == 1
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert [s for s, _ in trace.stages] == [s for s, _ in want_parts]
    for (_, g), (_, w) in zip(trace.stages, want_parts):
        assert np.array_equal(g.labels, w.labels)
        assert np.array_equal(g.block_sizes, w.block_sizes)


def walk_offsets(radius: int, tau: float) -> list[tuple[int, int]]:
    """The offsets one walk measures, in order: every window offset for
    density, then the link offsets (0 < dy^2 + dx^2 <= tau^2)."""
    window = [(dy, dx) for dy in range(-radius, radius + 1)
              for dx in range(-radius, radius + 1)]
    links = [(dy, dx) for dy, dx in window if 0 < dy * dy + dx * dx <= tau**2]
    return window + links


def test_cascade_walks_the_window_twice(monkeypatch):
    image = two_by_two_scene()
    features = np.zeros((2, 12, 12), dtype=np.float32)
    measured = []  # the (dy, dx) of every distance computed
    sq_dist = qs_module._sq_dist

    def counting(planes, w, a, dy, dx, scratch):
        measured.append((dy, dx))
        return sq_dist(planes, w, a, dy, dx, scratch)

    monkeypatch.setattr(qs_module, "_sq_dist", counting)
    config = MspConfig(scales=SCALES, segmenter=QuickShiftParams())
    # Scale 6 is met at sigma 5 (window radius 15); scale 16 misses it,
    # and one walk at sigma 4 (radius 12, the widest of the rest of the
    # ladder) serves sigmas 4 down to 5 * 0.8^7 for scales 16 and 60.
    want = walk_offsets(15, 10.0) + walk_offsets(12, 10.0)
    with pytest.warns(UserWarning, match="missed"):
        cascade_forward(features, image, config)
    assert measured == want
    with pytest.warns(UserWarning, match="missed"):
        cascade_forward(features, image, config)
    assert measured == want + want  # nothing is kept from one call to the next


def test_ladder_walk_scratch_memory():
    # The seven sigmas after 5 at 192^2: each one holds a density, a
    # link distance and a parent (24 B/pixel); the colour planes, the
    # index map and one offset's temporaries come on top.
    rng = np.random.default_rng(8)
    lab = srgb_to_lab(rng.integers(0, 256, (192, 192, 3)).astype(np.uint8))
    params = QuickShiftParams()
    sigmas = [5.0 * 0.8**k for k in range(1, 8)]
    tracemalloc.start()
    try:
        parts = qs_module._segment_sigmas(lab, params, sigmas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(parts) == 7
    assert peak <= 320 * 192 * 192, f"{peak / 192**2:.1f} B/pixel"


@st.composite
def sigma_ladders(draw):
    """1 to 8 sigmas in descending order. Steps of 1.0 repeat a sigma,
    steps near 1 repeat a window radius, and a first sigma up to 8
    (radius 24) reaches past every test image's cap of 19."""
    sigmas = [draw(st.floats(0.3, 8.0))]
    steps = draw(st.lists(
        st.sampled_from([1.0, 0.95, 0.8]) | st.floats(0.5, 1.0), max_size=7))
    for step in steps:
        sigmas.append(sigmas[-1] * step)
    return sigmas


@settings(max_examples=80, deadline=None)
@given(
    lab=lab_images(),
    sigmas=sigma_ladders(),
    color_ratio=st.floats(0.0, 1.0),
    tau_frac=st.floats(0.01, 0.99),
    tau_mode=st.sampled_from(["pruned", "integer", "unpruned"]),
)
def test_sigma_walk_matches_oracle_at_each_sigma(
    lab, sigmas, color_ratio, tau_frac, tau_mode
):
    radius = int(math.ceil(3.0 * sigmas[0]))  # the widest window
    if tau_mode == "pruned":
        tau = tau_frac * radius
    elif tau_mode == "integer":
        tau = float(max(1, round(tau_frac * radius)))
    else:
        tau = radius * math.sqrt(2.0) + 10.0 * tau_frac
    params = quiet_params(sigma=sigmas[0], tau=tau, color_ratio=color_ratio)
    parts = qs_module._segment_sigmas(lab, params, sigmas)
    assert len(parts) == len(sigmas)
    for sigma, got in zip(sigmas, parts):
        want = oracle_quickshift_segment(lab, quiet_params(
            sigma=sigma, tau=tau, color_ratio=color_ratio))
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.block_sizes, want.block_sizes)


def test_match_scale_memo_is_read_and_filled():
    lab = srgb_to_lab(two_by_two_scene())
    params = QuickShiftParams()
    memo = {}
    first = quickshift_match_scale(lab, params, 16, memo=memo)
    assert len(memo) == 8 and first is memo[min(memo)]
    assert quickshift_match_scale(lab, params, 6, memo=memo) is memo[5.0]
    want = oracle_quickshift_segment(lab, replace(params, sigma=min(memo)))
    assert np.array_equal(first.labels, want.labels)


def test_missed_target_warns_and_returns_last_attempt():
    lab = srgb_to_lab(two_by_two_scene())
    params = QuickShiftParams()
    with pytest.warns(UserWarning) as record:
        got = quickshift_match_scale(lab, params, 60)
    (w,) = record
    msg = str(w.message)
    final_sigma = 5.0 * 0.8**7
    assert "60" in msg and "9 blocks" in msg and f"{final_sigma:g}" in msg
    want = oracle_match_scale(lab, params, 60)
    assert np.array_equal(got.labels, want.labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quickshift_match_scale(lab, params, 16)  # met on the last attempt: silent


def test_window_is_capped_by_the_image(monkeypatch):
    rng = np.random.default_rng(5)
    lab = srgb_to_lab(rng.integers(0, 256, (6, 8, 3)).astype(np.uint8))
    # sigma 10 spans offsets up to 30, the oracle walks all of them, and
    # every offset beyond 7 = max(H, W) - 1 leaves the image.
    params = quiet_params(sigma=10.0, tau=12.0)
    want = oracle_quickshift_segment(lab, params)
    assert np.array_equal(quickshift_segment(lab, params).labels, want.labels)

    bound = (2 * 7 + 1) ** 2  # one walk over |dy|, |dx| <= 7
    calls = []

    def counting(h, w, dy, dx):
        calls.append((dy, dx))
        assert len(calls) <= bound, "window offsets not capped by the image"
        return _offset_slices(h, w, dy, dx)

    monkeypatch.setattr(qs_module, "_offset_slices", counting)
    quickshift_segment(lab, quiet_params(sigma=1e4, tau=12.0))
    assert 0 < len(calls) <= bound
    assert max(max(abs(dy), abs(dx)) for dy, dx in calls) == 7


def test_each_window_offset_is_sliced_once(monkeypatch):
    rng = np.random.default_rng(6)
    lab = srgb_to_lab(rng.integers(0, 256, (9, 7, 3)).astype(np.uint8))
    calls = []

    def counting(h, w, dy, dx):
        calls.append((dy, dx))
        return _offset_slices(h, w, dy, dx)

    monkeypatch.setattr(qs_module, "_offset_slices", counting)
    # Radius 3 and tau = inf: all 49 offsets overlap the image, and the
    # density and link passes both use every one of them.
    params = QuickShiftParams(sigma=1.0, tau=math.inf)
    got = quickshift_segment(lab, params)
    window = [(dy, dx) for dy in range(-3, 4) for dx in range(-3, 4)]
    assert sorted(calls) == window
    assert np.array_equal(got.labels, oracle_quickshift_segment(lab, params).labels)
