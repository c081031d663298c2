"""Quick Shift against the earlier implementations, and the shared sweep.

The first oracle below is the original ``quickshift_segment``, which scans
every window offset for links and breaks density ties by comparing
row-major indices, and the original ``quickshift_match_scale``, which
restarts its sigma sweep on every call. The second is the several-sigma
walk that linked every pixel over every link offset in row-major order
(``oracle_segment_sigmas``). The library versions skip offsets beyond
tau, break density ties by the sign of the offset's index step, segment
several sigmas in one window walk, link nearest-first, and share one
sweep across the scales of a cascade; labels and cascade outputs must
stay the same, bit for bit.
"""

import importlib
import math
import tracemalloc
import warnings
from unittest import mock
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
from spxkit.core import SuperpixelPartition, check_lab_image, relabel_contiguous

qs_module = importlib.import_module("spxkit.quickshift")


# Slicing and distance helpers of the oracles below, kept apart from
# the library's own so that the oracles do not run on the code they check.
def _offset_slices(h: int, w: int, dy: int, dx: int):
    """Slices (a, b) so that b is a shifted by (dy, dx), both in bounds."""
    ay0, ay1 = max(0, -dy), h - max(0, dy)
    ax0, ax1 = max(0, -dx), w - max(0, dx)
    a = (slice(ay0, ay1), slice(ax0, ax1))
    b = (slice(ay0 + dy, ay1 + dy), slice(ax0 + dx, ax1 + dx))
    return a, b


def _runs(w: int, a, dy: int, dx: int) -> tuple[slice, slice]:
    """The whole rows of ``a``, and the (dy, dx) neighbours of their
    pixels, as two runs of the padded layout (see ``_segment_sigmas``)."""
    start, stop = (a[0].start + 1) * w, (a[0].stop + 1) * w
    step = dy * w + dx
    return slice(start, stop), slice(start + step, stop + step)


def _sq_dist(
    planes: np.ndarray, w: int, a, dy: int, dx: int, scratch: np.ndarray
) -> np.ndarray:
    """Squared 5-D feature distance from each pixel in the whole rows
    of ``a`` to its (dy, dx) neighbour, +inf in the columns outside
    ``a``, in the first row of ``scratch``.

    ``planes`` holds the three scaled Lab planes in the padded layout,
    shape (3, (H + 2) * W); ``scratch`` has shape (3, H*W), and its
    other two rows are free once this returns. The x/y differences are
    exactly dx and dy, so their squares are added as scalars. Terms are
    summed in the order L, a, b, x, y: the order in which
    ``ndarray.sum(axis=2)`` reduces a stacked (H, W, 5) feature array,
    so the sums are the same floats.
    """
    run, nbr = _runs(w, a, dy, dx)
    n = run.stop - run.start
    diff = scratch[:3, :n]
    np.subtract(planes[:, nbr], planes[:, run], out=diff)
    diff *= diff
    d2 = np.add(diff[0], diff[1], out=diff[0])
    d2 += diff[2]
    d2 += dx * dx
    d2 += dy * dy
    by_row = d2.reshape(-1, w)
    by_row[:, :a[1].start] = np.inf  # these columns wrapped to another row
    by_row[:, a[1].stop:] = np.inf
    return d2


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


def oracle_segment_sigmas(
    lab: np.ndarray, params: QuickShiftParams, sigmas: list[float]
) -> list[np.ndarray]:
    """Each pixel's parent at each of ``sigmas``, flat (H*W), by the
    several-sigma walk that links every pixel over every link offset
    of its sigma's window in row-major order."""
    lab = check_lab_image(lab)
    h, w = lab.shape[:2]
    size = (h + 2) * w

    planes = np.zeros((3, size))
    planes[:, w:-w] = np.moveaxis(lab * params.color_ratio, 2, 0).reshape(3, -1)
    scratch = np.empty((3, h * w))
    radii = [min(int(math.ceil(3.0 * s)), max(h, w) - 1) for s in sigmas]
    radius = max(radii)
    window = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            a, _ = _offset_slices(h, w, dy, dx)
            if a[0].start < a[0].stop and a[1].start < a[1].stop:
                reach = max(abs(dy), abs(dx))
                held = [k for k, r in enumerate(radii) if reach <= r]
                window.append((dy, dx, a, *_runs(w, a, dy, dx), held))

    neg_inv_two_sigma2 = [-(1.0 / (2.0 * s**2)) for s in sigmas]
    density = [np.zeros(size) for _ in sigmas]
    with np.errstate(over="ignore"):
        for dy, dx, a, run, _, held in window:
            d2 = _sq_dist(planes, w, a, dy, dx, scratch)
            term = scratch[1, :d2.size]
            for k in held:
                np.multiply(d2, neg_inv_two_sigma2[k], out=term)
                density[k][run] += np.exp(term, out=term)

    idx = np.arange(-w, size - w, dtype=np.int64)
    parent = [idx.copy() for _ in sigmas]
    best_d2 = [np.full(size, np.inf) for _ in sigmas]
    tau2 = params.tau**2
    for dy, dx, a, run, nbr, held in window:
        if (dy == 0 and dx == 0) or dy * dy + dx * dx > tau2:
            continue
        d2 = _sq_dist(planes, w, a, dy, dx, scratch)
        near = d2 <= tau2
        ties_up = dy * w + dx < 0
        for k in held:
            dens, best = density[k], best_d2[k][run]
            if ties_up:
                higher = dens[nbr] >= dens[run]
            else:
                higher = dens[nbr] > dens[run]
            take = higher & near & (d2 < best)
            np.copyto(best, d2, where=take)
            np.copyto(parent[k][run], idx[nbr], where=take)
    return [links[w:-w] for links in parent]


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


def walk_offsets(radius: int, tau: float, dense: bool) -> list[tuple[int, int]]:
    """The offsets one walk measures, in order: every window offset for
    density, the 8 nearest link offsets for every pixel, then, when more
    than a fixed share of pixels stays open, every link offset
    (0 < dy^2 + dx^2 <= tau^2) in the row-major link walk."""
    window = [(dy, dx) for dy in range(-radius, radius + 1)
              for dx in range(-radius, radius + 1)]
    links = [(dy, dx) for dy, dx in window if 0 < dy * dy + dx * dx <= tau**2]
    nearest = [(dy, dx) for dy, dx in links if dy * dy + dx * dx <= 2]
    return window + nearest + (links if dense else [])


def test_cascade_walks_the_window_twice(monkeypatch):
    image = two_by_two_scene()
    features = np.zeros((2, 12, 12), dtype=np.float32)
    measured = []  # the (dy, dx) of every distance computed
    sq_dist = qs_module._sq_dist

    def counting(planes, w, offset, scratch):
        measured.append(offset[:2])
        return sq_dist(planes, w, offset, scratch)

    monkeypatch.setattr(qs_module, "_sq_dist", counting)
    config = MspConfig(scales=SCALES, segmenter=QuickShiftParams())
    # Scale 6 is met at sigma 5 (window radius 15); scale 16 misses it,
    # and one walk at sigma 4 (radius 12, the widest of the rest of the
    # ladder) serves sigmas 4 down to 5 * 0.8^7 for scales 16 and 60.
    # The scene is noisy, so both walks link densely; every sigma of
    # the ladder with a dense link walk holds all the link offsets.
    want = walk_offsets(15, 10.0, dense=True) + walk_offsets(12, 10.0, dense=True)
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
    window = qs_module._window

    def counting(h, w, radii, pad):
        entries = window(h, w, radii, pad)
        calls.extend(o[:2] for o in entries)
        assert len(calls) <= bound, "window offsets not capped by the image"
        return entries

    monkeypatch.setattr(qs_module, "_window", counting)
    quickshift_segment(lab, quiet_params(sigma=1e4, tau=12.0))
    assert 0 < len(calls) <= bound
    assert max(max(abs(dy), abs(dx)) for dy, dx in calls) == 7


def test_each_window_offset_is_sliced_once(monkeypatch):
    rng = np.random.default_rng(6)
    lab = srgb_to_lab(rng.integers(0, 256, (9, 7, 3)).astype(np.uint8))
    calls = []
    window = qs_module._window

    def counting(h, w, radii, pad):
        entries = window(h, w, radii, pad)
        calls.extend(o[:2] for o in entries)
        return entries

    monkeypatch.setattr(qs_module, "_window", counting)
    # Radius 3 and tau = inf: all 49 offsets overlap the image, and the
    # density and link passes both use every one of them.
    params = QuickShiftParams(sigma=1.0, tau=math.inf)
    got = quickshift_segment(lab, params)
    window = [(dy, dx) for dy in range(-3, 4) for dx in range(-3, 4)]
    assert sorted(calls) == window
    assert np.array_equal(got.labels, oracle_quickshift_segment(lab, params).labels)


@st.composite
def tie_images(draw):
    """2 to 4 colours in blocks, so densities tie and link distances are
    equal across offsets. Some images are 2 pixels high or wide, the
    least the library takes, so most window offsets leave them."""
    form = draw(st.sampled_from(["two rows", "two columns", "any"]))
    h = 2 if form == "two rows" else draw(st.integers(2, 16 if form == "any" else 24))
    w = 2 if form == "two columns" else draw(st.integers(2, 16 if form == "any" else 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    colours = rng.integers(0, 256, (draw(st.integers(2, 4)), 3))
    cell = draw(st.integers(1, 4))
    coarse = colours[rng.integers(0, len(colours), (-(-h // cell), -(-w // cell)))]
    img = np.repeat(np.repeat(coarse, cell, axis=0), cell, axis=1)[:h, :w]
    return srgb_to_lab(img.astype(np.uint8))


@st.composite
def integer_lab_images(draw):
    """Lab images of small integers in blocks. With a colour ratio of
    0.5 or 1, every d2 is exact, so a farther offset can tie a nearer
    one (say d2 = 4 + 1 against 0 + 5) and the index step decides."""
    h, w = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(2, 4))
    cell = draw(st.integers(1, 3))
    coarse = rng.integers(0, levels, (-(-h // cell), -(-w // cell), 3))
    return np.repeat(np.repeat(coarse, cell, axis=0), cell, axis=1)[:h, :w].astype(float)


@settings(max_examples=150, deadline=None)
@given(
    lab=st.one_of(tie_images(), lab_images(), integer_lab_images()),
    sigmas=sigma_ladders(),
    color_ratio=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    tau=st.sampled_from([0.0, 1.0, math.sqrt(2.0), 1.5, 2.0, 3.0, math.inf])
    | st.floats(0.0, 40.0),
    dense_open=st.sampled_from([None, 0.0, 1.0]),
)
def test_nearest_first_links_match_row_major_walk(lab, sigmas, color_ratio, tau, dense_open):
    # dense_open 0.0 sends every sigma with an open pixel to the
    # row-major walk and 1.0 sends every one to the gather; None keeps
    # the library's switch point.
    params = quiet_params(sigma=sigmas[0], tau=tau, color_ratio=color_ratio)
    want = oracle_segment_sigmas(lab, params, sigmas)
    switch = qs_module._DENSE_OPEN if dense_open is None else dense_open
    with mock.patch.object(qs_module, "_DENSE_OPEN", switch):
        got = qs_module._parents(check_lab_image(lab), params, sigmas)
        parts = qs_module._segment_sigmas(lab, params, sigmas)
    assert len(got) == len(parts) == len(sigmas)
    for sigma, links, want_links, part in zip(sigmas, got, want, parts):
        assert np.array_equal(links, want_links)  # the same parents, not only the same trees
        one = oracle_quickshift_segment(lab, quiet_params(
            sigma=sigma, tau=tau, color_ratio=color_ratio))
        assert np.array_equal(part.labels, one.labels)


@pytest.mark.parametrize("dense_open", [0.0, 1.0])
def test_exact_distance_ties_go_to_the_smaller_step(dense_open):
    # Small-integer Lab values at colour ratio 1 make every d2 exact,
    # so a pixel's nearest link (say d2 = 4 + 1) often ties a farther
    # offset (0 + 5), and the farther one wins when its index step is
    # smaller. Both link paths must agree with the row-major walk.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(2, 10, 2)
        lab = rng.integers(0, rng.integers(2, 5), (h, w, 3)).astype(float)
        sigmas = [float(rng.uniform(0.5, 3.0)), 0.8]
        params = quiet_params(sigma=sigmas[0], tau=float(rng.choice([2.0, 3.0, 5.0, 10.0])),
                              color_ratio=1.0)
        want = oracle_segment_sigmas(lab, params, sigmas)
        with mock.patch.object(qs_module, "_DENSE_OPEN", dense_open):
            got = qs_module._parents(lab, params, sigmas)
        for links, want_links in zip(got, want):
            assert np.array_equal(links, want_links), seed


def padded_layout(h, w, radius, tau2, colours, densities):
    """Planes and one density in the layout ``_parents`` uses, padded by
    1 + reach rows, with the image rows ``inner``; reach is the largest
    |dy| of a link offset within ``radius`` and tau."""
    pad = 1 + int(min(math.sqrt(tau2), radius, h - 1))
    size = (h + 2 * pad) * w
    inner = slice(pad * w, (pad + h) * w)
    planes, density = np.zeros((3, size)), [np.zeros(size)]
    planes[:, inner] = colours
    density[0][inner] = densities
    return planes, density, inner


def test_gather_agrees_with_walk_on_tied_densities():
    # The two link paths on made-up densities of two values, which tie
    # everywhere, and small-integer colours, which tie distances: the
    # 8 nearest offsets then the gather must give what the row-major
    # walk over every link offset gives, distance for distance.
    walk, gather = qs_module._link_walk, qs_module._link_gather
    for seed in range(80):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(2, 9, 2))
        colours, densities = rng.integers(0, 3, (3, h * w)), rng.integers(1, 3, h * w)
        radius = int(rng.integers(1, max(h, w)))
        tau2 = float(rng.choice([2.0, 4.0, 9.0, 25.0, math.inf]))
        planes, density, inner = padded_layout(h, w, radius, tau2, colours, densities)
        window = qs_module._window(h, w, [radius], inner.start // w)
        links = [o for o in window if 0 < o[0] ** 2 + o[1] ** 2 <= tau2]
        nearest = [o for o in links if o[0] ** 2 + o[1] ** 2 <= 2]
        far = [o for o in links if o[0] ** 2 + o[1] ** 2 > 2]
        idx = np.arange(planes.shape[1]) - inner.start
        scratch = np.empty((3, h * w))
        unlinked = float(np.nextafter(tau2, np.inf))
        best, parent = [np.full(idx.size, unlinked)], [idx.copy()]
        walk(planes, w, links, [0], density, best, parent, idx, scratch)
        got_best, got_parent = [np.full(idx.size, unlinked)], [idx.copy()]
        walk(planes, w, nearest, [0], density, got_best, got_parent, idx, scratch)
        pixels = np.flatnonzero(got_best[0][inner] >= 4.0)
        if far and pixels.size:
            gather(planes, w, inner, links, [(0, pixels)], density, got_best, got_parent, unlinked)
        assert np.array_equal(got_parent[0], parent[0]), seed
        assert np.array_equal(got_best[0], best[0]), seed


def test_gather_links_open_pixels_afresh():
    # The gather must not read what a job pixel held before: with a
    # stale best d2 of 0 and a link to pixel 0 in every job pixel, it
    # still gives what the row-major walk over every link offset gives.
    walk, gather = qs_module._link_walk, qs_module._link_gather
    for seed in range(60):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(2, 9, 2))
        colours, densities = rng.integers(0, 3, (3, h * w)), rng.integers(1, 3, h * w)
        radius = int(rng.integers(1, max(h, w)))
        tau2 = float(rng.choice([2.0, 4.0, 9.0, 25.0, math.inf]))
        planes, density, inner = padded_layout(h, w, radius, tau2, colours, densities)
        window = qs_module._window(h, w, [radius], inner.start // w)
        links = [o for o in window if 0 < o[0] ** 2 + o[1] ** 2 <= tau2]
        idx = np.arange(planes.shape[1]) - inner.start
        unlinked = float(np.nextafter(tau2, np.inf))
        best, parent = [np.full(idx.size, unlinked)], [idx.copy()]
        walk(planes, w, links, [0], density, best, parent, idx, np.empty((3, h * w)))
        pixels = np.flatnonzero(rng.random(h * w) < 0.5)
        got_best, got_parent = [best[0].copy()], [parent[0].copy()]
        got_best[0][inner.start + pixels] = 0.0
        got_parent[0][inner.start + pixels] = 0
        gather(planes, w, inner, links, [(0, pixels)], density, got_best, got_parent, unlinked)
        assert np.array_equal(got_parent[0], parent[0]), seed
        assert np.array_equal(got_best[0], best[0]), seed


def test_gather_scratch_is_bounded_with_more_offsets_than_pixels(monkeypatch):
    # A clean 24^2 scene at sigma 8, tau 30: its window (radius 23, the
    # image's cap) holds far more link offsets than H*W/4 = 144. A chunk
    # then holds one pixel, so the gather's scratch is one row of
    # (pixel, offset) pairs and a few arrays over the offsets; it reads
    # the planes and the density in place.
    lab = srgb_to_lab(clean_scene())
    h, w = lab.shape[:2]
    params = QuickShiftParams(sigma=8.0, tau=30.0)
    links = sum(0 < dy * dy + dx * dx <= 900 for dy in range(-23, 24) for dx in range(-23, 24))
    assert links > h * w // 4
    peaks, gather = [], qs_module._link_gather

    def traced_gather(*args):
        tracemalloc.start()
        try:
            gather(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(qs_module, "_link_gather", traced_gather)
    with mock.patch.object(qs_module, "_DENSE_OPEN", 1.0):  # always gather
        part = quickshift_segment(lab, params)
    assert np.array_equal(part.labels, oracle_quickshift_segment(lab, params).labels)
    (peak,) = peaks
    assert peak <= 128 * max(h * w // 4, links), f"{peak} B"


def voronoi_scene(seed: int, size: int, regions: int) -> np.ndarray:
    """A noiseless (size, size, 3) uint8 scene of Voronoi regions, each
    with a gentle colour ramp."""
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0, size, (regions, 2))
    base = rng.uniform(40.0, 215.0, (regions, 3))
    slope = rng.uniform(-2.0, 2.0, (regions, 3, 2)) * (24.0 / size)
    yy, xx = np.mgrid[:size, :size].astype(np.float64)
    region = np.argmin((yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2,
                       axis=2)
    img = (base[region] + slope[region, :, 0] * (yy - sites[region, 0])[..., None]
           + slope[region, :, 1] * (xx - sites[region, 1])[..., None])
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def test_gathered_segment_memory(monkeypatch):
    # A clean 256^2 scene at the default sigma: few pixels stay open
    # after the 8 nearest offsets, so the gather links them, reading the
    # planes and the density in place. One sigma holds a density, a link
    # distance and a parent (24 B/pixel) in the padded layout; the
    # colour planes, the distance scratch, the index map and the
    # gather's chunk come on top.
    lab = srgb_to_lab(voronoi_scene(3, 256, 12))
    gathered, gather = [], qs_module._link_gather

    def counting_gather(planes, w, inner, links, jobs, *rest):
        gathered.extend(k for k, _ in jobs)
        return gather(planes, w, inner, links, jobs, *rest)

    monkeypatch.setattr(qs_module, "_link_gather", counting_gather)
    tracemalloc.start()
    try:
        quickshift_segment(lab, QuickShiftParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gathered == [0]
    assert peak <= 120 * 256 * 256, f"{peak / 256**2:.1f} B/pixel"


@pytest.mark.parametrize("shape", [(1, 9, 3), (9, 1, 3)])
def test_single_row_or_column_is_refused(shape):
    lab = np.zeros(shape)
    for segment in (oracle_segment_sigmas, qs_module._segment_sigmas):
        with pytest.raises(ValueError, match="at least 2x2"):
            segment(lab, QuickShiftParams(), [5.0])


def clean_scene() -> np.ndarray:
    """The quadrants of ``two_by_two_scene`` without its noise."""
    yy, xx = np.mgrid[:24, :24]
    img = np.zeros((24, 24, 3))
    img[..., 0] = np.where(xx < 12, 200, 40)
    img[..., 1] = np.where(yy < 12, 180, 60)
    img[..., 2] = 100 + 3 * xx
    return img.astype(np.uint8)


@pytest.mark.parametrize("scene, path", [("clean", "gather"), ("noise", "walk")])
def test_clean_scenes_gather_and_noise_walks(monkeypatch, scene, path):
    if scene == "clean":
        lab = srgb_to_lab(clean_scene())
    else:
        rng = np.random.default_rng(9)
        lab = srgb_to_lab(rng.integers(0, 256, (24, 24, 3)).astype(np.uint8))
    sigmas = [5.0, 4.0, 3.2]
    gathered, walked = [], []  # the sigma indices each path links
    gather, walk = qs_module._link_gather, qs_module._link_walk

    def counting_gather(planes, w, inner, links, jobs, *rest):
        gathered.extend(k for k, _ in jobs)
        return gather(planes, w, inner, links, jobs, *rest)

    def counting_walk(planes, w, offsets, ks, *rest):
        walked.append((len(offsets), list(ks)))
        return walk(planes, w, offsets, ks, *rest)

    monkeypatch.setattr(qs_module, "_link_gather", counting_gather)
    monkeypatch.setattr(qs_module, "_link_walk", counting_walk)
    params = QuickShiftParams()
    got = qs_module._segment_sigmas(lab, params, sigmas)
    probe = (8, [0, 1, 2])  # the 8 nearest offsets, for every sigma
    links = sum(0 < dy * dy + dx * dx <= 100 for dy in range(-10, 11) for dx in range(-10, 11))
    if path == "gather":
        assert gathered == [0, 1, 2] and walked == [probe]
    else:  # every link offset within tau, for every sigma
        assert gathered == [] and walked == [probe, (links, [0, 1, 2])]
    for sigma, part in zip(sigmas, got):
        want = oracle_quickshift_segment(lab, replace(params, sigma=sigma))
        assert np.array_equal(part.labels, want.labels)
