"""SLIC k-means steps against the earlier implementations.

The oracle below is the original ``_assign`` (a Python loop over
clusters, each updating its clipped window with a strict ``<``), the
original ``_initial_centers`` (a Python loop over seeds and over each
seed's 3x3 neighborhood) and the original ``_border_neighbors`` (a
``np.unique(axis=0)`` over sorted pixel pairs). The library versions
batch clusters and seeds; labels, centers and neighbor maps must stay
the same, bit for bit, and the assignment's scratch memory must not
grow with the cluster count. The ``slic_segment`` loop is checked
against its form from when the iteration cap, residual threshold and
fragment floor were settable, with their values written in.
"""

import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spxkit import SlicParams, slic_segment, srgb_to_lab

slic_module = importlib.import_module("spxkit.slic")


def oracle_lab_gradient(lab: np.ndarray) -> np.ndarray:
    padded = np.pad(lab, ((1, 1), (1, 1), (0, 0)), mode="edge")
    dx = padded[1:-1, 2:] - padded[1:-1, :-2]
    dy = padded[2:, 1:-1] - padded[:-2, 1:-1]
    return (dx**2).sum(axis=2) + (dy**2).sum(axis=2)


def oracle_initial_centers(lab: np.ndarray, num_superpixels: int) -> np.ndarray:
    h, w = lab.shape[:2]
    spacing = np.sqrt(h * w / num_superpixels)
    n_y = max(1, round(h / spacing))
    n_x = max(1, round(w / spacing))
    step_y = h / n_y
    step_x = w / n_x
    grad = oracle_lab_gradient(lab)

    centers = np.empty((n_y * n_x, 5))
    k = 0
    for i in range(n_y):
        for j in range(n_x):
            cy = (i + 0.5) * step_y - 0.5
            cx = (j + 0.5) * step_x - 0.5
            py = min(h - 1, max(0, int(round(cy))))
            px = min(w - 1, max(0, int(round(cx))))
            best = grad[py, px]
            best_pos = None
            for ny in range(max(0, py - 1), min(h, py + 2)):
                for nx in range(max(0, px - 1), min(w, px + 2)):
                    if grad[ny, nx] < best:
                        best = grad[ny, nx]
                        best_pos = (ny, nx)
            if best_pos is not None:
                py, px = best_pos
                cy, cx = float(py), float(px)
            centers[k, :3] = lab[py, px]
            centers[k, 3] = cx
            centers[k, 4] = cy
            k += 1
    return centers


def oracle_assign(
    lab: np.ndarray, centers: np.ndarray, spacing: float, ratio: float
) -> np.ndarray:
    h, w = lab.shape[:2]
    best = np.full((h, w), np.inf)
    labels = np.full((h, w), -1, dtype=np.int32)
    half = spacing

    for k in range(len(centers)):
        cl = centers[k, :3]
        cx, cy = centers[k, 3], centers[k, 4]
        y0 = max(0, int(np.floor(cy - half)))
        y1 = min(h, int(np.ceil(cy + half)) + 1)
        x0 = max(0, int(np.floor(cx - half)))
        x1 = min(w, int(np.ceil(cx + half)) + 1)
        if y0 >= y1 or x0 >= x1:
            continue
        win = lab[y0:y1, x0:x1]
        d_c2 = ((win - cl) ** 2).sum(axis=2)
        yy = np.arange(y0, y1, dtype=np.float64)[:, None] - cy
        xx = np.arange(x0, x1, dtype=np.float64)[None, :] - cx
        d2 = d_c2 + ratio * (yy**2 + xx**2)
        view_best = best[y0:y1, x0:x1]
        view_labels = labels[y0:y1, x0:x1]
        better = d2 < view_best
        view_best[better] = d2[better]
        view_labels[better] = k

    missed = labels < 0
    if missed.any():
        ys, xs = np.nonzero(missed)
        pts = np.concatenate(
            [lab[ys, xs], xs[:, None].astype(np.float64), ys[:, None].astype(np.float64)],
            axis=1,
        )
        d_c2 = ((pts[:, None, :3] - centers[None, :, :3]) ** 2).sum(axis=2)
        d_s2 = ((pts[:, None, 3:] - centers[None, :, 3:]) ** 2).sum(axis=2)
        labels[ys, xs] = np.argmin(d_c2 + ratio * d_s2, axis=1).astype(np.int32)
    return labels


def oracle_border_neighbors(comp: np.ndarray, ncomp: int) -> list[dict[int, int]]:
    pairs = []
    a, b = comp[:, :-1].ravel(), comp[:, 1:].ravel()
    m = a != b
    pairs.append(np.stack([a[m], b[m]], axis=1))
    a, b = comp[:-1, :].ravel(), comp[1:, :].ravel()
    m = a != b
    pairs.append(np.stack([a[m], b[m]], axis=1))
    allp = np.concatenate(pairs, axis=0)
    if allp.size:
        allp = np.sort(allp, axis=1)
        uniq, counts = np.unique(allp, axis=0, return_counts=True)
    else:
        uniq, counts = np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    neighbors: list[dict[int, int]] = [dict() for _ in range(ncomp)]
    for (p, q), c in zip(uniq, counts):
        neighbors[int(p)][int(q)] = int(c)
        neighbors[int(q)][int(p)] = int(c)
    return neighbors


def oracle_slic_segment(lab, num_superpixels, compactness):
    h, w = lab.shape[:2]
    spacing = np.sqrt(h * w / num_superpixels)
    ratio = compactness**2 / spacing**2
    centers = slic_module._initial_centers(lab, num_superpixels)
    yx = np.indices((h, w), dtype=np.float64).reshape(2, -1)
    points = np.vstack([lab.reshape(-1, 3).T, yx[::-1]])

    labels = None
    for _ in range(10):  # max_iterations
        labels = slic_module._assign(lab, centers, spacing, ratio)
        new_centers = slic_module._update_centers(points, labels, centers)
        d_c2 = ((new_centers[:, :3] - centers[:, :3]) ** 2).sum(axis=1)
        d_s2 = ((new_centers[:, 3:] - centers[:, 3:]) ** 2).sum(axis=1)
        residual = float(np.mean(np.sqrt(d_c2 + ratio * d_s2)))
        centers = new_centers
        if residual < 0.25:  # residual_threshold
            break

    min_size = max(1, int(0.25 * spacing**2))  # min_region_fraction
    return slic_module.enforce_connectivity(labels, min_size)


def assert_assign_matches(lab, centers, spacing, ratio):
    got = slic_module._assign(lab, centers, spacing, ratio)
    want = oracle_assign(lab, centers, spacing, ratio)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def assert_neighbors_match(raw: np.ndarray) -> None:
    comp, ncomp = slic_module._components_first_appearance(raw)
    got = slic_module._border_neighbors(comp, ncomp)
    want = oracle_border_neighbors(comp, ncomp)
    # Equal dicts with equal insertion order: the merge loop iterates them.
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]


def random_lab(rng, h, w, quantized):
    lab = rng.normal(0.0, 30.0, (h, w, 3))
    # Few distinct values make exact distance and gradient ties common.
    return np.round(lab / 20.0) * 20.0 if quantized else lab


def scene_lab(seed: int, noise: float, size: int = 96) -> np.ndarray:
    """Voronoi regions of flat colour plus Gaussian noise of std ``noise``."""
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0, size, (12, 2))
    colours = rng.uniform(30, 225, (12, 3))
    yy, xx = np.mgrid[:size, :size]
    region = np.argmin((yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2, axis=2)
    img = colours[region] + rng.normal(0.0, noise, (size, size, 3))
    return srgb_to_lab(np.clip(img, 0, 255).astype(np.uint8))


@st.composite
def assign_cases(draw):
    h, w = draw(st.integers(2, 28)), draw(st.integers(2, 28))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lab = random_lab(rng, h, w, draw(st.booleans()))
    k = draw(st.integers(1, max(1, h * w // 2)))
    spacing = np.sqrt(h * w / k)
    mode = draw(st.sampled_from(["grid", "uniform", "integer", "duplicated"]))
    if mode == "grid":
        centers = oracle_initial_centers(lab, k)
    else:
        # Centers may sit up to 2S outside the image, so windows clip or empty.
        centers = np.empty((k, 5))
        centers[:, :3] = random_lab(rng, k, 1, mode != "uniform")[:, 0]
        centers[:, 3] = rng.uniform(-2 * spacing, w - 1 + 2 * spacing, k)
        centers[:, 4] = rng.uniform(-2 * spacing, h - 1 + 2 * spacing, k)
        if mode != "uniform":
            centers[:, 3:] = np.round(centers[:, 3:])
        if mode == "duplicated":
            centers = centers[rng.integers(0, k, k)]
    compactness = draw(st.sampled_from([0.5, 10.0, 40.0]))
    return lab, centers, spacing, compactness**2 / spacing**2


@settings(max_examples=300, deadline=None)
@given(case=assign_cases())
def test_assign_matches_oracle(case):
    assert_assign_matches(*case)


def test_duplicated_centers_tie_to_lowest_index():
    rng = np.random.default_rng(1)
    lab = random_lab(rng, 20, 20, True)
    centers = oracle_initial_centers(lab, 16)
    centers = np.repeat(centers, 3, axis=0)  # every cluster three times
    got = slic_module._assign(lab, centers, 5.0, 4.0)
    assert np.all(got % 3 == 0)
    assert_assign_matches(lab, centers, 5.0, 4.0)


def test_ties_across_chunks_go_to_the_lowest_index():
    # With S = 6 on a 12x12 image the largest window is 10x11 pixels,
    # more than H*W/4, so each chunk holds one cluster and every tie
    # between the copies of a center is settled across chunks.
    rng = np.random.default_rng(9)
    lab = random_lab(rng, 12, 12, True)
    base = oracle_initial_centers(lab, 4)
    centers = base[[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]]
    got = slic_module._assign(lab, centers, 6.0, 0.5)
    assert np.array_equal(got, oracle_assign(lab, centers, 6.0, 0.5))
    assert np.all(got < 4)  # the first copy of each center holds every tie
    assert set(np.unique(got)) == {0, 1, 2, 3}
    # Copies out of order: a later, lower chunk ties what an earlier,
    # higher one wrote, so the label drops to the lower copy.
    order = [2, 0, 3, 1, 1, 3, 0, 2]
    got = slic_module._assign(lab, base[order], 6.0, 0.5)
    assert np.array_equal(got, oracle_assign(lab, base[order], 6.0, 0.5))
    assert set(np.unique(got)) == {0, 1, 2, 3}


def test_zero_spatial_weight_needs_no_errstate():
    # ratio 0 meets the infinite offsets outside a window as 0 * inf =
    # NaN, which must neither warn nor win; RuntimeWarnings are errors
    # in this suite.
    rng = np.random.default_rng(10)
    lab = random_lab(rng, 20, 20, False)
    centers = oracle_initial_centers(lab, 16)
    got = slic_module._assign(lab, centers, 5.0, 0.0)
    assert np.array_equal(got, oracle_assign(lab, centers, 5.0, 0.0))


def test_colour_terms_sum_in_the_seed_order():
    # s just below 2**-53: (1 + s) + s rounds to 1.0, while 1 + (s + s)
    # gives 1 + 2**-52. Cluster 0 (diffs 1, t, t) then ties cluster 1
    # (diffs 1, 0, 0) at their shared center pixel only in the seed's
    # ((dL^2 + da^2) + db^2) order, and the tie goes to cluster 0.
    t = np.sqrt(2.0**-53) * (1 - 1e-9)
    assert (1 + t * t) + t * t == 1.0 < 1 + (t * t + t * t)
    lab = np.zeros((4, 4, 3))
    centers = np.array([[1.0, t, t, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0, 1.0]])
    got = slic_module._assign(lab, centers, 4.0, 1.0)
    assert got[1, 1] == 0
    assert np.array_equal(got, oracle_assign(lab, centers, 4.0, 1.0))


def test_centers_outside_image_have_empty_windows():
    rng = np.random.default_rng(2)
    lab = random_lab(rng, 12, 9, False)
    centers = oracle_initial_centers(lab, 6)
    far = centers.copy()
    far[:, 3] += np.array([-100.0, 100.0, 0.0, 0.0, -100.0, 100.0])
    far[:, 4] += np.array([0.0, 0.0, -100.0, 100.0, 100.0, -100.0])
    far = np.concatenate([centers[:2], far])
    assert_assign_matches(lab, far, np.sqrt(12 * 9 / 6), 3.0)
    # No window at all: every pixel comes from the full search.
    assert_assign_matches(lab, far[2:], np.sqrt(12 * 9 / 6), 3.0)


def test_windows_clipped_at_every_border():
    rng = np.random.default_rng(3)
    lab = random_lab(rng, 17, 23, False)
    corners = [(0.0, 0.0), (22.0, 0.0), (0.0, 16.0), (22.0, 16.0), (-0.4, 8.3), (11.6, 16.7)]
    centers = np.array([[*lab[int(min(16, max(0, y))), int(min(22, max(0, x)))], x, y] for x, y in corners])
    assert_assign_matches(lab, centers, 6.5, 1.5)


def test_pixels_outside_every_window_use_full_search():
    rng = np.random.default_rng(4)
    lab = random_lab(rng, 30, 30, False)
    centers = np.array([[*lab[2, 3], 3.0, 2.0], [*lab[25, 26], 26.0, 25.0]])
    got = slic_module._assign(lab, centers, 3.0, 1.0)
    want = oracle_assign(lab, centers, 3.0, 1.0)
    assert np.array_equal(got, want)
    # The middle pixel lies in neither 7x7 window, yet it is labeled.
    assert got[15, 15] in (0, 1)


def test_overflowing_distances_fall_back_like_the_oracle():
    # Squares of 1e160 overflow to inf, so no window improves on inf and
    # the oracle leaves those pixels to the full search.
    rng = np.random.default_rng(5)
    lab = random_lab(rng, 10, 10, False)
    lab[3:7, 2:8] = 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        centers = oracle_initial_centers(lab, 4)
        assert_assign_matches(lab, centers, 5.0, 2.0)
        # A spatial weight that underflowed to 0 still matches.
        assert_assign_matches(lab, centers, 5.0, 0.0)


@pytest.mark.parametrize("shape", [(2, 2), (2, 17), (17, 2), (2, 40), (40, 2), (13, 13)])
def test_single_cluster_and_thin_images(shape):
    rng = np.random.default_rng(6)
    h, w = shape
    lab = random_lab(rng, h, w, False)
    for k in sorted({1, 2, max(1, h * w // 4), h * w}):
        centers = oracle_initial_centers(lab, k)
        assert np.array_equal(slic_module._initial_centers(lab, k), centers)
        spacing = np.sqrt(h * w / k)
        assert_assign_matches(lab, centers, spacing, 100.0 / spacing**2)


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(2, 30),
    w=st.integers(2, 30),
    seed=st.integers(0, 2**32 - 1),
    quantized=st.booleans(),
    data=st.data(),
)
def test_initial_centers_match_oracle(h, w, seed, quantized, data):
    lab = random_lab(np.random.default_rng(seed), h, w, quantized)
    k = data.draw(st.integers(1, h * w))
    got = slic_module._initial_centers(lab, k)
    assert np.array_equal(got, oracle_initial_centers(lab, k))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    quantized=st.booleans(),
    tall=st.booleans(),
    data=st.data(),
)
def test_initial_centers_match_oracle_on_two_pixel_strips(n, seed, quantized, tall, data):
    # Every seed's 3x3 neighborhood touches a border: off-image neighbors
    # and edge-replicated differences decide every nudge.
    h, w = (n, 2) if tall else (2, n)
    lab = random_lab(np.random.default_rng(seed), h, w, quantized)
    k = data.draw(st.integers(1, h * w))
    got = slic_module._initial_centers(lab, k)
    assert np.array_equal(got, oracle_initial_centers(lab, k))


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    labels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_border_neighbors_match_oracle(h, w, labels, seed):
    assert_neighbors_match(np.random.default_rng(seed).integers(0, labels, (h, w)))


@pytest.mark.parametrize("noise", [0.0, 4.0])
def test_arguments_of_real_runs_match_oracle(monkeypatch, noise):
    """Replay every (lab, centers) pair that slic_segment hands to _assign."""
    lab = scene_lab(seed=7, noise=noise)
    calls = []
    assign = slic_module._assign

    def capture(lab_arg, centers, spacing, ratio):
        calls.append((lab_arg, centers.copy(), spacing, ratio))
        return assign(lab_arg, centers, spacing, ratio)

    raw = []
    connect = slic_module.enforce_connectivity

    def capture_raw(raw_labels, min_size):
        raw.append(raw_labels)
        return connect(raw_labels, min_size)

    with monkeypatch.context() as patch:
        patch.setattr(slic_module, "_assign", capture)
        patch.setattr(slic_module, "enforce_connectivity", capture_raw)
        for k in (40, 150, 400):
            slic_segment(lab, SlicParams(num_superpixels=k))
    for k in (40, 150, 400):
        assert np.array_equal(
            slic_module._initial_centers(lab, k), oracle_initial_centers(lab, k)
        )
    assert len(calls) >= 6 and len(raw) == 3
    for args in calls:
        assert_assign_matches(*args)
    for labels in raw:
        assert_neighbors_match(labels)


@settings(max_examples=100, deadline=None)
@given(
    h=st.integers(2, 40),
    w=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    image=st.sampled_from(["random", "quantized", "scene"]),
    compactness=st.sampled_from([0.5, 10.0, 40.0]),
    data=st.data(),
)
def test_slic_segment_matches_oracle(h, w, seed, image, compactness, data):
    if image == "scene":
        lab = scene_lab(seed, noise=data.draw(st.sampled_from([0.0, 4.0])))[:h, :w]
    else:
        lab = random_lab(np.random.default_rng(seed), h, w, image == "quantized")
    k = data.draw(st.integers(1, h * w))
    got = slic_segment(lab, SlicParams(num_superpixels=k, compactness=compactness))
    want = oracle_slic_segment(lab, k, compactness)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.block_sizes, want.block_sizes)
    assert got.num_blocks == want.num_blocks


def test_assign_scratch_memory_does_not_grow_with_clusters():
    # 256x256, K = 400: a (K, window) table of distances would be ~2.2 MiB
    # per float64 temporary and grow with K; chunking keeps it O(H*W).
    rng = np.random.default_rng(8)
    lab = random_lab(rng, 256, 256, False)
    spacing = np.sqrt(256 * 256 / 400)
    centers = oracle_initial_centers(lab, 400)
    tracemalloc.start()
    try:
        slic_module._assign(lab, centers, spacing, 100.0 / spacing**2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
