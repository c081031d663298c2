import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spxkit import (
    QuickShiftParams,
    quickshift_match_scale,
    quickshift_segment,
    srgb_to_lab,
    validate_partition,
)


def brute_force_quickshift(lab, sigma, tau, color_ratio):
    """O(N^2) transcription of the definition: density, then links.

    Plain Python loops over every (pixel, candidate) pair inside the
    truncated window; candidates scanned in row-major order.
    """
    h, w = lab.shape[:2]
    radius = int(math.ceil(3.0 * sigma))
    f = np.empty((h, w, 5))
    f[..., :3] = lab * color_ratio
    f[..., 3] = np.arange(w)[None, :]
    f[..., 4] = np.arange(h)[:, None]

    density = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for ny in range(max(0, y - radius), min(h, y + radius + 1)):
                for nx in range(max(0, x - radius), min(w, x + radius + 1)):
                    d2 = float(((f[ny, nx] - f[y, x]) ** 2).sum())
                    acc += math.exp(-d2 / (2.0 * sigma * sigma))
            density[y, x] = acc

    parent = np.full((h, w), -1, dtype=np.int64)
    for y in range(h):
        for x in range(w):
            best_d2 = math.inf
            best = -1
            my_idx = y * w + x
            for ny in range(max(0, y - radius), min(h, y + radius + 1)):
                for nx in range(max(0, x - radius), min(w, x + radius + 1)):
                    cand_idx = ny * w + nx
                    if cand_idx == my_idx:
                        continue
                    higher = density[ny, nx] > density[y, x] or (
                        density[ny, nx] == density[y, x] and cand_idx < my_idx
                    )
                    if not higher:
                        continue
                    d2 = float(((f[ny, nx] - f[y, x]) ** 2).sum())
                    if d2 <= tau * tau and d2 < best_d2:
                        best_d2 = d2
                        best = cand_idx
            parent[y, x] = best
    return density, parent


def resolve_roots(parent):
    h, w = parent.shape
    flat = parent.ravel()
    roots = np.where(flat < 0, np.arange(h * w), flat)
    while True:
        nxt = roots[roots]
        if np.array_equal(nxt, roots):
            return roots
        roots = nxt


def random_lab(seed, h=16, w=16):
    rng = np.random.default_rng(seed)
    return srgb_to_lab(rng.integers(0, 256, (h, w, 3)).astype(np.uint8))


def test_tau_below_grid_spacing_gives_singletons():
    lab = random_lab(0, 8, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        part = quickshift_segment(lab, QuickShiftParams(sigma=5.0, tau=0.5))
    assert part.num_blocks == 64
    assert part.block_sizes.tolist() == [1] * 64


def test_uniform_image_matches_brute_force_exactly():
    lab = srgb_to_lab(np.full((8, 8, 3), 77, np.uint8))
    params = QuickShiftParams()
    part = quickshift_segment(lab, params)
    density, parent = brute_force_quickshift(
        lab, params.sigma, params.tau, params.color_ratio
    )
    roots = resolve_roots(parent)
    # identical tree structure implies identical segmentation
    from spxkit import relabel_contiguous

    oracle = relabel_contiguous(roots.reshape(8, 8))
    assert np.array_equal(part.labels, oracle.labels)
    assert part.num_blocks == oracle.num_blocks
    assert part.num_blocks <= 8  # a few large blocks, not singletons
    assert validate_partition(part).ok


def test_random_image_matches_brute_force_exactly():
    lab = random_lab(5, 8, 8)
    params = QuickShiftParams(sigma=2.0, tau=6.0)
    part = quickshift_segment(lab, params)
    density, parent = brute_force_quickshift(
        lab, params.sigma, params.tau, params.color_ratio
    )
    from spxkit import relabel_contiguous

    oracle = relabel_contiguous(resolve_roots(parent).reshape(8, 8))
    assert np.array_equal(part.labels, oracle.labels)


def test_tau_whose_square_overflows_links_like_inf():
    # 1e300**2 overflows a float, so tau^2 is taken as +inf: no link is
    # too long, as with tau = inf.
    lab = random_lab(6, 8, 8)
    want = quickshift_segment(lab, QuickShiftParams(sigma=2.0, tau=math.inf))
    got = quickshift_segment(lab, QuickShiftParams(sigma=2.0, tau=1e300))
    assert np.array_equal(got.labels, want.labels)


def test_two_color_trees_never_cross_the_boundary():
    img = np.zeros((16, 16, 3), np.uint8)
    img[:, :8] = (255, 0, 0)
    img[:, 8:] = (0, 0, 255)
    lab = srgb_to_lab(img)
    params = QuickShiftParams(sigma=3.0, tau=8.0, color_ratio=1.0)
    part = quickshift_segment(lab, params)
    # exhaustive link inspection via the oracle
    _, parent = brute_force_quickshift(lab, 3.0, 8.0, 1.0)
    for y in range(16):
        for x in range(16):
            p = parent[y, x]
            if p >= 0:
                px = p % 16
                assert (x < 8) == (px < 8), "link crosses the color boundary"
    left = set(np.unique(part.labels[:, :8]))
    right = set(np.unique(part.labels[:, 8:]))
    assert not (left & right)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_forest_property_no_cycles(seed):
    rng = np.random.default_rng(seed)
    h, w = (int(v) for v in rng.integers(4, 10, 2))
    lab = srgb_to_lab(rng.integers(0, 256, (h, w, 3)).astype(np.uint8))
    sigma = float(rng.uniform(0.5, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = QuickShiftParams(sigma=sigma, tau=float(rng.uniform(1.0, 8.0)))
        density, parent = brute_force_quickshift(
            lab, params.sigma, params.tau, params.color_ratio
        )
    flat = parent.ravel()
    for start in range(flat.size):
        seen = set()
        node = start
        while flat[node] >= 0:
            assert node not in seen, "cycle in link graph"
            seen.add(node)
            node = int(flat[node])
    part = quickshift_segment(lab, params)
    assert validate_partition(part).ok


def test_deterministic():
    lab = random_lab(9)
    a = quickshift_segment(lab, QuickShiftParams(sigma=2.0))
    b = quickshift_segment(lab, QuickShiftParams(sigma=2.0))
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_lab_rejected(bad):
    lab = random_lab(3, 8, 8)
    lab[4, 5, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        quickshift_segment(lab, QuickShiftParams(sigma=1.0))


def test_param_validation_and_warning():
    with pytest.raises(ValueError):
        QuickShiftParams(sigma=0.0)
    with pytest.raises(ValueError):
        QuickShiftParams(color_ratio=1.5)
    with pytest.warns(UserWarning, match="tau") as record:
        QuickShiftParams(sigma=5.0, tau=4.0)
    # Reported at the line above, not inside the generated __init__.
    assert record[0].filename == __file__


@pytest.mark.parametrize(
    "knobs, name",
    [
        ({"sigma": math.nan}, "sigma"),
        ({"sigma": math.inf}, "sigma"),
        ({"tau": -10.0}, "tau"),
        ({"tau": math.nan}, "tau"),
        # 2 sigma^2 overflows at 1e200 and underflows to 0 at 1e-200; at
        # 1e-160 it is subnormal and its reciprocal overflows to inf.
        ({"sigma": 1e200}, "sigma"),
        ({"sigma": 1e-200}, "sigma"),
        ({"sigma": 1e-160}, "sigma"),
    ],
)
def test_non_finite_or_negative_knobs_rejected(knobs, name):
    with pytest.raises(ValueError, match=name):
        QuickShiftParams(**knobs)


def test_match_scale_sweeps_sigma_down():
    lab = random_lab(21, 24, 24)
    part = quickshift_match_scale(lab, QuickShiftParams(sigma=8.0), 32)
    assert validate_partition(part).ok
    assert part.num_blocks >= 16  # reached half the target


@pytest.mark.parametrize("target", [math.nan, 2.5, 16.0, 0, -3, "16"])
def test_match_scale_target_must_be_an_integer_of_at_least_one(target):
    lab = random_lab(21, 12, 12)
    with pytest.raises(ValueError, match="target_blocks"):
        quickshift_match_scale(lab, QuickShiftParams(sigma=8.0), target)


def test_match_scale_accepts_numpy_integers():
    lab = random_lab(21, 24, 24)
    params = QuickShiftParams(sigma=8.0)
    got = quickshift_match_scale(lab, params, np.int64(32))
    assert np.array_equal(got.labels, quickshift_match_scale(lab, params, 32).labels)


def test_match_scale_refuses_a_ladder_sigma_only_when_it_reaches_it():
    lab = srgb_to_lab(np.full((8, 8, 3), 90, np.uint8))  # 1 block at any sigma
    params = QuickShiftParams(sigma=1e-154, tau=3.0)
    memo = {}
    # 1 / (2 sigma^2) overflows from sigma = 1e-154 * 0.8^3 on; the
    # overflow of d2 / (2 sigma^2) to -inf before it is harmless and
    # raises no RuntimeWarning.
    with pytest.raises(ValueError, match="5.1200000000000005e-155"):
        quickshift_match_scale(lab, params, 400, memo=memo)
    assert list(memo) == [1e-154, 1e-154 * 0.8, 1e-154 * 0.8 * 0.8]
    assert quickshift_match_scale(lab, params, 2).num_blocks == 1  # met at once
