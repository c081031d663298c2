"""Message passing and downsample_partition against the earlier implementations.

The oracle below is the original message_pass (validated three times
through mean_map and block_means, with (C, H, W) float64 temporaries)
the original downsample_partition (a dense (cells x blocks) vote
table reduced by argmax) and the original random_partition (an
(H, W, blocks) distance array reduced by argmin). The library versions
must return the same arrays, bit for bit, and the vote and the Voronoi
labels must use memory at most linear in the pixels.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spxkit import msgpass
from spxkit.core import SuperpixelPartition, check_feature_map, relabel_contiguous


def _check_pair(features: np.ndarray, partition: SuperpixelPartition) -> np.ndarray:
    x = check_feature_map(features)
    if partition.labels.shape != x.shape[1:]:
        raise ValueError(
            f"partition is {partition.labels.shape}, feature map is "
            f"{x.shape[1:]} (expects matching H, W)"
        )
    return x


def block_means(
    features: np.ndarray, partition: SuperpixelPartition
) -> np.ndarray:
    """Per-block channel means, shape (C, num_blocks), float64.

    Sums run over pixels in row-major order via np.bincount, one
    accumulator per (channel, block) slot.
    """
    x = _check_pair(features, partition)
    flat = partition.labels.ravel()
    k = partition.num_blocks
    sums = np.empty((x.shape[0], k))
    for c in range(x.shape[0]):
        sums[c] = np.bincount(
            flat, weights=x[c].ravel().astype(np.float64), minlength=k
        )
    return sums / partition.block_sizes.astype(np.float64)


def mean_map(features: np.ndarray, partition: SuperpixelPartition) -> np.ndarray:
    """Blockwise-mean map: every pixel replaced by its block's channel mean.

    This is the projector P applied to the features; applying it twice
    reproduces the same map (up to roundoff).
    """
    x = _check_pair(features, partition)
    means = block_means(x, partition)
    return means[:, partition.labels.ravel()].reshape(x.shape)


def message_pass(
    features: np.ndarray, partition: SuperpixelPartition, alpha: float
) -> np.ndarray:
    """Single-scale pass: features + alpha * blockwise mean.

    Output dtype matches the input's floating dtype; internals are
    float64.
    """
    x = _check_pair(features, partition)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    out = x.astype(np.float64, copy=True)
    out += alpha * mean_map(x, partition)
    return out.astype(x.dtype, copy=False)


def downsample_partition(
    partition: SuperpixelPartition, target_height: int, target_width: int
) -> SuperpixelPartition:
    """Reduce a partition to a coarser grid by per-cell majority vote.

    Target cell (i, j) covers source rows floor(i*H/h)..floor((i+1)*H/h)-1
    and the analogous columns; the cell takes the most frequent source
    label (ties: smallest label). Blocks that vanish are dropped by a
    contiguous relabel.
    """
    h_src, w_src = partition.labels.shape
    if not (1 <= target_height <= h_src and 1 <= target_width <= w_src):
        raise ValueError(
            f"target dims ({target_height}, {target_width}) must be in "
            f"[1, source dims ({h_src}, {w_src})]"
        )
    if (target_height, target_width) == (h_src, w_src):
        return relabel_contiguous(partition.labels)

    # Inverse of the cell->rows box mapping: row y lands in cell
    # floor(((y + 1) * h - 1) / H).
    ty = ((np.arange(h_src, dtype=np.int64) + 1) * target_height - 1) // h_src
    tx = ((np.arange(w_src, dtype=np.int64) + 1) * target_width - 1) // w_src
    cell = ty[:, None] * target_width + tx[None, :]

    k = partition.num_blocks
    joint = cell.ravel() * k + partition.labels.ravel()
    counts = np.bincount(joint, minlength=target_height * target_width * k)
    counts = counts.reshape(target_height * target_width, k)
    majority = np.argmax(counts, axis=1).astype(np.int64)
    return relabel_contiguous(
        majority.reshape(target_height, target_width)
    )


def random_partition(
    height: int, width: int, blocks: int, rng: np.random.Generator
) -> SuperpixelPartition:
    """Seeded Voronoi partition: ``blocks`` distinct seed pixels, each
    pixel labeled by its nearest seed (ties: lowest seed index)."""
    n = height * width
    if not 1 <= blocks <= n:
        raise ValueError(f"blocks must be in [1, {n}], got {blocks}")
    seeds = rng.choice(n, size=blocks, replace=False)
    sy, sx = divmod(seeds, width)
    yy, xx = np.mgrid[0:height, 0:width]
    d2 = (yy[..., None] - sy) ** 2 + (xx[..., None] - sx) ** 2
    return relabel_contiguous(np.argmin(d2, axis=2))


# ---------------------------------------------------------------------------


def _same_partition(a: SuperpixelPartition, b: SuperpixelPartition) -> bool:
    return (
        a.num_blocks == b.num_blocks
        and a.labels.dtype == b.labels.dtype
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.block_sizes, b.block_sizes)
    )


@st.composite
def partitions(draw, h, w):
    """Per-pixel or blocky label maps with few labels, so votes often tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    cell = draw(st.integers(1, 4))
    coarse = rng.integers(0, k, (-(-h // cell), -(-w // cell)))
    raw = coarse.repeat(cell, axis=0).repeat(cell, axis=1)[:h, :w]
    return relabel_contiguous(raw)


@st.composite
def feature_cases(draw):
    """(features, partition) with any float dtype and memory layout."""
    h, w, c = draw(st.integers(1, 24)), draw(st.integers(1, 24)), draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    layout = draw(st.sampled_from(["contiguous", "transposed", "sliced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 100.0]))
    if layout == "transposed":
        x = (rng.standard_normal((c, w, h)) * scale).astype(dtype).transpose(0, 2, 1)
    elif layout == "sliced":
        big = (rng.standard_normal((c + 1, 2 * h, 2 * w + 1)) * scale).astype(dtype)
        x = big[1:, ::2, 1::2]
    else:
        x = (rng.standard_normal((c, h, w)) * scale).astype(dtype)
    assert x.shape == (c, h, w)
    return x, draw(partitions(h, w))


@settings(max_examples=300, deadline=None)
@given(
    case=feature_cases(),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 4.0, allow_nan=False)),
)
def test_message_pass_matches_oracle(case, alpha):
    x, part = case
    got = msgpass.message_pass(x, part, alpha)
    want = message_pass(x, part, alpha)
    assert got.dtype == want.dtype == x.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    grad = msgpass.message_pass_grad(x, part, alpha)
    assert np.array_equal(grad, want)


@settings(max_examples=150, deadline=None)
@given(case=feature_cases())
def test_block_means_and_mean_map_match_oracle(case):
    x, part = case
    got = msgpass.block_means(x, part)
    assert got.dtype == np.float64
    assert np.array_equal(got, block_means(x, part))
    got = msgpass.mean_map(x, part)
    assert got.dtype == np.float64
    assert np.array_equal(got, mean_map(x, part))


@st.composite
def downsample_cases(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    part = draw(partitions(h, w))
    kind = draw(st.sampled_from(["one", "same", "any"]))
    if kind == "one":
        return part, 1, 1
    if kind == "same":
        return part, h, w
    return part, draw(st.integers(1, h)), draw(st.integers(1, w))


@settings(max_examples=400, deadline=None)
@given(case=downsample_cases())
def test_downsample_partition_matches_oracle(case):
    part, th, tw = case
    got = msgpass.downsample_partition(part, th, tw)
    assert _same_partition(got, downsample_partition(part, th, tw))


def test_downsample_tie_goes_to_smallest_label():
    # Both 2x2 cells hold a 2-vs-2 tie. In the right cell the larger
    # label 2 comes first in row-major order, yet label 1 wins.
    part = relabel_contiguous(np.array([[0, 1, 2, 1], [0, 1, 1, 2]]))
    got = msgpass.downsample_partition(part, 1, 2)
    assert got.labels.tolist() == [[0, 1]]
    assert _same_partition(got, downsample_partition(part, 1, 2))


def test_downsample_odd_ratio_large_partition_matches_oracle():
    rng = np.random.default_rng(4)
    raw = rng.integers(0, 40, (13, 11)).repeat(7, axis=0).repeat(9, axis=1)
    part = relabel_contiguous(raw + rng.integers(0, 2, raw.shape) * 40)
    for th, tw in [(1, 1), (90, 98), (91, 99), (31, 17), (7, 45)]:
        got = msgpass.downsample_partition(part, th, tw)
        assert _same_partition(got, downsample_partition(part, th, tw))


def test_downsample_memory_is_linear_in_pixels():
    # 512x512 source, 400 blocks, vote onto 256x256: the dense vote
    # table alone would be 256 * 256 * 400 * 8 bytes = 200 MiB.
    side, grid = 512, 20
    rng = np.random.default_rng(0)
    edges = np.sort(rng.choice(np.arange(1, side), grid - 1, replace=False))
    band = np.searchsorted(edges, np.arange(side), side="right")
    part = relabel_contiguous(band[:, None] * grid + band[None, ::-1])
    assert part.num_blocks == grid * grid
    tracemalloc.start()
    try:
        msgpass.downsample_partition(part, side // 2, side // 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_random_partition_matches_oracle(h, w, seed, data):
    # Many blocks on a small grid make equidistant seeds, so ties are common.
    blocks = data.draw(st.integers(1, h * w))
    got = msgpass.random_partition(h, w, blocks, np.random.default_rng(seed))
    want = random_partition(h, w, blocks, np.random.default_rng(seed))
    assert _same_partition(got, want)


def test_random_partition_memory_is_linear_in_pixels():
    # 128x128 with 400 blocks: the (H, W, blocks) int64 distance array
    # alone would be 128 * 128 * 400 * 8 bytes = 50 MiB.
    tracemalloc.start()
    try:
        part = msgpass.random_partition(128, 128, 400, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.num_blocks == 400
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
