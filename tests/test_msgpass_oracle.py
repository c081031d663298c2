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
import pytest
import scipy.sparse as sp
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


def _oracle_cascade(x, parts, alpha):
    # Channels are independent, so the oracle runs on 8 at a time to keep
    # its (C, H, W) float64 temporaries small.
    out = np.empty_like(x)
    for c in range(0, x.shape[0], 8):
        y = x[c : c + 8]
        for part in parts:
            y = message_pass(y, part, alpha)
        out[c : c + 8] = y
    return out


def test_cascade_at_workload_scale_matches_oracle():
    # 64 float32 channels at 256x256 over hundreds of blocks: long CSR
    # rows and hundreds of them, which the small cases never reach.
    rng = np.random.default_rng(5)
    parts = [msgpass.random_partition(256, 256, k, rng) for k in (200, 300, 400)]
    x, g = rng.standard_normal((2, 64, 256, 256), dtype=np.float32)
    out = msgpass.cascade_apply(x, parts, 0.1)
    assert out.dtype == np.float32
    assert np.array_equal(out, _oracle_cascade(x, parts, 0.1))
    trace = msgpass.CascadeTrace(stages=tuple(zip((200, 300, 400), parts)))
    grad = msgpass.cascade_backward(g, trace, 0.1)
    assert np.array_equal(grad, _oracle_cascade(g, parts[::-1], 0.1))


@pytest.mark.parametrize("layout", ["transposed", "sliced"])
def test_cascade_on_a_strided_map_returns_c_order(layout):
    rng = np.random.default_rng(8)
    parts = [msgpass.random_partition(20, 13, k, rng) for k in (3, 7, 19)]
    if layout == "transposed":
        x = rng.standard_normal((4, 13, 20), dtype=np.float32).transpose(0, 2, 1)
    else:
        x = rng.standard_normal((5, 40, 27), dtype=np.float32)[1:, ::2, 1::2]
    assert x.shape == (4, 20, 13) and not x.flags.c_contiguous
    out = msgpass.cascade_apply(x, parts, 0.3)
    assert out.dtype == np.float32 and out.flags.c_contiguous
    assert np.array_equal(out, _oracle_cascade(x, parts, 0.3))


def test_hand_built_label_layouts_match_oracle():
    # A transposed int64 view and a uint32 copy of the same labels.
    rng = np.random.default_rng(6)
    base = msgpass.random_partition(21, 17, 30, rng).labels
    x = rng.standard_normal((3, 17, 21))
    for labels in (base.astype(np.int64).T, base.T.astype(np.uint32)):
        part = SuperpixelPartition(labels)
        assert np.array_equal(msgpass.message_pass(x, part, 0.7), message_pass(x, part, 0.7))
        assert np.array_equal(msgpass.block_means(x, part), block_means(x, part))
        assert np.array_equal(msgpass.mean_map(x, part), mean_map(x, part))


def test_message_pass_memory_is_linear_in_pixels():
    # One pass on a (64, 256, 256) float32 map may add O(H*W) beside its
    # output: the partition's plan (~20 B/pixel), a float64 row and its
    # gathered message. The oracle's (C, H, W) float64 temporaries would
    # add at least 16 B per element, 64 MiB here.
    rng = np.random.default_rng(7)
    part = msgpass.random_partition(256, 256, 300, rng)
    x = rng.standard_normal((64, 256, 256), dtype=np.float32)
    tracemalloc.start()
    try:
        out = msgpass.message_pass(x, part, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    extra = peak - out.nbytes
    assert extra < 64 * 256 * 256, f"{extra / 2**20:.1f} MiB beside the output"


# ---------------------------------------------------------------------------
# Finiteness read from the block sums, and votes on keys past 32 bits


@st.composite
def non_finite_cases(draw):
    """(features, partition) with NaN, +inf or -inf anywhere, or nowhere."""
    h, w, c = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.standard_normal((c, h, w)) * 100).astype(dtype)
    for _ in range(draw(st.integers(0, 3))):
        at = (draw(st.integers(0, c - 1)), draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)))
        x[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if draw(st.booleans()):
        part = relabel_contiguous(np.arange(h * w).reshape(h, w))  # one-pixel blocks
    else:
        part = draw(partitions(h, w))
    return x, part


@settings(max_examples=300, deadline=None)
@given(case=non_finite_cases())
def test_non_finite_verdict_matches_full_scan(case):
    x, part = case
    finite = bool(np.isfinite(x).all())
    for op in (
        lambda: msgpass.message_pass(x, part, 0.1),
        lambda: msgpass.block_means(x, part),
        lambda: msgpass.mean_map(x, part),
    ):
        if finite:
            op()
        else:
            with pytest.raises(ValueError, match="finite"):
                op()


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_opposite_infinities_in_one_block_rejected(dtype):
    # +inf + -inf is NaN, which the block sum still carries.
    x = np.zeros((2, 2, 2), dtype=dtype)
    x[1, 0, 0], x[1, 1, 1] = np.inf, -np.inf
    part = relabel_contiguous(np.zeros((2, 2), dtype=np.int64))
    for op in (msgpass.block_means, msgpass.mean_map):
        with pytest.raises(ValueError, match="finite"):
            op(x, part)
    with pytest.raises(ValueError, match="finite"):
        msgpass.message_pass(x, part, 0.1)


def test_float64_block_sum_overflow_rejected():
    # Every value is finite, but 1e308 + 1e308 is not.
    x = np.zeros((1, 2, 2))
    x[0, 0] = 1e308
    part = relabel_contiguous(np.array([[0, 0], [1, 1]]))
    for op in (msgpass.block_means, msgpass.mean_map):
        with pytest.raises(ValueError, match="block sum .* overflows float64"):
            op(x, part)
    with pytest.raises(ValueError, match="block sum .* overflows float64"):
        msgpass.message_pass(x, part, 0.1)


def test_one_pass_reads_values_without_a_map_sized_scan():
    # With the plan built, one pass on a (64, 256, 256) float32 map needs a
    # float64 row and its gathered message beside its output: about 1 MiB.
    # A finiteness scan of the whole map would hold a C*H*W bool array,
    # 4 MiB. message_pass allocates its output after any such scan, so
    # the scan shows in block_means, whose (C, K) output is small and
    # counts against the bound too.
    rng = np.random.default_rng(8)
    part = msgpass.random_partition(256, 256, 300, rng)
    part._plan  # built before tracing, as a cached partition would be
    x = rng.standard_normal((64, 256, 256), dtype=np.float32)

    def traced_peak(op):
        tracemalloc.start()
        try:
            out = op()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    _, peak = traced_peak(lambda: msgpass.block_means(x, part))
    assert peak < x.size, f"block_means peaks at {peak / 2**20:.2f} MiB"
    out, peak = traced_peak(lambda: msgpass.message_pass(x, part, 0.1))
    extra = peak - out.nbytes
    assert extra < x.size, f"message_pass: {extra / 2**20:.2f} MiB beside the output"


def _sparse_vote(partition, target_height, target_width):
    """The oracle's vote with its (cells x blocks) count table held sparse.

    A CSR row lists its labels in ascending order, so the first entry
    holding the row maximum is what ``np.argmax`` picks from the dense
    row (a zero never wins: every cell covers a pixel).
    """
    h_src, w_src = partition.labels.shape
    ty = ((np.arange(h_src, dtype=np.int64) + 1) * target_height - 1) // h_src
    tx = ((np.arange(w_src, dtype=np.int64) + 1) * target_width - 1) // w_src
    cell = (ty[:, None] * target_width + tx[None, :]).ravel()
    cells, k = target_height * target_width, partition.num_blocks
    counts = sp.csr_matrix(
        (np.ones(cell.size, dtype=np.int64), (cell, partition.labels.ravel())),
        shape=(cells, k),
    )
    counts.sum_duplicates()
    top = np.maximum.reduceat(counts.data, counts.indptr[:-1])
    row = np.repeat(np.arange(cells), np.diff(counts.indptr))
    hit = np.flatnonzero(counts.data == top[row])
    first = hit[np.unique(row[hit], return_index=True)[1]]
    majority = counts.indices[first].astype(np.int64)
    return relabel_contiguous(majority.reshape(target_height, target_width))


@settings(max_examples=150, deadline=None)
@given(case=downsample_cases())
def test_sparse_vote_matches_dense_oracle(case):
    part, th, tw = case
    assert _same_partition(_sparse_vote(part, th, tw), downsample_partition(part, th, tw))


@pytest.mark.parametrize("blocks", [65_536, 65_537])
def test_downsample_keys_across_the_32_bit_boundary(blocks):
    # 256 * 256 cells times 65,536 blocks is 2**32 keys, the most uint32
    # holds; one block more needs uint64. The dense table would hold
    # 2**32 counts, so the check uses its sparse form.
    rng = np.random.default_rng(blocks)
    raw = rng.integers(0, blocks, 512 * 256)
    raw[rng.permutation(raw.size)[:blocks]] = np.arange(blocks)
    part = relabel_contiguous(raw.reshape(512, 256))
    assert part.num_blocks == blocks
    got = msgpass.downsample_partition(part, 256, 256)
    assert _same_partition(got, _sparse_vote(part, 256, 256))
