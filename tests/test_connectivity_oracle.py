"""enforce_connectivity against the earlier rescanning implementation.

The oracle below is the original per-label ``ndi.label`` component pass
and the merge loop that rescans every component after each merge. It is
quadratic in fragment count but simple; the library version must return
the same labels and block sizes, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage as ndi

from spxkit import SlicParams, enforce_connectivity, slic_segment, srgb_to_lab
from spxkit import slic as slic_module
from spxkit.core import SuperpixelPartition, relabel_contiguous

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _components_first_appearance(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of equal-label regions.

    Component ids are assigned in row-major first-appearance order.
    """
    comp = np.full(labels.shape, -1, dtype=np.int64)
    offset = 0
    for v in np.unique(labels):
        mask = labels == v
        lbl, n = ndi.label(mask, structure=_FOUR_CONN)
        comp[mask] = lbl[mask] + (offset - 1)
        offset += n
    flat = comp.ravel()
    uniq, first = np.unique(flat, return_index=True)
    order = np.argsort(first)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[order] = np.arange(uniq.size)
    return rank[flat].reshape(labels.shape), int(uniq.size)


def _border_neighbors(comp: np.ndarray, ncomp: int) -> list[dict[int, int]]:
    """Per-component map of adjacent component -> shared border length.

    Border length counts 4-adjacent pixel pairs with different
    component ids (each pair once).
    """
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


def oracle_enforce_connectivity(
    raw_labels: np.ndarray, min_size: int
) -> SuperpixelPartition:
    """Split disconnected label regions and absorb undersized fragments.

    Every connected component becomes its own block; components smaller
    than ``min_size`` are merged into the adjacent region sharing the
    longest border (ties: smallest component id in row-major
    first-appearance order). Small components are processed in ascending
    id order, and merges accumulate, so a fragment absorbed early still
    follows its host through later merges.
    """
    arr = np.asarray(raw_labels)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("raw_labels must be a nonempty 2-D array")
    comp, ncomp = _components_first_appearance(arr)
    sizes = np.bincount(comp.ravel(), minlength=ncomp).astype(np.int64)
    neighbors = _border_neighbors(comp, ncomp)

    parent = np.arange(ncomp)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return int(i)

    while True:
        small = [
            r
            for r in range(ncomp)
            if find(r) == r and sizes[r] < min_size and neighbors[r]
        ]
        if not small:
            break
        r = small[0]
        target = max(neighbors[r].items(), key=lambda kv: (kv[1], -kv[0]))[0]
        parent[r] = target
        sizes[target] += sizes[r]
        for nbr, cnt in neighbors[r].items():
            if nbr == target:
                continue
            neighbors[target][nbr] = neighbors[target].get(nbr, 0) + cnt
            moved = neighbors[nbr].pop(r, 0)
            if moved:
                neighbors[nbr][target] = neighbors[nbr].get(target, 0) + moved
        neighbors[target].pop(r, None)
        neighbors[r] = {}

    roots = np.array([find(i) for i in range(ncomp)])
    return relabel_contiguous(roots[comp])


def assert_matches_oracle(raw: np.ndarray, min_size: int) -> None:
    got = enforce_connectivity(raw, min_size)
    want = oracle_enforce_connectivity(raw, min_size)
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.block_sizes, want.block_sizes)
    assert got.num_blocks == want.num_blocks


@st.composite
def label_maps(draw):
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint32]))
    h, w = draw(st.integers(1, 32)), draw(st.integers(1, 32))
    values = draw(
        st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=8, unique=True)
    )
    # Blocky maps (cell > 1) give larger regions next to small fragments.
    cell = draw(st.integers(1, 4))
    coarse = (-(-h // cell), -(-w // cell))
    idx = draw(
        hnp.arrays(np.int64, coarse, elements=st.integers(0, len(values) - 1))
    )
    idx = np.repeat(np.repeat(idx, cell, axis=0), cell, axis=1)[:h, :w]
    return np.asarray(values, dtype=dtype)[idx]


@settings(max_examples=300, deadline=None)
@given(raw=label_maps(), min_size=st.integers(1, 20))
def test_random_label_maps_match_oracle(raw, min_size):
    assert_matches_oracle(raw, min_size)


def oracle_adjacency(neighbors: list[dict[int, int]]) -> tuple[list, list, list]:
    """The oracle's neighbour maps as CSR (rows, cols, counts), by (row, column)."""
    entries = [(p, q, c) for p, d in enumerate(neighbors) for q, c in sorted(d.items())]
    return tuple(list(x) for x in zip(*entries)) if entries else ([], [], [])


def assert_adjacency_matches_oracle(raw: np.ndarray) -> None:
    comp, ncomp = slic_module._components_first_appearance(raw)
    got = slic_module._border_adjacency(comp, ncomp)
    assert all(a.dtype == np.min_scalar_type(ncomp * ncomp - 1) for a in got[:2])
    want = oracle_adjacency(_border_neighbors(*_components_first_appearance(raw)))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_checkerboard_with_border_keys_past_int32_matches_oracle():
    # 220^2 singleton components: ncomp > 46340, so the border keys
    # a * ncomp + b pass 2**31 and need unsigned 32-bit keys.
    raw = np.indices((220, 220)).sum(axis=0) % 2
    comp, ncomp = _components_first_appearance(raw)
    assert ncomp == 220 * 220 and (ncomp - 1) * ncomp > 2**31
    assert_adjacency_matches_oracle(raw)
    # The oracle's merge loop takes about half an hour here, so its result
    # is written out: each singleton in turn shares a border of 1 with the
    # block of component 1 and with each other neighbour, and the tie goes
    # to the smallest id, so everything ends in one block.
    part = enforce_connectivity(raw, 2)
    assert part.num_blocks == 1
    assert np.array_equal(part.labels, np.zeros((220, 220)))
    assert np.array_equal(part.block_sizes, [220 * 220])


def test_adjacency_keys_past_uint32_match_oracle():
    # 257^2 > 65536 singleton components: the keys need 64 bits.
    raw = np.indices((257, 257)).sum(axis=0) % 2
    assert_adjacency_matches_oracle(raw)
    assert enforce_connectivity(raw, 2).num_blocks == 1


def walked_and_settled(raw: np.ndarray, min_size: int) -> tuple[int, int]:
    """Small components with and without a lower-id small neighbour."""
    comp, ncomp = _components_first_appearance(raw)
    small = np.bincount(comp.ravel(), minlength=ncomp) < min_size
    walked = np.zeros(ncomp, dtype=bool)
    for p, nbrs in enumerate(_border_neighbors(comp, ncomp)):
        walked[p] = small[p] and any(q < p and small[q] for q in nbrs)
    return int(walked.sum()), int((small & ~walked).sum())


@pytest.mark.parametrize("min_size", range(2, 21))
@pytest.mark.parametrize("levels", [4, 16])
def test_uniform_noise_label_maps_match_oracle(levels, min_size):
    raw = np.random.default_rng([levels, min_size]).integers(0, levels, (24, 24))
    walked, settled = walked_and_settled(raw, min_size)
    assert walked > settled
    assert_matches_oracle(raw, min_size)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2), (8, 8), (9, 13), (16, 16)])
@pytest.mark.parametrize("min_size", [2, 3, 5])
def test_pixel_checkerboards_match_oracle(shape, min_size):
    raw = np.indices(shape).sum(axis=0) % 2
    assert_matches_oracle(raw, min_size)


def test_lower_neighbour_merged_into_a_fragment_before_its_turn():
    # X (id 0) joins R (id 1), border 2 against 1 with T. R + X then
    # borders T 3 times and Y twice, so R joins T, where R alone would
    # tie T and Y and join Y, the smaller id.
    raw = np.array([
        [0, 1, 1, 2, 2, 2],
        [0, 1, 1, 2, 2, 2],
        [3, 3, 3, 2, 2, 2],
        [3, 3, 3, 3, 3, 3],
    ])
    assert walked_and_settled(raw, 7) == (1, 1)
    assert_matches_oracle(raw, 7)
    assert enforce_connectivity(raw, 7).labels.tolist() == [
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 0, 0],
    ]


def test_lower_neighbour_merged_away_before_its_turn():
    # X (id 1) joins T (id 0), border 3 against 1 with R. R (id 2) then
    # borders T twice (its own edge and X's) and Y twice, and the tie goes
    # to T, where R alone would join Y.
    raw = np.array([
        [0, 0, 0, 0, 0],
        [0, 1, 2, 3, 3],
        [0, 0, 3, 3, 3],
    ])
    assert walked_and_settled(raw, 2) == (1, 1)
    assert_matches_oracle(raw, 2)
    assert enforce_connectivity(raw, 2).labels.tolist() == [
        [0, 0, 0, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 0, 1, 1, 1],
    ]


@pytest.mark.parametrize("length", [2, 5, 12])
def test_staircase_of_fragments_each_merging_into_the_next_matches_oracle(length):
    # A diagonal run of 1-pixel fragments over a large background: each
    # touches the next one's block, so the walk carries every earlier
    # merge along.
    raw = np.zeros((length + 2, length + 2), dtype=np.int64)
    for i in range(length):
        raw[i + 1, i + 1] = raw[i + 1, i + 2] = i + 1
    assert_matches_oracle(raw, 5)
    assert_matches_oracle(raw, 3 * length)


def test_memory_on_uniform_noise_slic_labels_is_bounded(monkeypatch):
    # 256^2 uniform noise at K = 400 leaves ~34,000 raw components, nearly
    # all below the size floor. A Python dict per component peaked near
    # 20 MiB here; the CSR adjacency keeps a few arrays over border pairs.
    img = np.random.default_rng(0).integers(0, 256, (256, 256, 3), dtype=np.uint8)
    captured = []

    def capture(raw_labels, min_size):
        captured.append((raw_labels, min_size))
        return SuperpixelPartition(np.zeros(raw_labels.shape, dtype=np.int32))

    monkeypatch.setattr(slic_module, "enforce_connectivity", capture)
    slic_segment(srgb_to_lab(img), SlicParams(num_superpixels=400))
    monkeypatch.undo()
    ((raw, min_size),) = captured
    assert slic_module._components_first_appearance(raw)[1] > 30_000
    tracemalloc.start()
    try:
        enforce_connectivity(raw, min_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_raw_slic_labels_of_noisy_image_match_oracle(monkeypatch):
    # A smooth colour ramp plus sigma=4 noise: k-means on near-flat colour
    # leaves several fragments per cluster for the merge loop to absorb.
    rng = np.random.default_rng(4)
    yy, xx = np.mgrid[:96, :96].astype(np.float64)
    base = np.stack([2.0 * yy, 2.0 * xx, np.full_like(yy, 100.0)], axis=-1)
    img = np.clip(base + rng.normal(0.0, 4.0, base.shape), 0, 255).astype(np.uint8)

    captured = []

    def capture(raw_labels, min_size):
        captured.append((raw_labels.copy(), min_size))
        return enforce_connectivity(raw_labels, min_size)

    monkeypatch.setattr(slic_module, "enforce_connectivity", capture)
    part = slic_segment(srgb_to_lab(img), SlicParams(num_superpixels=144))
    ((raw, min_size),) = captured
    want = oracle_enforce_connectivity(raw, min_size)
    assert oracle_enforce_connectivity(raw, 1).num_blocks > 3 * np.unique(raw).size
    assert want.num_blocks <= np.unique(raw).size
    assert_matches_oracle(raw, min_size)
    assert np.array_equal(part.labels, want.labels)


def test_raw_slic_labels_of_a_benchmark_size_scene_match_oracle(monkeypatch):
    # 256^2 Voronoi regions with gentle colour ramps plus sigma=4 noise at
    # K = 400: over a thousand raw components, most below the size floor,
    # and many small ones border a lower-id small one, so merges chain.
    rng = np.random.default_rng(7)
    sites = rng.uniform(0, 256, (24, 2))
    base = rng.uniform(40.0, 215.0, (24, 3))
    slope = rng.uniform(-0.25, 0.25, (24, 3, 2))
    yy, xx = np.mgrid[:256, :256].astype(np.float64)
    region = np.argmin((yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2,
                       axis=2)
    img = (base[region] + slope[region, :, 0] * (yy - sites[region, 0])[..., None]
           + slope[region, :, 1] * (xx - sites[region, 1])[..., None])
    img += rng.normal(0.0, 4.0, img.shape)
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)

    captured = []

    def capture(raw_labels, min_size):
        captured.append((raw_labels.copy(), min_size))
        return enforce_connectivity(raw_labels, min_size)

    monkeypatch.setattr(slic_module, "enforce_connectivity", capture)
    part = slic_segment(srgb_to_lab(img), SlicParams(num_superpixels=400))
    ((raw, min_size),) = captured
    assert _components_first_appearance(raw)[1] > 1000
    walked, _ = walked_and_settled(raw, min_size)
    assert walked > 100
    want = oracle_enforce_connectivity(raw, min_size)
    assert np.array_equal(part.labels, want.labels)
    assert np.array_equal(part.block_sizes, want.block_sizes)


def assert_components_match_oracle(raw: np.ndarray) -> None:
    got, ncomp = slic_module._components_first_appearance(raw)
    want, want_n = _components_first_appearance(raw)
    assert got.dtype == np.int64
    assert ncomp == want_n
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(raw=label_maps())
def test_components_of_random_maps_match_oracle(raw):
    assert_components_match_oracle(raw)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 64),
    labels=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    column=st.booleans(),
)
def test_components_of_single_row_or_column_match_oracle(n, labels, seed, column):
    raw = np.random.default_rng(seed).integers(0, labels, (n, 1) if column else (1, n))
    assert_components_match_oracle(raw)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 5), (16, 16)])
@pytest.mark.parametrize("cell", [1, 2])
def test_components_of_checkerboards_match_oracle(shape, cell):
    yy, xx = np.indices(shape)
    raw = (yy // cell + xx // cell) % 2
    assert_components_match_oracle(raw)


@pytest.mark.parametrize("levels", [1, 4])
def test_components_scratch_memory_is_linear(levels):
    # 256^2: the bool grid is ~4 B/pixel, its int32 node labels ~16 B/pixel
    # and the int64 component map 8 B/pixel, however many components.
    raw = np.random.default_rng(5).integers(0, levels, (256, 256))
    tracemalloc.start()
    try:
        slic_module._components_first_appearance(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * raw.size, f"{peak / raw.size:.1f} B/pixel"
