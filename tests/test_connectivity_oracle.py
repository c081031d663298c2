"""enforce_connectivity against the earlier rescanning implementation.

The oracle below is the original per-label ``ndi.label`` component pass
and the merge loop that rescans every component after each merge. It is
quadratic in fragment count but simple; the library version must return
the same labels and block sizes, bit for bit.
"""

import numpy as np
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


def test_checkerboard_with_border_keys_past_int32_matches_oracle():
    # 220^2 singleton components: ncomp > 46341, so the border keys
    # lo * ncomp + hi pass 2**31 and need int64 component labels.
    raw = np.indices((220, 220)).sum(axis=0) % 2
    comp, ncomp = _components_first_appearance(raw)
    assert ncomp == 220 * 220 and (ncomp - 2) * ncomp > 2**31
    got = slic_module._border_neighbors(
        *slic_module._components_first_appearance(raw)
    )
    want = _border_neighbors(comp, ncomp)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
    # The oracle's merge loop takes about half an hour here, so its result
    # is written out: each singleton in turn shares a border of 1 with the
    # block of component 1 and with each other neighbour, and the tie goes
    # to the smallest id, so everything ends in one block.
    part = enforce_connectivity(raw, 2)
    assert part.num_blocks == 1
    assert np.array_equal(part.labels, np.zeros((220, 220)))
    assert np.array_equal(part.block_sizes, [220 * 220])


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
