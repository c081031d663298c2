import importlib

import numpy as np
import pytest

from spxkit import (
    SlicParams,
    enforce_connectivity,
    slic_segment,
    spx_boundary_recall,
    srgb_to_lab,
    validate_partition,
)

slic_module = importlib.import_module("spxkit.slic")


def flood_fill_components(labels):
    """Independent 4-connected component labeling by explicit BFS."""
    h, w = labels.shape
    comp = np.full((h, w), -1, dtype=np.int64)
    nid = 0
    for sy in range(h):
        for sx in range(w):
            if comp[sy, sx] >= 0:
                continue
            v = labels[sy, sx]
            stack = [(sy, sx)]
            comp[sy, sx] = nid
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w:
                        if comp[ny, nx] < 0 and labels[ny, nx] == v:
                            comp[ny, nx] = nid
                            stack.append((ny, nx))
            nid += 1
    return comp, nid


def smooth_random_image(seed, size=64):
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, 256, (size // 8, size // 8, 3)).astype(np.float64)
    img = np.kron(coarse, np.ones((8, 8, 1)))
    # light blur so gradients are gentle rather than blocky
    from scipy.ndimage import uniform_filter

    img = uniform_filter(img, size=(5, 5, 1))
    return np.clip(img, 0, 255).astype(np.uint8)


class TestSlicSegment:
    def test_uniform_image_gives_exact_grid(self):
        lab = srgb_to_lab(np.full((64, 64, 3), 90, np.uint8))
        part = slic_segment(lab, SlicParams(num_superpixels=16))
        assert part.num_blocks == 16
        assert part.block_sizes.tolist() == [256] * 16
        for i in range(4):
            for j in range(4):
                square = part.labels[16 * i : 16 * (i + 1), 16 * j : 16 * (j + 1)]
                assert np.unique(square).size == 1

    def test_single_cluster_covers_image(self):
        lab = srgb_to_lab(np.full((10, 14, 3), 30, np.uint8))
        part = slic_segment(lab, SlicParams(num_superpixels=1))
        assert part.num_blocks == 1
        assert part.block_sizes.tolist() == [140]

    def test_bicolor_blocks_respect_the_edge(self):
        img = np.zeros((128, 128, 3), np.uint8)
        img[:, :64] = (255, 0, 0)
        img[:, 64:] = (0, 0, 255)
        part = slic_segment(srgb_to_lab(img), SlicParams(num_superpixels=16))
        for k in range(part.num_blocks):
            xs = np.nonzero(part.labels == k)[1]
            assert xs.min() > 63 or xs.max() < 64, f"block {k} straddles the edge"
        gt = (np.arange(128)[None, :] >= 64) * np.ones((128, 1), dtype=np.int64)
        assert spx_boundary_recall(part, gt.astype(np.int64), 2) >= 0.95

    def test_lambda_above_pixel_count_rejected(self):
        lab = srgb_to_lab(np.full((4, 4, 3), 10, np.uint8))
        with pytest.raises(ValueError, match="exceeds"):
            slic_segment(lab, SlicParams(num_superpixels=17))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lab_rejected(self, bad):
        # One such pixel poisons every distance to its window, yet a
        # partition (8 blocks here) used to come back without complaint.
        lab = srgb_to_lab(smooth_random_image(2, size=24))
        lab[7, 11, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            slic_segment(lab, SlicParams(num_superpixels=9))

    def test_connectivity_gets_raw_kmeans_labels_once_per_call(self, monkeypatch):
        # The benchmark tracer wraps spxkit.slic.enforce_connectivity and
        # counts components of the labels it receives; slic_segment must
        # look it up there and hand it the unmerged k-means labels.
        rng = np.random.default_rng(4)
        img = np.clip(
            smooth_random_image(3).astype(np.float64) + rng.normal(0, 12, (64, 64, 3)),
            0,
            255,
        ).astype(np.uint8)
        lab = srgb_to_lab(img)
        calls = []

        def spy(raw_labels, min_size):
            part = enforce_connectivity(raw_labels, min_size)
            calls.append((raw_labels.copy(), min_size, part))
            return part

        monkeypatch.setattr(slic_module, "enforce_connectivity", spy)
        for n, lam in enumerate((16, 49), start=1):
            part = slic_segment(lab, SlicParams(num_superpixels=lam))
            assert len(calls) == n
            raw, min_size, merged = calls[-1]
            assert part is merged
            assert raw.shape == (64, 64) and raw.dtype == np.int32
            assert 0 <= raw.min() and raw.max() < len(slic_module._initial_centers(lab, lam))
            assert min_size == int(0.25 * 64 * 64 / lam)
            # Raw k-means labels still hold the fragments the merge removes.
            assert flood_fill_components(raw)[1] > part.num_blocks

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SlicParams(num_superpixels=0)
        with pytest.raises(ValueError):
            SlicParams(num_superpixels=5, compactness=0.0)

    def test_num_superpixels_must_be_an_integer(self):
        with pytest.raises(ValueError, match="integer"):
            SlicParams(num_superpixels=2.5)
        assert SlicParams(num_superpixels=np.int64(5)) == SlicParams(num_superpixels=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_compactness_rejected(self, bad):
        with pytest.raises(ValueError, match="compactness"):
            SlicParams(num_superpixels=5, compactness=bad)

    @pytest.mark.parametrize("bad", [1e160, 2e154, np.float64(1e155)])
    def test_compactness_with_overflowing_square_rejected(self, bad):
        with pytest.raises(ValueError, match="compactness"):
            SlicParams(num_superpixels=5, compactness=bad)

    @pytest.mark.parametrize("good", [1e154, 1e-170, np.float64(5e-324)])
    def test_compactness_with_finite_square_accepted(self, good):
        assert SlicParams(num_superpixels=5, compactness=good).compactness == good

    def test_deterministic(self):
        img = smooth_random_image(11)
        lab = srgb_to_lab(img)
        a = slic_segment(lab, SlicParams(num_superpixels=20))
        b = slic_segment(lab, SlicParams(num_superpixels=20))
        assert np.array_equal(a.labels, b.labels)

    def test_valid_on_random_inputs(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            h, w = (int(v) for v in rng.integers(8, 33, 2))
            lam = int(rng.integers(1, max(2, h * w // 16)))
            img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
            part = slic_segment(srgb_to_lab(img), SlicParams(num_superpixels=lam))
            assert validate_partition(part).ok, (seed, h, w, lam)

    def test_block_count_tolerance_on_smooth_images(self):
        for seed in range(5):
            img = smooth_random_image(seed)
            lam = 25  # <= (64*64)/64
            part = slic_segment(srgb_to_lab(img), SlicParams(num_superpixels=lam))
            assert abs(part.num_blocks - lam) <= 0.5 * lam

    def test_blocks_fit_4s_window_around_centroid(self):
        for seed in (0, 1):
            img = smooth_random_image(seed)
            lam = 25
            part = slic_segment(srgb_to_lab(img), SlicParams(num_superpixels=lam))
            s = np.sqrt(64 * 64 / lam)
            for k in range(part.num_blocks):
                ys, xs = np.nonzero(part.labels == k)
                assert np.abs(ys - ys.mean()).max() <= 2 * s
                assert np.abs(xs - xs.mean()).max() <= 2 * s


class TestEnforceConnectivity:
    def test_orphan_absorbed(self):
        labels = np.ones((3, 3), dtype=np.int64)
        labels[1, 1] = 0
        part = enforce_connectivity(labels, min_size=2)
        assert part.num_blocks == 1
        assert part.block_sizes.tolist() == [9]

    def test_noop_when_regions_large_enough(self):
        labels = np.array([[3, 3, 8, 8], [3, 3, 8, 8]])
        part = enforce_connectivity(labels, min_size=2)
        assert part.labels.tolist() == [[0, 0, 1, 1], [0, 0, 1, 1]]

    def test_disconnected_label_splits(self):
        # label 0 appears as two 4-px components separated by label 1
        labels = np.array(
            [
                [0, 0, 1, 0, 0],
                [0, 0, 1, 0, 0],
                [1, 1, 1, 1, 1],
            ]
        )
        part = enforce_connectivity(labels, min_size=2)
        comp, ncomp = flood_fill_components(labels)
        assert part.num_blocks == ncomp == 3
        # every output block is 4-connected per the oracle
        for k in range(part.num_blocks):
            mask_ids = np.unique(comp[part.labels == k])
            assert mask_ids.size == 1

    def test_merge_prefers_longest_border(self):
        # small center region (2 px) touches label 1 on 3 sides (border 6)
        # and label 2 along one side (border 2)
        labels = np.array(
            [
                [1, 1, 1, 1],
                [1, 0, 0, 2],
                [1, 1, 1, 2],
                [2, 2, 2, 2],
            ]
        )
        part = enforce_connectivity(labels, min_size=3)
        # the zeros must join label 1's region
        zero_label = part.labels[1, 1]
        one_label = part.labels[0, 0]
        assert zero_label == one_label

    def test_all_outputs_connected_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            h, w = (int(v) for v in rng.integers(4, 12, 2))
            labels = rng.integers(0, 4, (h, w))
            part = enforce_connectivity(labels, min_size=int(rng.integers(1, 5)))
            assert validate_partition(part).ok
            comp, _ = flood_fill_components(part.labels)
            for k in range(part.num_blocks):
                assert np.unique(comp[part.labels == k]).size == 1

    def test_single_component_returned_unchanged(self):
        labels = np.zeros((5, 7), dtype=np.int64)
        part = enforce_connectivity(labels, min_size=100)
        assert part.num_blocks == 1
        assert np.array_equal(part.labels, labels)
        assert part.block_sizes.tolist() == [35]

    def test_min_size_above_pixel_count_collapses_to_one_block(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 5, (6, 5))
        part = enforce_connectivity(labels, min_size=31)
        assert part.num_blocks == 1
        assert part.block_sizes.tolist() == [30]

    def test_chained_absorption_follows_host(self):
        # A (2 px) joins B (border 2 vs 1 with C); B+A (6 px) then joins
        # C, so A's pixels end in C while D stays on its own.
        labels = np.array(
            [
                [0, 1, 1, 2, 2, 3, 3, 3],
                [0, 1, 1, 2, 2, 3, 3, 3],
                [2, 2, 2, 2, 2, 3, 3, 3],
            ]
        )
        part = enforce_connectivity(labels, min_size=7)
        assert part.num_blocks == 2
        assert part.labels[0, 0] == part.labels[0, 1] == part.labels[2, 0]
        assert part.labels[0, 0] != part.labels[0, 7]
        assert part.block_sizes.tolist() == [15, 9]

    def test_strips_both_orientations(self):
        # the lone 1 ties (border 1 each side) and joins the left run
        row = np.array([[0, 0, 1, 2, 2, 2, 1, 1]])
        want = [[0, 0, 0, 1, 1, 1, 2, 2]]
        assert enforce_connectivity(row, min_size=2).labels.tolist() == want
        col = enforce_connectivity(row.T, min_size=2)
        assert col.labels.tolist() == np.array(want).T.tolist()
        assert col.block_sizes.tolist() == [3, 3, 2]

    def test_equal_borders_go_to_smallest_component_id(self):
        # (1,0) touches components 0, 2 and 3 once each and joins 0; the
        # centre then has border 2 with both 0 and 3 and also joins 0.
        labels = np.array([[1, 1, 1], [2, 0, 3], [3, 3, 3]])
        part = enforce_connectivity(labels, min_size=2)
        assert part.labels.tolist() == [[0, 0, 0], [0, 0, 1], [1, 1, 1]]

    def test_rejects_non_integer_labels(self):
        with pytest.raises(ValueError, match="integer"):
            enforce_connectivity(np.zeros((3, 3)), min_size=2)
