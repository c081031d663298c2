import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spxkit import (
    boundary_fscore,
    boundary_mask,
    confusion_matrix,
    evaluate_segmentation,
    miou,
    random_partition,
    relabel_contiguous,
    spx_boundary_recall,
    undersegmentation_error,
)

PRED_14 = np.array([[0, 0, 1, 1]])
GT_14 = np.array([[0, 1, 1, 1]])


class TestConfusionMatrix:
    def test_identical_maps_are_diagonal(self):
        m = np.array([[0, 1], [2, 1]])
        cm = confusion_matrix(m, m, 3)
        assert np.array_equal(cm, np.diag([1, 2, 1]))
        assert cm.trace() == m.size

    def test_all_ignored_gives_zero_matrix(self):
        gt = np.full((3, 3), 255)
        pred = np.zeros((3, 3), dtype=np.int64)
        cm = confusion_matrix(pred, gt, 2, ignore_label=255)
        assert cm.sum() == 0

    def test_hand_count(self):
        # rows index gt, columns pred: the one disagreeing pixel has
        # gt 1 and pred 0
        cm = confusion_matrix(PRED_14, GT_14, 2)
        assert cm.tolist() == [[1, 0], [1, 2]]

    def test_out_of_range_label_names_pixel(self):
        pred = np.array([[0, 7]])
        gt = np.array([[0, 1]])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            confusion_matrix(pred, gt, 2)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            confusion_matrix(np.zeros((2, 2), int), np.zeros((2, 3), int), 2)

    @pytest.mark.parametrize("n", [2.0, 2.5, "2", None])
    def test_non_integer_class_count_rejected(self, n):
        with pytest.raises(ValueError, match="num_classes"):
            confusion_matrix(PRED_14, GT_14, n)
        with pytest.raises(ValueError, match="num_classes"):
            evaluate_segmentation(PRED_14, GT_14, n)

    @pytest.mark.parametrize("n", [2**63, 10**19])
    def test_class_count_past_int64_rejected(self, n):
        with pytest.raises(ValueError, match="num_classes"):
            evaluate_segmentation(PRED_14, GT_14, n)

    def test_numpy_integer_class_count_accepted(self):
        cm = confusion_matrix(PRED_14, GT_14, np.int64(2))
        assert np.array_equal(cm, confusion_matrix(PRED_14, GT_14, 2))

    def test_unsigned_class_count_keeps_integer_arithmetic(self):
        # g * np.uint64(n) on int64 ids would promote to float64.
        cm = confusion_matrix(PRED_14, GT_14, np.uint64(2))
        assert np.array_equal(cm, confusion_matrix(PRED_14, GT_14, 2))
        assert evaluate_segmentation(PRED_14, GT_14, np.uint64(2)) == \
            evaluate_segmentation(PRED_14, GT_14, 2)

    @pytest.mark.parametrize(
        "score",
        [
            lambda a, b: confusion_matrix(a, b, 2),
            boundary_fscore,
            lambda a, b: undersegmentation_error(relabel_contiguous(a), b),
            lambda a, b: spx_boundary_recall(relabel_contiguous(a), b),
        ],
        ids=["confusion_matrix", "boundary_fscore", "undersegmentation_error",
             "spx_boundary_recall"],
    )
    def test_every_score_rejects_shape_mismatch(self, score):
        with pytest.raises(ValueError, match="shape"):
            score(np.zeros((2, 2), int), np.zeros((2, 3), int))


class TestMiou:
    def test_hand_computation(self):
        cm = confusion_matrix(PRED_14, GT_14, 2)
        mean, per_class = miou(cm)
        assert per_class[0] == pytest.approx(0.5, abs=1e-12)
        assert per_class[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert mean == pytest.approx(7.0 / 12.0, abs=1e-9)

    def test_identical_maps_score_one(self):
        m = np.array([[0, 1, 2], [2, 1, 0]])
        mean, _ = miou(confusion_matrix(m, m, 3))
        assert mean == 1.0

    def test_disjoint_single_class_maps_score_zero(self):
        pred = np.zeros((2, 2), dtype=np.int64)
        gt = np.ones((2, 2), dtype=np.int64)
        mean, per_class = miou(confusion_matrix(pred, gt, 2))
        assert mean == 0.0

    def test_absent_class_excluded_not_counted_as_one(self):
        m = np.zeros((2, 2), dtype=np.int64)
        mean, per_class = miou(confusion_matrix(m, m, 3))
        assert per_class[1] is None and per_class[2] is None
        assert mean == 1.0


class TestBoundaryMask:
    def test_constant_map_has_no_boundary(self):
        assert not boundary_mask(np.zeros((4, 5), dtype=np.int64)).any()

    def test_vertical_split_marks_both_columns(self):
        labels = (np.arange(6)[None, :] >= 3) * np.ones((4, 1), dtype=np.int64)
        mask = boundary_mask(labels.astype(np.int64))
        expected = np.zeros((4, 6), dtype=bool)
        expected[:, 2:4] = True
        assert np.array_equal(mask, expected)

    def test_single_differing_pixel(self):
        labels = np.zeros((5, 5), dtype=np.int64)
        labels[2, 2] = 1
        mask = boundary_mask(labels)
        # direct neighbor scan oracle
        expected = np.zeros((5, 5), dtype=bool)
        for y in range(5):
            for x in range(5):
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < 5 and 0 <= nx < 5 and labels[ny, nx] != labels[y, x]:
                        expected[y, x] = True
        assert np.array_equal(mask, expected)
        assert mask.sum() == 5  # the pixel plus its 4 neighbors


class TestBoundaryFscore:
    def test_identical_maps_are_perfect(self):
        labels = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)
        labels = labels.astype(np.int64)
        assert boundary_fscore(labels, labels, 2) == (1.0, 1.0, 1.0)

    def test_shifted_edge_tolerance_sweep(self):
        # edge shifted 2 columns: boundary masks {3,4} vs {5,6} sit 1 px
        # apart, so tolerance 0 misses entirely and tolerance 2 matches all
        base = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)
        shifted = (np.arange(8)[None, :] >= 6) * np.ones((8, 1), dtype=np.int64)
        p0, r0, f0 = boundary_fscore(shifted.astype(np.int64), base.astype(np.int64), 0)
        assert (p0, r0, f0) == (0.0, 0.0, 0.0)
        p2, r2, f2 = boundary_fscore(shifted.astype(np.int64), base.astype(np.int64), 2)
        assert (p2, r2, f2) == (1.0, 1.0, 1.0)

    def test_1x4_hand_fixture(self):
        p, r, f = boundary_fscore(PRED_14, GT_14, 0)
        assert (p, r, f) == (0.5, 0.5, 0.5)

    def test_matches_brute_force_distance_check(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 3, (9, 9))
        gt = rng.integers(0, 3, (9, 9))
        tol = 1
        pm = boundary_mask(pred)
        gm = boundary_mask(gt)

        def matched_fraction(src, dst):
            src_pts = np.argwhere(src)
            dst_pts = np.argwhere(dst)
            if len(src_pts) == 0:
                return 1.0
            hits = 0
            for y, x in src_pts:
                for dy, dx in dst_pts:
                    if max(abs(int(y) - int(dy)), abs(int(x) - int(dx))) <= tol:
                        hits += 1
                        break
            return hits / len(src_pts)

        p, r, f = boundary_fscore(pred, gt, tol)
        assert p == pytest.approx(matched_fraction(pm, gm), abs=1e-12)
        assert r == pytest.approx(matched_fraction(gm, pm), abs=1e-12)

    def test_ignore_label_excluded_from_both_masks(self):
        gt = np.array([[0, 0, 255, 1], [0, 0, 255, 1]])
        pred = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
        p, r, f = boundary_fscore(pred, gt, 0, ignore_label=255)
        # gt boundary pixels within the ignored strip are dropped
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0


class TestUndersegmentationError:
    def test_nested_partition_scores_zero(self):
        gt = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)
        labels = np.zeros((8, 8), dtype=np.int64)
        labels[:4, :4] = 0
        labels[:4, 4:] = 1
        labels[4:, :4] = 2
        labels[4:, 4:] = 3
        part = relabel_contiguous(labels)
        assert undersegmentation_error(part, gt.astype(np.int64)) == 0.0

    def test_full_straddle_scores_one(self):
        gt = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)
        part = relabel_contiguous(np.zeros((8, 8), dtype=np.int64))
        assert undersegmentation_error(part, gt.astype(np.int64)) == 1.0

    def test_singletons_score_zero(self):
        rng = np.random.default_rng(1)
        gt = rng.integers(0, 3, (4, 4))
        part = relabel_contiguous(np.arange(16).reshape(4, 4))
        assert undersegmentation_error(part, gt) == 0.0

    def test_zero_iff_no_block_straddles(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h, w = (int(v) for v in rng.integers(3, 8, 2))
            part = random_partition(h, w, int(rng.integers(1, 6)), rng)
            gt = rng.integers(0, 3, (h, w))
            ue = undersegmentation_error(part, gt)
            straddles = any(
                np.unique(gt[part.labels == k]).size > 1
                for k in range(part.num_blocks)
            )
            assert ue >= 0.0
            assert (ue == 0.0) == (not straddles)


class TestSpxBoundaryRecall:
    def test_exact_boundary_scores_one(self):
        gt = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)
        part = relabel_contiguous(gt.astype(np.int64))
        assert spx_boundary_recall(part, gt.astype(np.int64), 0) == 1.0

    def test_single_block_scores_zero(self):
        gt = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)
        part = relabel_contiguous(np.zeros((8, 8), dtype=np.int64))
        assert spx_boundary_recall(part, gt.astype(np.int64), 2) == 0.0

    def test_grid_vs_diagonal_matches_brute_force(self):
        gt = (np.add.outer(np.arange(8), np.arange(8)) >= 8).astype(np.int64)
        labels = (np.arange(8)[None, :] // 4 + 2 * (np.arange(8)[:, None] // 4))
        part = relabel_contiguous(labels)
        tol = 2
        gm = boundary_mask(gt)
        sm = boundary_mask(part.labels)
        g_pts = np.argwhere(gm)
        s_pts = np.argwhere(sm)
        hits = sum(
            1
            for y, x in g_pts
            if any(max(abs(y - sy), abs(x - sx)) <= tol for sy, sx in s_pts)
        )
        expected = hits / len(g_pts)
        assert spx_boundary_recall(part, gt, tol) == pytest.approx(expected, abs=1e-12)

    def test_negative_tolerance_rejected(self):
        gt = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)
        part = relabel_contiguous(gt)
        with pytest.raises(ValueError, match="tolerance_px"):
            spx_boundary_recall(part, gt, -1)


class TestEvaluateSegmentation:
    def test_report_fields_and_label_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.integers(0, 3, (10, 10))
        gt = rng.integers(0, 3, (10, 10))
        report = evaluate_segmentation(pred, gt, 3)
        d = report.to_dict()
        for key in (
            "miou",
            "per_class_iou",
            "pixel_accuracy",
            "boundary_precision",
            "boundary_recall",
            "boundary_fscore",
        ):
            assert key in d
        # consistent relabeling of both maps leaves every score unchanged
        perm = np.array([2, 0, 1])
        permuted = evaluate_segmentation(perm[pred], perm[gt], 3)
        assert permuted.miou == pytest.approx(report.miou, abs=1e-12)
        assert permuted.pixel_accuracy == pytest.approx(report.pixel_accuracy, abs=1e-12)
        assert permuted.boundary_fscore == pytest.approx(report.boundary_fscore, abs=1e-12)

    def test_self_evaluation_is_perfect(self):
        m = np.array([[0, 1], [1, 0]])
        report = evaluate_segmentation(m, m, 2)
        assert report.miou == 1.0
        assert report.pixel_accuracy == 1.0
        assert report.boundary_fscore == 1.0


class TestToleranceMustBeIntegral:
    """A fractional tolerance has an off-centre window and NaN none at all."""

    GT = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=np.int64)

    def scores(self, tol):
        gt = self.GT
        shifted = np.roll(gt, 1, axis=1)
        return (
            spx_boundary_recall(relabel_contiguous(shifted), gt, tol),
            boundary_fscore(shifted, gt, tol),
            evaluate_segmentation(shifted, gt, 2, boundary_tolerance_px=tol).to_dict(),
        )

    @pytest.mark.parametrize("tol", [1.5, 2.0, float("nan"), float("inf"), "2", None])
    def test_non_integral_tolerance_rejected(self, tol):
        gt = self.GT
        part = relabel_contiguous(gt)
        with pytest.raises(ValueError, match="tolerance_px"):
            spx_boundary_recall(part, gt, tol)
        with pytest.raises(ValueError, match="tolerance_px"):
            boundary_fscore(gt, gt, tol)
        with pytest.raises(ValueError, match="tolerance_px"):
            evaluate_segmentation(gt, gt, 2, boundary_tolerance_px=tol)

    @pytest.mark.parametrize("tol", [np.int64(1), np.uint8(1), np.int32(0), True])
    def test_numpy_and_python_integers_score_alike(self, tol):
        assert self.scores(tol) == self.scores(int(tol))


@settings(max_examples=300, deadline=None)
@given(
    mask=st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
        lambda shape: arrays(bool, shape)
    ),
    radius=st.integers(0, 45),
)
def test_square_max_filter_matches_scipy(mask, radius):
    from scipy import ndimage as ndi

    from spxkit.metrics import _dilate_square

    before = mask.copy()
    expected = ndi.maximum_filter(mask, size=2 * radius + 1, mode="constant")
    got = _dilate_square(mask, radius)
    assert got.dtype == bool
    assert np.array_equal(got, expected)
    assert np.array_equal(mask, before)
