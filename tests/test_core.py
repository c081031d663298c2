import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spxkit import (
    MspConfig,
    SlicParams,
    SuperpixelPartition,
    relabel_contiguous,
    validate_partition,
)
from spxkit.core import check_count


def make_partition(labels):
    return SuperpixelPartition(np.asarray(labels, dtype=np.int32))


class TestValidatePartition:
    def test_minimal_two_block_partition(self):
        part = make_partition([[0, 0], [1, 1]])
        assert validate_partition(part).ok

    def test_unused_label_rejected(self):
        part = make_partition([[0, 0], [2, 2]])
        verdict = validate_partition(part)
        assert not verdict.ok
        assert "label 1 unused" in verdict.reason

    def test_out_of_range_label_names_first_pixel(self):
        part = make_partition([[0, -1], [1, 1]])
        verdict = validate_partition(part)
        assert not verdict.ok
        assert verdict.pixel == (0, 1)

    def test_label_beyond_pixel_count_builds_no_census(self):
        part = SuperpixelPartition(np.array([[0, 10**15]]))
        verdict = validate_partition(part)
        assert not verdict.ok
        assert "unused" in verdict.reason
        assert "block_sizes" not in vars(part)

    def test_census_is_computed_once_from_the_labels(self):
        part = make_partition([[0, 1, 1], [2, 2, 2]])
        assert part.block_sizes is part.block_sizes
        assert part.block_sizes.dtype == np.int64
        assert part.block_sizes.tolist() == [1, 2, 3]
        assert part.num_blocks == 3


class TestRelabelContiguous:
    def test_first_appearance_remap(self):
        part = relabel_contiguous(np.array([[7, 7], [3, 3]]))
        assert part.num_blocks == 2
        assert part.labels.tolist() == [[0, 0], [1, 1]]

    def test_single_block(self):
        part = relabel_contiguous(np.full((2, 2), 5))
        assert part.num_blocks == 1
        assert part.labels.tolist() == [[0, 0], [0, 0]]

    def test_interleaved_labels(self):
        part = relabel_contiguous(np.array([[1, 2], [2, 1]]))
        assert part.labels.tolist() == [[0, 1], [1, 0]]
        assert part.num_blocks == 2
        assert part.block_sizes.tolist() == [2, 2]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            relabel_contiguous(np.empty((0, 3), dtype=np.int64))

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integer"):
            relabel_contiguous(np.zeros((2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.integers(0, 2**32 - 1),
    )
    def test_output_always_valid_and_idempotent(self, h, w, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(-5, 20, size=(h, w))
        part = relabel_contiguous(raw)
        assert validate_partition(part).ok
        uniq, first, counts = np.unique(raw, return_index=True, return_counts=True)
        assert part.block_sizes.tolist() == counts[np.argsort(first)].tolist()
        assert part.num_blocks == np.unique(raw).size
        again = relabel_contiguous(part.labels)
        assert np.array_equal(again.labels, part.labels)
        assert again.num_blocks == part.num_blocks


def oracle_relabel_contiguous(raw: np.ndarray) -> np.ndarray:
    """The earlier relabel: ``np.unique`` with index and inverse, ranked by argsort."""
    arr = np.asarray(raw)
    uniq, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(uniq.size, dtype=np.int32)
    rank[order] = np.arange(uniq.size, dtype=np.int32)
    return rank[inverse].reshape(arr.shape)


_LABEL_DTYPES = [np.int8, np.uint8, np.int32, np.uint32, np.int64, np.uint64]


@st.composite
def relabel_inputs(draw):
    """Label maps of every integer width, in range [0, H*W) or not.

    Out-of-range maps mix negative values, values at or past H*W and the
    dtype's extremes; 1 x N and N x 1 shapes are drawn as often as any.
    """
    info = np.iinfo(draw(st.sampled_from(_LABEL_DTYPES)))
    h, w = draw(
        st.one_of(
            st.tuples(st.integers(1, 24), st.integers(1, 24)),
            st.tuples(st.just(1), st.integers(1, 64)),
            st.tuples(st.integers(1, 64), st.just(1)),
        )
    )
    n = h * w
    in_range = st.integers(0, min(n - 1, int(info.max)))
    if draw(st.booleans()):
        value = in_range
    else:
        value = st.one_of(
            in_range,
            st.integers(n, int(info.max)) if n <= info.max else st.nothing(),
            st.integers(int(info.min), -1) if info.min < 0 else st.nothing(),
            st.sampled_from([int(info.min), int(info.max)]),
        )
    pool = draw(st.lists(value, min_size=1, max_size=10, unique=True))
    idx = draw(hnp.arrays(np.int64, (h, w), elements=st.integers(0, len(pool) - 1)))
    return np.asarray(pool, dtype=info.dtype)[idx]


class TestRelabelMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(raw=relabel_inputs())
    def test_random_maps_match_oracle(self, raw):
        got = relabel_contiguous(raw)
        assert got.labels.dtype == np.int32
        assert np.array_equal(got.labels, oracle_relabel_contiguous(raw))

    @pytest.mark.parametrize("dtype", _LABEL_DTYPES)
    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (3, 4)])
    def test_dtype_extremes_match_oracle(self, dtype, shape):
        info = np.iinfo(dtype)
        values = np.array([info.max, info.min, 0, info.max, 1, info.min, 2], dtype)
        raw = np.resize(values, shape)
        assert np.array_equal(
            relabel_contiguous(raw).labels, oracle_relabel_contiguous(raw)
        )

    def test_in_range_map_is_not_sorted(self, monkeypatch):
        raw = np.random.default_rng(3).integers(0, 40, (32, 32))

        def refuse(*args, **kwargs):
            raise AssertionError("an in-range map was sorted")

        for name in ("unique", "argsort", "sort", "lexsort"):
            monkeypatch.setattr(np, name, refuse)
        got = relabel_contiguous(raw).labels
        monkeypatch.undo()
        assert np.array_equal(got, oracle_relabel_contiguous(raw))

    @pytest.mark.parametrize(
        "form, sorted_as",
        [("negative int64", []),  # 400 values span fewer than H*W: no sort
         ("uint32 x100003", [np.uint32]),
         ("int64 x1000", [np.uint32])],  # the span needs 19 bits
    )
    def test_spread_ids_are_shifted_into_a_narrow_dtype(self, monkeypatch, form, sorted_as):
        # Segment ids as ground truth may carry them, 400 at 256^2.
        ids = np.random.default_rng(5).integers(0, 400, (256, 256))
        raw = {"negative int64": -ids - 1, "uint32 x100003": ids.astype(np.uint32) * 100003,
               "int64 x1000": ids * 1000}[form]
        unique = np.unique
        seen = []

        def recording(ar, *args, **kwargs):
            seen.append(ar.dtype)
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", recording)
        tracemalloc.start()
        try:
            got = relabel_contiguous(raw).labels
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert np.array_equal(got, oracle_relabel_contiguous(raw))
        assert seen == sorted_as
        if not sorted_as:  # a first-position table as small as the span
            assert peak <= 16 * raw.size, f"{peak / raw.size:.1f} B/pixel"

    def test_in_range_map_scratch_memory(self):
        # A 256^2 map of 400 labels, as SLIC hands it over: the pixel
        # positions fed to np.minimum.at (8 B/pixel) and the first-pixel
        # mask (1 B/pixel) dominate; nothing the size of a sort is built.
        raw = np.random.default_rng(4).integers(0, 400, (256, 256)).astype(np.int32)
        tracemalloc.start()
        try:
            relabel_contiguous(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * raw.size, f"{peak / raw.size:.1f} B/pixel"


class TestBlockPlan:
    @pytest.mark.parametrize("blocks", [1, 256, 257, 65_536, 65_537])
    def test_member_order_is_the_stable_argsort(self, blocks):
        # The plan sorts labels as uint8, uint16 or uint32, whichever holds
        # them; a stable sort's permutation is unique, so it must equal the
        # stable argsort of the intp labels on each side of every width.
        rng = np.random.default_rng(blocks)
        raw = rng.integers(0, blocks, 300 * 300)
        raw[rng.permutation(raw.size)[:blocks]] = np.arange(blocks)
        part = relabel_contiguous(raw.reshape(300, 300))
        assert part.num_blocks == blocks
        members = part._plan.members
        index = part.labels.ravel().astype(np.intp)
        assert np.array_equal(members.indices, np.argsort(index, kind="stable"))
        assert np.array_equal(np.diff(members.indptr), part.block_sizes)


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, 7, np.int64(3), np.uint8(7), np.int32(5)])
    def test_integers_in_range_come_back_as_int(self, value):
        got = check_count("n", value, 3, 7)
        assert got == value
        assert type(got) is int

    def test_no_upper_bound_by_default(self):
        assert check_count("n", 2**70) == 2**70
        assert check_count("n", np.uint64(2**64 - 1), 0) == 2**64 - 1

    @pytest.mark.parametrize("value", [2.0, "2", None, float("nan"), np.float64(4.0)])
    def test_non_integers_refused_by_name(self, value):
        with pytest.raises(ValueError, match=r"^tiles must be an integer in \[1, 9\], got "):
            check_count("tiles", value, 1, 9)

    @pytest.mark.parametrize("value, low, high", [
        (0, 1, None), (-1, 0, None), (np.int64(2), 3, 7), (8, 3, 7),
        (np.uint64(2**63), 1, 2**63 - 1),
    ])
    def test_out_of_range_refused_by_name(self, value, low, high):
        bound = f">= {low}" if high is None else rf"in \[{low}, {high}\]"
        with pytest.raises(ValueError, match=rf"^tiles must be an integer {bound}, got "):
            check_count("tiles", value, low, high)


class TestMspConfig:
    def test_defaults_are_valid(self):
        config = MspConfig()
        assert config.alpha == 0.1
        assert config.scales == (200, 300, 400)

    def test_fields_are_alpha_scales_segmenter(self):
        assert [f.name for f in fields(MspConfig)] == ["alpha", "scales", "segmenter"]
        assert MspConfig().segmenter == SlicParams(num_superpixels=200)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_alpha(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            MspConfig(alpha=bad)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            MspConfig(alpha=-0.1)

    def test_rejects_non_increasing_scales(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MspConfig(scales=(300, 200))
        with pytest.raises(ValueError, match="strictly increasing"):
            MspConfig(scales=(100, 100))

    def test_rejects_scale_below_one(self):
        with pytest.raises(ValueError, match="scale"):
            MspConfig(scales=(0, 10))

    def test_scales_must_be_integers(self):
        with pytest.raises(ValueError, match="integer"):
            MspConfig(scales=(1.5, 2.5))
        scales = MspConfig(scales=[np.int64(4), np.int32(9), 16]).scales
        assert scales == (4, 9, 16)
        assert all(type(s) is int for s in scales)

    def test_rejects_unknown_segmenter(self):
        with pytest.raises(ValueError, match="segmenter"):
            MspConfig(segmenter="watershed")
