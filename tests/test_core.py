from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spxkit import (
    MspConfig,
    SlicParams,
    SuperpixelPartition,
    relabel_contiguous,
    validate_partition,
)


def make_partition(labels, num_blocks, sizes):
    return SuperpixelPartition(
        labels=np.asarray(labels, dtype=np.int32),
        num_blocks=num_blocks,
        block_sizes=np.asarray(sizes, dtype=np.int64),
    )


class TestValidatePartition:
    def test_minimal_two_block_partition(self):
        part = make_partition([[0, 0], [1, 1]], 2, [2, 2])
        assert validate_partition(part).ok

    def test_unused_label_rejected(self):
        part = make_partition([[0, 0], [2, 2]], 3, [2, 0, 2])
        verdict = validate_partition(part)
        assert not verdict.ok
        assert "label 1 unused" in verdict.reason

    def test_census_mismatch_rejected(self):
        part = make_partition([[0, 0], [1, 1]], 2, [3, 1])
        verdict = validate_partition(part)
        assert not verdict.ok
        assert "block_sizes[0]" in verdict.reason

    def test_out_of_range_label_names_first_pixel(self):
        part = make_partition([[0, 5], [1, 1]], 2, [1, 3])
        verdict = validate_partition(part)
        assert not verdict.ok
        assert verdict.pixel == (0, 1)


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

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_output_always_valid_and_idempotent(self, h, w, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(-5, 20, size=(h, w))
        part = relabel_contiguous(raw)
        assert validate_partition(part).ok
        again = relabel_contiguous(part.labels)
        assert np.array_equal(again.labels, part.labels)
        assert again.num_blocks == part.num_blocks


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

    def test_rejects_unknown_segmenter(self):
        with pytest.raises(ValueError, match="segmenter"):
            MspConfig(segmenter="watershed")
