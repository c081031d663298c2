import functools
import importlib
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from spxkit import (
    CascadeTrace,
    MspConfig,
    QuickShiftParams,
    SlicParams,
    SuperpixelPartition,
    block_means,
    cascade_apply,
    cascade_backward,
    cascade_forward,
    downsample_partition,
    gradient_check,
    mean_map,
    message_pass,
    message_pass_grad,
    random_partition,
    refine_probabilities,
    relabel_contiguous,
    srgb_to_lab,
    validate_partition,
)

msgpass_module = importlib.import_module("spxkit.msgpass")
slic_module = importlib.import_module("spxkit.slic")


def naive_message_pass(x, partition, alpha):
    """Per-block double loop, float64 accumulators in row-major order."""
    c, h, w = x.shape
    out = np.empty((c, h, w), dtype=np.float64)
    labels = partition.labels
    for k in range(partition.num_blocks):
        for ci in range(c):
            total = 0.0
            count = 0
            for y in range(h):
                for xx in range(w):
                    if labels[y, xx] == k:
                        total += float(x[ci, y, xx])
                        count += 1
            mean = total / count
            for y in range(h):
                for xx in range(w):
                    if labels[y, xx] == k:
                        out[ci, y, xx] = float(x[ci, y, xx]) + alpha * mean
    return out


def part_from(labels):
    return relabel_contiguous(np.asarray(labels))


X22 = np.array([[[1.0, 3.0], [5.0, 7.0]]])
ONE_BLOCK = part_from([[0, 0], [0, 0]])
COLUMNS = part_from([[0, 1], [0, 1]])


class TestMessagePass:
    def test_single_block_hand_values(self):
        out = message_pass(X22, ONE_BLOCK, 0.1)
        assert np.allclose(out, [[[1.4, 3.4], [5.4, 7.4]]], atol=1e-12)

    def test_two_column_hand_values(self):
        out = message_pass(X22, COLUMNS, 0.1)
        assert np.allclose(out, [[[1.3, 3.5], [5.3, 7.5]]], atol=1e-12)

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 7))
        part = random_partition(5, 7, 6, rng)
        assert np.array_equal(message_pass(x, part, 0.0), x)

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            c = int(rng.integers(1, 4))
            h, w = (int(v) for v in rng.integers(3, 9, 2))
            k = int(rng.integers(1, min(9, h * w) + 1))
            x = rng.normal(size=(c, h, w))
            part = random_partition(h, w, k, rng)
            fast = message_pass(x, part, 0.1)
            slow = naive_message_pass(x, part, 0.1)
            assert np.array_equal(fast, slow)

    def test_float32_in_float32_out(self):
        x = X22.astype(np.float32)
        out = message_pass(x, COLUMNS, 0.1)
        assert out.dtype == np.float32

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            message_pass(np.zeros((1, 3, 3)), ONE_BLOCK, 0.1)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            message_pass(X22, ONE_BLOCK, -0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, bad):
        for op in (message_pass, message_pass_grad):
            with pytest.raises(ValueError, match="alpha"):
                op(X22, ONE_BLOCK, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x = X22.copy()
        x[0, 1, 0] = bad
        calls = [
            lambda: message_pass(x, ONE_BLOCK, 0.1),
            lambda: message_pass(x, ONE_BLOCK, 0.0),
            lambda: message_pass_grad(x, ONE_BLOCK, 0.1),
            lambda: block_means(x, ONE_BLOCK),
            lambda: mean_map(x, ONE_BLOCK),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


    @pytest.mark.parametrize(
        "dtype, value, alpha",
        [(np.float16, 65000.0, 0.1), (np.float32, 3.3e38, 0.1), (np.float64, 4e307, 4.0)],
    )
    def test_output_overflow_rejected(self, dtype, value, alpha):
        # Finite input and finite block sums, but the pass leaves the
        # dtype's range: float16 and float32 overflow in the cast, float64
        # in alpha * mean + x.
        x = np.full((2, 2, 2), value, dtype=dtype)
        for op in (message_pass, message_pass_grad):
            with pytest.raises(ValueError, match=f"overflows the {np.dtype(dtype).name} output"):
                op(x, ONE_BLOCK, alpha)

    def test_output_just_inside_range_accepted(self):
        x = np.full((1, 2, 2), 3.0e38, dtype=np.float32)
        out = message_pass(x, ONE_BLOCK, 0.1)
        assert np.isfinite(out).all()


class TestOperatorProperties:
    def setup_method(self):
        self.rng = np.random.default_rng(77)

    def instance(self, c=3, h=8, w=8, k=5):
        x = self.rng.normal(size=(c, h, w))
        part = random_partition(h, w, k, self.rng)
        return x, part

    def test_message_is_block_constant(self):
        x, part = self.instance()
        mm = mean_map(x, part)
        for k in range(part.num_blocks):
            region = mm[:, part.labels == k]
            assert np.array_equal(region, np.repeat(region[:, :1], region.shape[1], axis=1))

    def test_sum_preservation(self):
        x, part = self.instance()
        out = message_pass(x, part, 0.1)
        for c in range(x.shape[0]):
            s = x[c].sum()
            assert abs(out[c].sum() - 1.1 * s) <= 1e-5 * max(1e-12, abs(s))

    def test_linearity(self):
        x, part = self.instance()
        y = self.rng.normal(size=x.shape)
        a, b = 2.5, -1.25
        lhs = message_pass(a * x + b * y, part, 0.1)
        rhs = a * message_pass(x, part, 0.1) + b * message_pass(y, part, 0.1)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_self_adjointness(self):
        x, part = self.instance()
        y = self.rng.normal(size=x.shape)
        lhs = float((message_pass(x, part, 0.1) * y).sum())
        rhs = float((x * message_pass(y, part, 0.1)).sum())
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs), 1.0)

    def test_backward_equals_forward_exactly(self):
        g, part = self.instance()
        assert np.array_equal(
            message_pass_grad(g, part, 0.1), message_pass(g, part, 0.1)
        )

    def test_backward_hand_value(self):
        g = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        out = message_pass_grad(g, ONE_BLOCK, 0.1)
        assert np.allclose(out, [[[1.025, 0.025], [0.025, 0.025]]], atol=1e-12)

    def test_mean_map_idempotent(self):
        x, part = self.instance()
        once = mean_map(x, part)
        twice = mean_map(once, part)
        assert np.allclose(twice, once, rtol=1e-12, atol=1e-12)

    def test_label_permutation_equivariance(self):
        x, part = self.instance(k=6)
        perm = self.rng.permutation(part.num_blocks)
        permuted = relabel_contiguous(perm[part.labels])
        assert np.allclose(
            message_pass(x, part, 0.1),
            message_pass(x, permuted, 0.1),
            atol=1e-12,
        )

    def test_gradient_check_passes(self):
        result = gradient_check(3, 8, 8, 4, seed=0)
        assert result["pass"]
        assert result["max_rel_err"] <= 1e-4
        assert result["adjoint_err"] <= 1e-6

    def test_gradient_check_alpha_zero_exact(self):
        result = gradient_check(2, 6, 6, 4, seed=3, alpha=0.0)
        assert result["max_rel_err"] == 0.0

    def test_gradient_check_single_block_adjoint(self):
        result = gradient_check(2, 6, 6, 1, seed=4)
        assert result["adjoint_err"] <= 1e-6

    @pytest.mark.parametrize("name", ["height", "width", "blocks"])
    @pytest.mark.parametrize("value", [2.5, 4.0])
    def test_non_integer_counts_rejected(self, name, value):
        counts = {"height": 6, "width": 6, "blocks": 4, name: value}
        with pytest.raises(ValueError, match=name):
            random_partition(**counts, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=name):
            gradient_check(2, **counts, seed=0)

    @pytest.mark.parametrize("seed", [2.5, 2.0, "2", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            gradient_check(2, 4, 4, 2, seed=seed)

    @pytest.mark.parametrize("bad, message", [
        ({"channels": 0}, "channels must be an integer >= 1"),
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"stages": 5}, r"stages must be an integer in \[1, 4\]"),
    ])
    def test_out_of_range_counts_rejected_by_name(self, bad, message):
        counts = {"channels": 1, "height": 2, "width": 2, "blocks": 1, "seed": 0, **bad}
        with pytest.raises(ValueError, match=message):
            gradient_check(**counts)

    def test_zero_height_partition_rejected_by_name(self):
        with pytest.raises(ValueError, match="height must be an integer >= 1"):
            random_partition(0, 4, 1, np.random.default_rng(0))

    def test_block_means_shape(self):
        x, part = self.instance(c=2, k=4)
        means = block_means(x, part)
        assert means.shape == (2, part.num_blocks)


class TestDownsamplePartition:
    def test_exact_nesting(self):
        labels = np.repeat(np.repeat([[0, 1], [2, 3]], 2, axis=0), 2, axis=1)
        part = part_from(labels)
        down = downsample_partition(part, 2, 2)
        assert down.labels.tolist() == [[0, 1], [2, 3]]

    def test_identity_when_dims_match(self):
        part = part_from([[0, 1], [2, 3]])
        down = downsample_partition(part, 2, 2)
        assert np.array_equal(down.labels, part.labels)

    def test_singleton_vanishes(self):
        labels = np.repeat(np.repeat([[0, 1], [2, 3]], 2, axis=0), 2, axis=1)
        labels[0, 0] = 4  # lone pixel inside the top-left quadrant
        part = part_from(labels)
        down = downsample_partition(part, 2, 2)
        assert down.num_blocks == part.num_blocks - 1

    def test_majority_matches_explicit_count(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            h, w = (int(v) for v in rng.integers(4, 10, 2))
            th, tw = (int(v) for v in rng.integers(1, 4, 2))
            th, tw = min(th, h), min(tw, w)
            part = random_partition(h, w, int(rng.integers(1, 6)), rng)
            down = downsample_partition(part, th, tw)
            # explicit per-cell majority with smallest-label ties
            expected = np.empty((th, tw), dtype=np.int64)
            for i in range(th):
                for j in range(tw):
                    rows = range(i * h // th, (i + 1) * h // th)
                    cols = range(j * w // tw, (j + 1) * w // tw)
                    votes = {}
                    for y in rows:
                        for x in cols:
                            lbl = int(part.labels[y, x])
                            votes[lbl] = votes.get(lbl, 0) + 1
                    best = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))
                    expected[i, j] = best[0]
            assert np.array_equal(
                down.labels, relabel_contiguous(expected).labels
            )

    def test_rejects_upsampling(self):
        part = part_from([[0, 1], [2, 3]])
        with pytest.raises(ValueError):
            downsample_partition(part, 4, 2)

    @pytest.mark.parametrize(
        "dims, name",
        [((4.0, 4), "target_height"), ((2.5, 3), "target_height"),
         ((2, 1.0), "target_width"), ((2, "2"), "target_width"), ((None, 2), "target_height")],
    )
    def test_rejects_non_integer_dims(self, dims, name):
        part = part_from(np.arange(16).reshape(4, 4) // 4)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            downsample_partition(part, *dims)

    def test_numpy_integer_dims_accepted(self):
        part = part_from(np.arange(16).reshape(4, 4) // 4)
        want = downsample_partition(part, 2, 2)
        for th, tw in [(np.int32(2), np.int64(2)), (np.uint8(2), np.int16(2))]:
            assert np.array_equal(downsample_partition(part, th, tw).labels, want.labels)


class TestCascade:
    def test_single_scale_reduces_to_one_pass(self):
        out = cascade_apply(X22, [ONE_BLOCK], 0.1)
        assert np.allclose(out, [[[1.4, 3.4], [5.4, 7.4]]], atol=1e-12)

    def test_two_stage_hand_values(self):
        out = cascade_apply(X22, [ONE_BLOCK, COLUMNS], 0.1)
        assert np.allclose(out, [[[1.74, 3.94], [5.74, 7.94]]], atol=1e-12)

    def test_trace_rejects_non_increasing_scales(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CascadeTrace(stages=((2, ONE_BLOCK), (1, COLUMNS)))

    def test_forward_rejects_bad_config_scales(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MspConfig(scales=(300, 200))

    def test_forward_runs_and_traces(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
        x = rng.normal(size=(2, 16, 16))
        config = MspConfig(alpha=0.1, scales=(4, 9))
        out, trace = cascade_forward(x, img, config)
        assert out.shape == x.shape
        assert [s for s, _ in trace.stages] == [4, 9]
        for _, part in trace.stages:
            assert part.labels.shape == (16, 16)
            assert validate_partition(part).ok
        # replaying the traced partitions reproduces the output
        replay = cascade_apply(x, [p for _, p in trace.stages], 0.1)
        assert np.array_equal(replay, out)

    def test_slic_template_keeps_its_knobs_at_every_scale(self, monkeypatch):
        seen = []

        def recording(lab, params, yx=None):
            seen.append(params)
            return slic_module._slic_steps(lab, params, yx)

        monkeypatch.setattr(msgpass_module, "_slic_steps", recording)
        template = SlicParams(num_superpixels=1, compactness=20.0)
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)
        x = rng.normal(size=(2, 16, 16))
        config = MspConfig(alpha=0.1, scales=(4, 9, 16), segmenter=template)
        cascade_forward(x, img, config)
        assert seen == [replace(template, num_superpixels=s) for s in (4, 9, 16)]

    def test_backward_single_stage_equals_grad(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(1, 4, 4))
        part = random_partition(4, 4, 3, rng)
        trace = CascadeTrace(stages=((5, part),))
        assert np.array_equal(
            cascade_backward(g, trace, 0.1), message_pass_grad(g, part, 0.1)
        )

    def test_backward_alpha_zero_identity(self):
        rng = np.random.default_rng(10)
        g = rng.normal(size=(2, 4, 4))
        parts = [random_partition(4, 4, k, rng) for k in (2, 4)]
        trace = CascadeTrace(stages=((2, parts[0]), (4, parts[1])))
        assert np.array_equal(cascade_backward(g, trace, 0.0), g)

    def test_backward_matches_finite_differences_through_cascade(self):
        result = gradient_check(2, 6, 6, 3, seed=11, stages=2)
        assert result["pass"]
        result = gradient_check(2, 5, 5, 2, seed=12, stages=3)
        assert result["pass"]

    def test_feature_map_larger_than_image_rejected(self):
        img = np.zeros((8, 8, 3), np.uint8)
        x = np.zeros((1, 16, 16))
        with pytest.raises(ValueError, match="exceeds"):
            cascade_forward(x, img, MspConfig(scales=(2,)))


    def test_forward_rejects_non_finite_features(self):
        img = np.zeros((8, 8, 3), np.uint8)
        x = np.zeros((2, 8, 8), dtype=np.float32)
        x[1, 3, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            cascade_forward(x, img, MspConfig(scales=(2,)))

    @pytest.mark.parametrize(
        "features, alpha",
        [
            (np.array([[[1, 2]]]), float("nan")),  # integer map, NaN alpha
            (np.full((1, 2, 2), np.nan), -1.0),
        ],
    )
    def test_apply_rejects_an_empty_cascade(self, features, alpha):
        # With no stage nothing would check the input, so it would come
        # back unchanged whatever it held.
        for empty in ([], ()):
            with pytest.raises(ValueError, match="partitions must be nonempty"):
                cascade_apply(features, empty, alpha)

    def test_trace_rejects_no_stages(self):
        with pytest.raises(ValueError, match="stages must be nonempty"):
            CascadeTrace(stages=())

    def test_errors_come_in_channel_order(self):
        # Channel 0 overflows float32 only at the second stage; channel 1
        # holds a NaN. A cascade runs every stage of channel 0 first.
        x = np.full((2, 2, 2), 2e38, dtype=np.float32)
        x[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="overflows the float32 output"):
            cascade_apply(x, [ONE_BLOCK, ONE_BLOCK], 0.5)
        with pytest.raises(ValueError, match="must be finite"):
            message_pass(x, ONE_BLOCK, 0.5)

    def test_each_partition_builds_its_plan_once(self, monkeypatch):
        # A forward and a backward pass over three stages use each
        # partition twice and build its plan once; each runs as one call
        # of the stage kernel, with the stages in order and then reversed.
        build = SuperpixelPartition._plan.func
        built = []

        def counting_build(part):
            built.append(part)
            return build(part)

        plan = functools.cached_property(counting_build)
        plan.__set_name__(SuperpixelPartition, "_plan")
        monkeypatch.setattr(SuperpixelPartition, "_plan", plan)
        calls = []
        real_stages = msgpass_module._stages

        def recording_stages(features, partitions, alpha):
            calls.append([id(p) for p in partitions])
            return real_stages(features, partitions, alpha)

        monkeypatch.setattr(msgpass_module, "_stages", recording_stages)
        rng = np.random.default_rng(13)
        parts = [random_partition(12, 12, k, rng) for k in (3, 6, 9)]
        x, g = rng.normal(size=(2, 3, 12, 12))
        cascade_apply(x, parts, 0.1)
        cascade_backward(g, CascadeTrace(stages=tuple(zip((3, 6, 9), parts))), 0.1)
        assert calls == [[id(p) for p in parts], [id(p) for p in parts[::-1]]]
        assert [id(p) for p in built] == [id(p) for p in parts]


@pytest.fixture
def starts(monkeypatch):
    """The threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(msgpass_module.os, "sched_getaffinity", lambda pid: cpus, raising=False)


class TestTwoThreads:
    @pytest.fixture
    def split(self, monkeypatch):
        # Every map of 2 or more channels splits, however small.
        monkeypatch.setattr(msgpass_module, "_THREAD_MIN_PIXELS", 1)
        monkeypatch.setattr(msgpass_module, "_usable_cpus", lambda: 2)

    def test_lowest_of_two_failing_channels_sets_the_error(self, split, starts):
        # Channel 0 overflows float32 at the second stage; channel 1 holds
        # a NaN, found at once, whichever thread takes it.
        x = np.full((2, 2, 2), 2e38, dtype=np.float32)
        x[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="overflows the float32 output"):
            cascade_apply(x, [ONE_BLOCK, ONE_BLOCK], 0.5)
        assert len(starts) == 1

    def test_last_channel_failing_alone_sets_the_error(self, split, starts):
        x = np.ones((3, 2, 2), dtype=np.float32)
        x[2, 1, 1] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            cascade_apply(x, [ONE_BLOCK, COLUMNS], 0.5)
        x[2, 1, 1] = 3e38
        with pytest.raises(ValueError, match="overflows the float32 output"):
            message_pass(x, ONE_BLOCK, 4.0)
        assert len(starts) == 2

    def test_worker_raises_on_float16_overflow(self, split, starts):
        # numpy's error state is per thread: a worker without its own
        # would store inf in channel 1.
        x = np.ones((2, 2, 2), dtype=np.float16)
        x[1] = 65000.0
        with pytest.raises(ValueError, match="overflows the float16 output"):
            message_pass(x, ONE_BLOCK, 0.1)
        assert len(starts) == 1

    @pytest.mark.parametrize(
        "shape, cpus, threads",
        [((64, 256, 256), {0, 1}, 1), ((64, 64, 64), {0, 1}, 0), ((19, 24, 24), {0, 1}, 0),
         ((1, 256, 256), {0, 1}, 0), ((64, 256, 256), {1}, 0),
         # Each channel needs _THREAD_MIN_PIXELS = 192^2 pixels, however many there are.
         ((2, 128, 160), {0, 1}, 0), ((2, 160, 192), {0, 1}, 0), ((3, 128, 160), {0, 1}, 0),
         ((2, 191, 193), {0, 1}, 0), ((2, 192, 192), {0, 1}, 1)],
    )
    def test_one_thread_starts_only_for_large_maps(self, monkeypatch, starts, shape, cpus, threads):
        set_cpus(monkeypatch, cpus)
        part = relabel_contiguous(np.arange(shape[1] * shape[2]).reshape(shape[1:]) // 7)
        x = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        out = message_pass(x, part, 0.2)
        assert len(starts) == threads
        assert not any(t.is_alive() for t in starts)
        assert out.shape == shape

    def test_split_equals_one_cpu_at_full_size(self, monkeypatch, starts):
        rng = np.random.default_rng(14)
        parts = [random_partition(200, 200, k, rng) for k in (40, 90)]
        x = rng.standard_normal((5, 200, 200)).astype(np.float32)
        outs = []
        for cpus in ({0, 1}, {0}):
            set_cpus(monkeypatch, cpus)
            outs.append(cascade_apply(x, parts, 0.7))
        assert np.array_equal(*outs)
        assert len(starts) == 1

    def test_refused_thread_leaves_every_job_to_the_calling_thread(self, split, monkeypatch):
        # Thread.start raises RuntimeError when the OS refuses a thread, say
        # at a container's pid limit; the channels and the scales then all
        # run on the calling thread, as on one CPU.
        def forward():
            return TestScaleSplit.forward(16, scales=(2, 4, 8), features=(4, 8, 8))

        monkeypatch.setattr(msgpass_module, "_usable_cpus", lambda: 1)
        want, want_trace = forward()

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(msgpass_module, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        got, trace = forward()
        assert np.array_equal(got, want)
        for (_, a), (_, b) in zip(trace.stages, want_trace.stages):
            assert np.array_equal(a.labels, b.labels)

    def test_cpu_count_stands_in_for_a_missing_affinity_call(self, monkeypatch):
        monkeypatch.delattr(msgpass_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(msgpass_module.os, "cpu_count", lambda: 3)
        assert msgpass_module._usable_cpus() == 3
        monkeypatch.setattr(msgpass_module.os, "cpu_count", lambda: None)
        assert msgpass_module._usable_cpus() == 1


class TestSharedQueue:
    """_share's jobs wait in one queue; each running thread pops one,
    steps it and pushes it back at the tail until it is done."""

    def test_slow_channel_holds_only_its_thread(self, monkeypatch, starts):
        rng = np.random.default_rng(17)
        part = random_partition(16, 16, 5, rng)
        x = rng.standard_normal((4, 16, 16)).astype(np.float32)
        monkeypatch.setattr(msgpass_module, "_THREAD_MIN_PIXELS", 1)
        monkeypatch.setattr(msgpass_module, "_usable_cpus", lambda: 1)
        want = message_pass(x, part, 0.3)
        channels_of = {}
        block_sums = msgpass_module._block_sums

        def slow(row, plan, c):
            channels_of.setdefault(threading.get_ident(), []).append(c)
            if c == 0:
                time.sleep(0.2)  # the other thread's row buffer must not change
            return block_sums(row, plan, c)

        monkeypatch.setattr(msgpass_module, "_block_sums", slow)
        monkeypatch.setattr(msgpass_module, "_usable_cpus", lambda: 2)
        got = message_pass(x, part, 0.3)
        assert len(starts) == 1
        assert sorted(channels_of.values()) == [[0], [1, 2, 3]]
        assert np.array_equal(got, want)

    def test_one_thread_steps_jobs_in_queue_order(self, monkeypatch):
        set_cpus(monkeypatch, {0})
        left = [3, 1, 2]  # steps each job needs
        calls = []

        def step(i, thread):
            calls.append((i, thread))
            left[i] -= 1
            return left[i] > 0

        msgpass_module._share(3, msgpass_module._THREAD_MIN_PIXELS, step)
        assert calls == [(0, 0), (1, 0), (2, 0), (0, 0), (2, 0), (0, 0)]

    def test_each_job_runs_its_steps_one_at_a_time(self, monkeypatch, starts):
        # Both threads pop and push back 60 jobs of 1-5 steps, handing
        # the interpreter over inside every step: no job may be lost,
        # stepped twice at once or stepped once too often.
        set_cpus(monkeypatch, {0, 1})
        need = [1 + i % 5 for i in range(60)]
        done = [0] * 60
        held, threads = set(), set()

        def step(i, thread):
            assert i not in held
            held.add(i)
            threads.add(thread)
            time.sleep(0)
            done[i] += 1
            held.discard(i)
            return done[i] < need[i]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            msgpass_module._share(60, msgpass_module._THREAD_MIN_PIXELS, step)
        finally:
            sys.setswitchinterval(switch)
        assert done == need
        assert threads == {0, 1}
        assert len(starts) == 1 and not starts[0].is_alive()

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_lowest_failing_job_error_is_raised(self, monkeypatch, starts, cpus):
        # On one thread the steps run as jobs 0, 1, 2 (fails), 1, 1 (fails):
        # job 2 fails first, and job 1, below it, still runs to its end.
        set_cpus(monkeypatch, cpus)
        left = [1, 3, 1]

        def step(i, thread):
            left[i] -= 1
            if i > 0 and left[i] == 0:
                raise ValueError(f"job {i} failed")
            return left[i] > 0

        with pytest.raises(ValueError, match="^job 1 failed$"):
            msgpass_module._share(3, msgpass_module._THREAD_MIN_PIXELS, step)
        assert left == [0, 0, 0]
        assert len(starts) == len(cpus) - 1

    def test_channels_above_a_failed_channel_are_skipped(self, monkeypatch):
        # A NaN in channel 1 raises before channels 2 and 3 run, as when
        # one thread ran the channels in one loop.
        x = np.ones((4, 2, 2), dtype=np.float32)
        x[1, 0, 0] = np.nan
        seen = []
        block_sums = msgpass_module._block_sums

        def recording(row, plan, c):
            seen.append(c)
            return block_sums(row, plan, c)

        monkeypatch.setattr(msgpass_module, "_block_sums", recording)
        with pytest.raises(ValueError, match="must be finite"):
            cascade_apply(x, [ONE_BLOCK, ONE_BLOCK], 0.5)
        assert seen == [0, 0, 1]


class TestScaleSplit:
    """A cascade's SLIC scales run on two threads from _THREAD_MIN_PIXELS image pixels."""

    @staticmethod
    def forward(side, scales=(10, 20, 30), segmenter=SlicParams(1), width=None, features=(1, 4, 4)):
        # Blocky colours; by default, one small feature channel keeps
        # message passing on one thread.
        width = side if width is None else width
        rng = np.random.default_rng(15)
        cells = rng.integers(0, 256, (-(-side // 16), -(-width // 16), 3), dtype=np.uint8)
        img = cells.repeat(16, axis=0).repeat(16, axis=1)[:side, :width]
        x = rng.standard_normal(features).astype(np.float32)
        return cascade_forward(x, img, MspConfig(scales=scales, segmenter=segmenter))

    def test_split_equals_one_cpu_run(self, monkeypatch, starts):
        side = math.isqrt(msgpass_module._THREAD_MIN_PIXELS - 1) + 1
        assert side * side == msgpass_module._THREAD_MIN_PIXELS  # the run is at the floor
        runs = []
        for cpus in ({0, 1}, {0}):
            set_cpus(monkeypatch, cpus)
            runs.append(self.forward(side))
        assert len(starts) == 1  # the two-CPU run's, for the upper scale
        assert not starts[0].is_alive()
        (out2, trace2), (out1, trace1) = runs
        assert np.array_equal(out2, out1)
        assert [s for s, _ in trace2.stages] == [s for s, _ in trace1.stages] == [10, 20, 30]
        for (_, a), (_, b) in zip(trace2.stages, trace1.stages):
            assert np.array_equal(a.labels, b.labels)

    @pytest.mark.filterwarnings("ignore::UserWarning")  # Quick Shift missing a scale
    @pytest.mark.parametrize("case", ["one cpu", "one scale", "quickshift", "below"])
    def test_no_thread_starts(self, monkeypatch, starts, case):
        set_cpus(monkeypatch, {0} if case == "one cpu" else {0, 1})
        side = math.isqrt(msgpass_module._THREAD_MIN_PIXELS - 1) + 1
        if case == "one scale":
            self.forward(side, scales=(30,))
        elif case == "quickshift":
            monkeypatch.setattr(msgpass_module, "_THREAD_MIN_PIXELS", 1)
            self.forward(32, scales=(2, 4, 8), segmenter=QuickShiftParams(sigma=1.0, tau=3.0))
        elif case == "below":
            assert 191 * 193 == msgpass_module._THREAD_MIN_PIXELS - 1
            self.forward(191, width=193)
        else:
            self.forward(side)
        assert starts == []

    @pytest.mark.parametrize("floor, threads", [(32 * 32, 2), (32 * 32 + 1, 0)])
    def test_one_floor_moves_both_splits(self, monkeypatch, starts, floor, threads):
        # A 32x32 image and a (2, 32, 32) map: the scales and the channels
        # split together, and only when each job reaches the floor.
        monkeypatch.setattr(msgpass_module, "_THREAD_MIN_PIXELS", floor)
        set_cpus(monkeypatch, {0, 1})
        self.forward(32, features=(2, 32, 32))
        assert len(starts) == threads

    @pytest.mark.parametrize(
        "scales, bad",
        [((1, 17, 18, 19), 17),  # scale 17 (caller) and 18 (worker) both fail
         ((1, 2, 17), 17)],  # only the worker's scale fails
    )
    def test_error_of_the_lowest_failing_scale_is_raised(self, monkeypatch, starts, scales, bad):
        monkeypatch.setattr(msgpass_module, "_THREAD_MIN_PIXELS", 1)
        set_cpus(monkeypatch, {0, 1})
        with pytest.raises(ValueError, match=f"num_superpixels {bad} exceeds pixel count 16"):
            self.forward(4, scales=scales)
        assert len(starts) == 1


class TestSteppedScales:
    """A cascade's SLIC runs share one queue: each thread advances a run by
    one k-means step, then puts it back."""

    def test_threads_take_turns_on_every_scale(self, monkeypatch, starts):
        side = math.isqrt(msgpass_module._THREAD_MIN_PIXELS - 1) + 1  # at the floor
        sweeps = []
        assign = slic_module._assign

        def recording(lab, centers, spacing, ratio):
            sweeps.append((threading.get_ident(), len(centers)))
            return assign(lab, centers, spacing, ratio)

        monkeypatch.setattr(slic_module, "_assign", recording)
        runs = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads hand the queue over often
        try:
            for cpus in ({0, 1}, {0}):
                set_cpus(monkeypatch, cpus)
                runs.append((TestScaleSplit.forward(side, scales=(50, 100, 400)), sweeps[:]))
                sweeps.clear()
        finally:
            sys.setswitchinterval(switch)
        assert len(starts) == 1 and not starts[0].is_alive()
        ((out2, trace2), sweeps2), ((out1, trace1), sweeps1) = runs
        # 49, 100 and 400 centres; their k-means stops after 10, 7 and 4 sweeps.
        counts = Counter(k for _, k in sweeps1)
        assert sorted(counts.values()) == [4, 7, 10]
        assert Counter(k for _, k in sweeps2) == counts
        scales_of = {}
        for thread, k in sweeps2:
            scales_of.setdefault(thread, set()).add(k)
        assert len(scales_of) == 2
        assert all(len(ks) >= 2 for ks in scales_of.values()), scales_of
        assert np.array_equal(out2, out1)
        for (_, a), (_, b) in zip(trace2.stages, trace1.stages):
            assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    @pytest.mark.parametrize(
        "scales",
        [(1, 2, 300),  # scale 300 fails at its first step, scale 2 at its last
         (1, 2, 4)],  # scales 2 and 4 both fail at their last step
    )
    def test_late_error_of_the_lowest_failing_scale_is_raised(self, monkeypatch, starts, cpus, scales):
        monkeypatch.setattr(msgpass_module, "_THREAD_MIN_PIXELS", 1)
        set_cpus(monkeypatch, cpus)
        enforce = slic_module.enforce_connectivity

        def failing(labels, min_size):
            # On a 16x16 image min_size is 64 // scale: scales 2 and up fail.
            if min_size <= 32:
                raise ValueError(f"connectivity failed at min_size {min_size}")
            return enforce(labels, min_size)

        monkeypatch.setattr(slic_module, "enforce_connectivity", failing)
        with pytest.raises(ValueError, match="failed at min_size 32$"):
            TestScaleSplit.forward(16, scales=scales)
        assert len(starts) == len(cpus) - 1
        assert not any(t.is_alive() for t in starts)

    @pytest.mark.parametrize("cpus, bound", [({0, 1}, 100), ({0}, 64)])
    def test_scratch_memory(self, monkeypatch, cpus, bound):
        # Two steps run at once on two CPUs, one on one CPU; the three runs
        # share one array of pixel coordinates.
        rng = np.random.default_rng(0)
        cells = rng.uniform(0, 255, (16, 16, 3))
        img = np.kron(cells, np.ones((32, 32, 1))) + rng.normal(0.0, 4.0, (512, 512, 3))
        lab = srgb_to_lab(np.clip(img, 0, 255).astype(np.uint8))
        set_cpus(monkeypatch, cpus)
        msgpass_module._segment_scales(lab[:32, :32], SlicParams(1), (2, 3, 4))  # imports out of the peak
        tracemalloc.start()
        try:
            msgpass_module._segment_scales(lab, SlicParams(1), (200, 300, 400))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 512 * 512, f"{peak / 512**2:.1f} B/pixel"


@pytest.mark.parametrize("workload", ["msp-smooth", "msp-train", "refine-qs"])
def test_benchmark_shapes_keep_their_paths(monkeypatch, starts, workload):
    # perfbench's workloads on a 2-CPU machine: msp-smooth splits its 256^2
    # image's SLIC scales but not its (64, 64, 64) features, msp-train splits
    # its (64, 256, 256) map, and refine-qs's (19, 24, 24) map stays whole.
    set_cpus(monkeypatch, {0, 1})
    if workload == "msp-smooth":
        TestScaleSplit.forward(256, scales=(200, 300, 400), features=(64, 64, 64))
    else:
        shape = (64, 256, 256) if workload == "msp-train" else (19, 24, 24)
        rng = np.random.default_rng(16)
        parts = [random_partition(*shape[1:], k, rng) for k in (20, 30, 40)]
        cascade_apply(rng.standard_normal(shape).astype(np.float32), parts, 0.1)
    assert len(starts) == (0 if workload == "refine-qs" else 1)


class TestRefineProbabilities:
    def test_block_constant_one_hot_is_fixed_point(self):
        # blocks follow the image's two color halves; probabilities are
        # one-hot and constant per block, so smoothing rescales without
        # changing any argmax
        img = np.zeros((16, 16, 3), np.uint8)
        img[:, :8] = (250, 30, 20)
        img[:, 8:] = (20, 40, 245)
        probs = np.zeros((2, 16, 16), dtype=np.float64)
        probs[0, :, :8] = 1.0
        probs[1, :, 8:] = 1.0
        config = MspConfig(alpha=0.1, scales=(2,))
        labels = refine_probabilities(probs, img, config)
        assert np.array_equal(labels, np.argmax(probs, axis=0).astype(np.uint32))

    def test_alpha_zero_is_plain_argmax(self):
        rng = np.random.default_rng(13)
        img = rng.integers(0, 256, (12, 12, 3)).astype(np.uint8)
        probs = rng.uniform(0.0, 1.0, size=(3, 12, 12))
        config = MspConfig(alpha=0.0, scales=(4,))
        labels = refine_probabilities(probs, img, config)
        assert np.array_equal(labels, np.argmax(probs, axis=0).astype(np.uint32))
        assert labels.dtype == np.uint32

    def test_rejects_negative_probabilities(self):
        img = np.zeros((4, 4, 3), np.uint8)
        probs = np.full((2, 4, 4), -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            refine_probabilities(probs, img, MspConfig(scales=(2,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        img = np.zeros((4, 4, 3), np.uint8)
        probs = np.full((2, 4, 4), 0.5)
        probs[0, 2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            refine_probabilities(probs, img, MspConfig(scales=(2,)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_reported_before_negative(self, bad):
        img = np.zeros((4, 4, 3), np.uint8)
        probs = np.full((2, 4, 4), 0.5)
        probs[1, 0, 3] = -1.0
        probs[0, 2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            refine_probabilities(probs, img, MspConfig(scales=(2,)))

    def test_scans_finiteness_once(self, monkeypatch):
        calls = []
        check = msgpass_module.check_feature_map

        def counting(features):
            calls.append(features)
            return check(features)

        monkeypatch.setattr(msgpass_module, "check_feature_map", counting)
        rng = np.random.default_rng(14)
        img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        probs = rng.uniform(0.0, 1.0, size=(2, 8, 8))
        refine_probabilities(probs, img, MspConfig(scales=(4,)))
        assert len(calls) == 1  # cascade_forward's own check
