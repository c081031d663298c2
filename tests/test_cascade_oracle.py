"""Whole cascades against a chain of the original single-scale passes.

The library runs every stage of one channel before it moves to the next
channel. The oracle is the original ``message_pass`` from
``test_msgpass_oracle.py``, chained stage after stage over the whole map
as the original cascades did: each stage's output is rounded to the
feature dtype before the next stage reads it. Outputs must be equal bit
for bit, and a cascade must raise exactly where the chain overflows.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_msgpass_oracle import feature_cases, partitions
from test_msgpass_oracle import message_pass as oracle_message_pass

from spxkit import msgpass
from spxkit.color import srgb_to_lab
from spxkit.quickshift import QuickShiftParams, quickshift_match_scale
from spxkit.slic import SlicParams, slic_segment


def oracle_chain(x, parts, alpha):
    """The stages in order, each over the whole map; None if one overflows."""
    try:
        with np.errstate(over="raise"):
            for part in parts:
                x = oracle_message_pass(x, part, alpha)
    except FloatingPointError:
        return None
    return x


def assert_matches_chain(got_or_error, want):
    if want is None:
        assert isinstance(got_or_error, ValueError)
        assert "overflows" in str(got_or_error)
    else:
        assert not isinstance(got_or_error, Exception), got_or_error
        assert got_or_error.dtype == want.dtype
        assert np.array_equal(got_or_error, want)


def attempt(op):
    try:
        return op()
    except ValueError as err:
        return err


@st.composite
def cascade_cases(draw):
    """(features, 1-4 partitions) with any float dtype and memory layout.

    A float16 or float32 map may sit at 1/16 of its dtype's largest value,
    so a few stages with a large alpha overflow it.
    """
    x, first = draw(feature_cases())
    if x.dtype != np.float64 and draw(st.booleans()):
        x += np.finfo(x.dtype).max / 16
    h, w = x.shape[1:]
    return x, [first] + [draw(partitions(h, w)) for _ in range(draw(st.integers(0, 3)))]


ALPHAS = st.one_of(st.just(0.0), st.floats(0.0, 4.0, allow_nan=False))


def check_cascades_against_chain(x, parts, alpha):
    got = attempt(lambda: msgpass.cascade_apply(x, parts, alpha))
    assert_matches_chain(got, oracle_chain(x, parts, alpha))
    trace = msgpass.CascadeTrace(stages=tuple((i + 1, p) for i, p in enumerate(parts)))
    got = attempt(lambda: msgpass.cascade_backward(x, trace, alpha))
    assert_matches_chain(got, oracle_chain(x, parts[::-1], alpha))


@settings(max_examples=300, deadline=None)
@given(case=cascade_cases(), alpha=ALPHAS)
def test_cascade_apply_and_backward_match_chain(case, alpha):
    check_cascades_against_chain(*case, alpha)


@settings(max_examples=300, deadline=None)
@given(case=cascade_cases(), alpha=ALPHAS)
def test_cascades_split_over_two_threads_match_chain(case, alpha):
    # Every map of 2 or more channels takes the two-thread split here,
    # however small, and must still equal the chain bit for bit.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(msgpass, "_THREAD_MIN_PIXELS", 1)
        mp.setattr(msgpass, "_usable_cpus", lambda: 2)
        check_cascades_against_chain(*case, alpha)


@st.composite
def forward_cases(draw):
    """(features, image, config) on small blocky images, either segmenter."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(4, 20)), draw(st.integers(4, 20))
    cell = draw(st.integers(1, 4))
    coarse = rng.integers(0, 256, (-(-h // cell), -(-w // cell), 3), dtype=np.uint8)
    image = coarse.repeat(cell, axis=0).repeat(cell, axis=1)[:h, :w]
    hf, wf = draw(st.integers(1, h)), draw(st.integers(1, w))
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    features = rng.standard_normal((draw(st.integers(1, 3)), hf, wf)).astype(dtype)
    scales = draw(st.lists(st.integers(1, min(30, h * w)), min_size=1, max_size=3,
                           unique=True))
    if draw(st.booleans()):
        compactness = draw(st.sampled_from([1.0, 10.0]))
        segmenter = SlicParams(scales[0], compactness=compactness)
    else:
        segmenter = QuickShiftParams(sigma=draw(st.sampled_from([1.0, 2.0])), tau=3.0)
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_nan=False)))
    config = msgpass.MspConfig(alpha, tuple(sorted(scales)), segmenter)
    return features, image, config


def seed_cascade_forward(features, image, config):
    """The original forward pass: segment, reduce and pass, one scale at a time."""
    lab = srgb_to_lab(image)
    x, parts = features, []
    for scale in config.scales:
        if isinstance(config.segmenter, SlicParams):
            full = slic_segment(lab, replace(config.segmenter, num_superpixels=scale))
        else:
            full = quickshift_match_scale(lab, config.segmenter, scale)
        parts.append(msgpass.downsample_partition(full, *features.shape[1:]))
        x = oracle_message_pass(x, parts[-1], config.alpha)
    return x, parts


@settings(max_examples=60, deadline=None)
@given(case=forward_cases())
def test_cascade_forward_matches_seed_chain(case):
    features, image, config = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # Quick Shift target misses
        got, trace = msgpass.cascade_forward(features, image, config)
        want, parts = seed_cascade_forward(features, image, config)
    assert got.dtype == want.dtype == features.dtype
    assert np.array_equal(got, want)
    assert [s for s, _ in trace.stages] == list(config.scales)
    for (_, got_part), want_part in zip(trace.stages, parts):
        assert np.array_equal(got_part.labels, want_part.labels)


def test_float32_cascade_rounds_between_stages():
    # Kept in float64 from stage to stage, this cascade would differ from
    # the chain in its last bits; the chain rounds every stage to float32.
    rng = np.random.default_rng(9)
    parts = [msgpass.random_partition(6, 5, k, rng) for k in (2, 4, 7)]
    x = rng.standard_normal((2, 6, 5)).astype(np.float32)
    want = oracle_chain(x, parts, 0.3)
    unrounded = oracle_chain(x.astype(np.float64), parts, 0.3).astype(np.float32)
    assert not np.array_equal(unrounded, want)
    assert np.array_equal(msgpass.cascade_apply(x, parts, 0.3), want)
    trace = msgpass.CascadeTrace(stages=tuple(zip((2, 4, 7), parts)))
    assert np.array_equal(
        msgpass.cascade_backward(x, trace, 0.3), oracle_chain(x, parts[::-1], 0.3)
    )


def test_cascade_holds_no_intermediate_map():
    # With the plans built, a 3-stage cascade on a (64, 256, 256) float32
    # map needs O(H*W) scratch beside its output, under 64 B/pixel: a
    # float64 row, its gathered message and the row rounded to float32. A
    # stage-by-stage cascade holds one intermediate map of C*H*W*4 bytes
    # (16 MiB here) while it writes the next.
    rng = np.random.default_rng(10)
    parts = [msgpass.random_partition(256, 256, k, rng) for k in (200, 300, 400)]
    for part in parts:
        part._plan
    x = rng.standard_normal((64, 256, 256), dtype=np.float32)
    tracemalloc.start()
    try:
        out = msgpass.cascade_apply(x, parts, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    extra = peak - out.nbytes
    assert extra < 64 * x[0].size, f"{extra / x[0].size:.1f} B/pixel beside the output"
