"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single [PASS] line on success (run with ``-s`` to see
them); a failure reads as the criterion number plus the broken bound.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from spxkit import (
    MspConfig,
    QuickShiftParams,
    SlicParams,
    boundary_fscore,
    cascade_apply,
    confusion_matrix,
    evaluate_segmentation,
    gradient_check,
    message_pass,
    miou,
    quickshift_segment,
    random_partition,
    read_mspt,
    refine_probabilities,
    relabel_contiguous,
    slic_segment,
    spx_boundary_recall,
    srgb_to_lab,
    undersegmentation_error,
    validate_partition,
    write_mspt,
    write_ppm,
)
from spxkit.cli import main as cli_main

ALPHA = 0.1

X22 = np.array([[[1.0, 3.0], [5.0, 7.0]]])
ONE_BLOCK = relabel_contiguous(np.zeros((2, 2), dtype=np.int64))
COLUMNS = relabel_contiguous(np.array([[0, 1], [0, 1]]))


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def masked_mean_oracle(x, partition, alpha):
    """Independent slow path: boolean-mask means per block, then add."""
    out = x.astype(np.float64).copy()
    for k in range(partition.num_blocks):
        mask = partition.labels == k
        for c in range(x.shape[0]):
            out[c][mask] += alpha * x[c][mask].astype(np.float64).mean()
    return out


def random_instances(count, seed=2001):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = int(rng.integers(1, 5))
        h, w = (int(v) for v in rng.integers(2, 17, 2))
        k = int(rng.integers(1, min(9, h * w) + 1))
        x = rng.normal(size=(c, h, w))
        yield x, random_partition(h, w, k, rng)


def test_criterion_1_operator_correctness():
    start = time.perf_counter()
    out = message_pass(X22, ONE_BLOCK, ALPHA)
    assert np.array_equal(out, np.array([[[1.4, 3.4], [5.4, 7.4]]]))
    out = message_pass(X22, COLUMNS, ALPHA)
    assert np.array_equal(out, np.array([[[1.3, 3.5], [5.3, 7.5]]]))
    for x, part in random_instances(50):
        fast = message_pass(x, part, ALPHA)
        slow = masked_mean_oracle(x, part, ALPHA)
        assert np.abs(fast - slow).max() <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    report(1, f"hand fixtures exact, 50 oracle instances within 1e-6 "
              f"({elapsed:.2f}s)")


def test_criterion_2_gradient_and_adjoint():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    for seed in range(20):
        c = int(rng.integers(1, 4))
        h, w = (int(v) for v in rng.integers(4, 9, 2))
        k = int(rng.integers(1, 7))
        result = gradient_check(c, h, w, k, seed=seed, alpha=ALPHA)
        assert result["adjoint_err"] <= 1e-6, (seed, result)
        assert result["max_rel_err"] <= 1e-4, (seed, result)
    for seed, stages in ((100, 2), (101, 3), (102, 2)):
        result = gradient_check(2, 6, 6, 3, seed=seed, alpha=ALPHA, stages=stages)
        assert result["adjoint_err"] <= 1e-6, (seed, result)
        assert result["max_rel_err"] <= 1e-4, (seed, result)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s (budget 5s)"
    report(2, f"20 single-stage + 3 cascade gradient checks within bounds "
              f"({elapsed:.2f}s)")


def test_criterion_3_sum_preservation():
    for x, part in random_instances(50):
        out = message_pass(x, part, ALPHA)
        for c in range(x.shape[0]):
            s = float(x[c].sum())
            if abs(s) < 1e-9:  # degenerate zero-sum channel
                continue
            assert abs(float(out[c].sum()) - (1 + ALPHA) * s) / abs(s) <= 1e-5
    report(3, "per-channel sums scale by (1 + alpha) within 1e-5")


def test_criterion_4_cascade_ordering():
    with pytest.raises(ValueError, match="strictly increasing"):
        MspConfig(scales=(300, 200))
    with pytest.raises(ValueError, match="strictly increasing"):
        MspConfig(scales=(100, 100, 200))
    out = cascade_apply(X22, [ONE_BLOCK, COLUMNS], ALPHA)
    assert np.array_equal(out, np.array([[[1.74, 3.94], [5.74, 7.94]]]))
    report(4, "non-increasing scales rejected; two-stage fixture exact")


def test_criterion_5_slic():
    start = time.perf_counter()
    # uniform image: exact grid
    lab = srgb_to_lab(np.full((64, 64, 3), 90, np.uint8))
    part = slic_segment(lab, SlicParams(num_superpixels=16, compactness=10.0))
    assert part.num_blocks == 16
    assert part.block_sizes.tolist() == [256] * 16
    for i in range(4):
        for j in range(4):
            square = part.labels[16 * i : 16 * (i + 1), 16 * j : 16 * (j + 1)]
            assert np.unique(square).size == 1

    # bi-color image: blocks respect the edge, boundary recall >= 0.95
    img = np.zeros((128, 128, 3), np.uint8)
    img[:, :64] = (255, 0, 0)
    img[:, 64:] = (0, 0, 255)
    part = slic_segment(srgb_to_lab(img), SlicParams(num_superpixels=16))
    tol = 2
    for k in range(part.num_blocks):
        xs = np.nonzero(part.labels == k)[1]
        if xs.min() <= 63 and xs.max() >= 64:  # block touches both halves
            penetration = min(xs.max() - 63, 64 - xs.min())
            assert penetration <= tol, f"block {k} straddles beyond {tol}px"
    gt = ((np.arange(128)[None, :] >= 64) * np.ones((128, 1))).astype(np.int64)
    assert spx_boundary_recall(part, gt, 2) >= 0.95

    # block-count tolerance on smooth random images
    from scipy.ndimage import uniform_filter

    lam = 25  # <= 64*64/64
    for seed in range(10):
        rng = np.random.default_rng(seed)
        coarse = rng.integers(0, 256, (8, 8, 3)).astype(np.float64)
        smooth = uniform_filter(np.kron(coarse, np.ones((8, 8, 1))), (5, 5, 1))
        smooth_img = np.clip(smooth, 0, 255).astype(np.uint8)
        p = slic_segment(srgb_to_lab(smooth_img), SlicParams(num_superpixels=lam))
        assert validate_partition(p).ok
        assert abs(p.num_blocks - lam) / lam <= 0.5, (seed, p.num_blocks)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.2f}s (budget 10s)"
    report(5, f"grid exact, edge respected, |K-target|/target <= 0.5 "
              f"({elapsed:.2f}s)")


def test_criterion_6_quickshift():
    start = time.perf_counter()
    # forest property and validity on 20 random 16x16 images
    for seed in range(20):
        rng = np.random.default_rng(seed)
        lab = srgb_to_lab(rng.integers(0, 256, (16, 16, 3)).astype(np.uint8))
        part = quickshift_segment(lab, QuickShiftParams())
        assert validate_partition(part).ok, seed

    # tau below grid spacing: all singletons
    rng = np.random.default_rng(0)
    lab8 = srgb_to_lab(rng.integers(0, 256, (8, 8, 3)).astype(np.uint8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        part = quickshift_segment(lab8, QuickShiftParams(sigma=5.0, tau=0.5))
    assert part.num_blocks == 64

    # brute-force O(N^2) oracle equality on an 8x8 instance, including the
    # no-cycle walk over the oracle's parent pointers
    params = QuickShiftParams(sigma=2.0, tau=6.0)
    h = w = 8
    radius = int(math.ceil(3.0 * params.sigma))
    f = np.empty((h, w, 5))
    f[..., :3] = lab8 * params.color_ratio
    f[..., 3] = np.arange(w)[None, :]
    f[..., 4] = np.arange(h)[:, None]
    density = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for ny in range(max(0, y - radius), min(h, y + radius + 1)):
                for nx in range(max(0, x - radius), min(w, x + radius + 1)):
                    d2 = float(((f[ny, nx] - f[y, x]) ** 2).sum())
                    acc += math.exp(-d2 / (2.0 * params.sigma**2))
            density[y, x] = acc
    parent = np.full(h * w, -1, dtype=np.int64)
    for y in range(h):
        for x in range(w):
            me = y * w + x
            best_d2, best = math.inf, -1
            for ny in range(max(0, y - radius), min(h, y + radius + 1)):
                for nx in range(max(0, x - radius), min(w, x + radius + 1)):
                    cand = ny * w + nx
                    if cand == me:
                        continue
                    if not (
                        density[ny, nx] > density[y, x]
                        or (density[ny, nx] == density[y, x] and cand < me)
                    ):
                        continue
                    d2 = float(((f[ny, nx] - f[y, x]) ** 2).sum())
                    if d2 <= params.tau**2 and d2 < best_d2:
                        best_d2, best = d2, cand
            parent[me] = best
    for startpx in range(h * w):
        node, seen = startpx, set()
        while parent[node] >= 0:
            assert node not in seen, "cycle in oracle link graph"
            seen.add(node)
            node = int(parent[node])
    roots = np.where(parent < 0, np.arange(h * w), parent)
    while True:
        hopped = roots[roots]
        if np.array_equal(hopped, roots):
            break
        roots = hopped
    oracle = relabel_contiguous(roots.reshape(h, w))
    got = quickshift_segment(lab8, params)
    assert np.array_equal(got.labels, oracle.labels)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.2f}s (budget 10s)"
    report(6, f"forest + validity on 20 images, singleton case, oracle "
              f"equality ({elapsed:.2f}s)")


def test_criterion_7_metrics():
    pred = np.array([[0, 0, 1, 1]])
    gt = np.array([[0, 1, 1, 1]])
    mean, _ = miou(confusion_matrix(pred, gt, 2))
    assert abs(mean - 7.0 / 12.0) <= 1e-9

    m = np.array([[0, 1], [1, 0]])
    self_report = evaluate_segmentation(m, m, 2)
    assert self_report.miou == 1.0
    assert self_report.boundary_fscore == 1.0

    # nested partition: UE = 0
    gt8 = ((np.arange(8)[None, :] >= 4) * np.ones((8, 1))).astype(np.int64)
    nested = np.zeros((8, 8), dtype=np.int64)
    nested[:4, 4:] = 1
    nested[4:, :4] = 2
    nested[4:, 4:] = 3
    assert undersegmentation_error(relabel_contiguous(nested), gt8) == 0.0

    # one block straddling a 32/32 split: UE = 1.0
    whole = relabel_contiguous(np.zeros((8, 8), dtype=np.int64))
    assert undersegmentation_error(whole, gt8) == 1.0

    # shifted edge: F = 0 at tolerance 0, F = 1 at tolerance 2
    shifted = ((np.arange(8)[None, :] >= 6) * np.ones((8, 1))).astype(np.int64)
    assert boundary_fscore(shifted, gt8, 0)[2] == 0.0
    assert boundary_fscore(shifted, gt8, 2)[2] == 1.0
    report(7, "mIoU 7/12, perfect self-scores, UE 0/1 fixtures, F sweep 0 vs 1")


def test_criterion_8_refinement_demo():
    start = time.perf_counter()
    img = np.zeros((128, 128, 3), np.uint8)
    img[:, :64] = (60, 170, 70)
    img[:, 64:] = (150, 90, 200)
    gt = ((np.arange(128)[None, :] >= 64) * np.ones((128, 1))).astype(np.int64)

    # decisive probabilities everywhere except a boundary band where 20%
    # of pixels vote shallowly for the wrong class
    rng = np.random.default_rng(2024)
    probs = np.where(
        gt[None] == np.arange(2)[:, None, None], 0.9, 0.1
    ).astype(np.float64)
    band = (np.abs(np.arange(128)[None, :] - 63.5) <= 8.0) & np.ones(
        (128, 1), dtype=bool
    )
    noisy = band & (rng.uniform(size=(128, 128)) < 0.2)
    wrong = 1 - gt
    for c in range(2):
        probs[c][noisy] = np.where(wrong[noisy] == c, 0.52, 0.48)

    plain = np.argmax(probs, axis=0)
    config = MspConfig(alpha=ALPHA, scales=(50, 100))
    refined = refine_probabilities(probs, img, config).astype(np.int64)

    before = evaluate_segmentation(plain, gt, 2, None, boundary_tolerance_px=1)
    after = evaluate_segmentation(refined, gt, 2, None, boundary_tolerance_px=1)
    assert after.pixel_accuracy > before.pixel_accuracy, (before, after)
    assert after.boundary_fscore > before.boundary_fscore, (before, after)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.2f}s (budget 10s)"
    report(8, f"accuracy {before.pixel_accuracy:.4f}->{after.pixel_accuracy:.4f}, "
              f"F@1px {before.boundary_fscore:.3f}->{after.boundary_fscore:.3f} "
              f"({elapsed:.2f}s)")


def test_criterion_9_io_conformance(tmp_path, capsys):
    # 15-byte fixture, byte for byte
    fixture = bytes.fromhex("4d53505401000101000000" + "00000000")
    path = tmp_path / "zero.mspt"
    write_mspt(np.zeros(1, dtype=np.float32), str(path))
    assert path.read_bytes() == fixture

    # bit-exact round-trips (tensor and image)
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(2, 3, 4)).astype(np.float32)
    write_mspt(arr, str(tmp_path / "t.mspt"))
    back = read_mspt(str(tmp_path / "t.mspt"))
    assert back.view(np.uint32).tobytes() == arr.view(np.uint32).tobytes()
    labels = rng.integers(0, 5, (4, 4)).astype(np.uint32)
    write_mspt(labels, str(tmp_path / "l.mspt"))
    assert np.array_equal(read_mspt(str(tmp_path / "l.mspt")), labels)
    img = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
    from spxkit import read_ppm

    write_ppm(img, str(tmp_path / "img.ppm"))
    assert np.array_equal(read_ppm(str(tmp_path / "img.ppm")), img)

    # malformed headers are rejected with a nonzero exit through the CLI
    bad = tmp_path / "bad.mspt"
    bad.write_bytes(b"MSPX" + fixture[4:])
    good = tmp_path / "good.mspt"
    write_mspt(np.zeros((2, 2), dtype=np.uint32), str(good))
    code = cli_main(["metrics", "--pred", str(bad), "--gt", str(good),
                     "--classes", "2"])
    capsys.readouterr()
    assert code == 2
    truncated = tmp_path / "trunc.mspt"
    truncated.write_bytes(fixture[:-1])
    code = cli_main(["metrics", "--pred", str(truncated), "--gt", str(good),
                     "--classes", "2"])
    capsys.readouterr()
    assert code == 2
    report(9, "15-byte fixture matched, round-trips bit-exact, malformed "
              "files exit nonzero")
