import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from spxkit import (
    MspConfig,
    QuickShiftParams,
    SlicParams,
    cascade_forward,
    read_mspt,
    write_mspt,
    write_ppm,
)
from spxkit.cli import main

from _child import run_python

X22 = np.array([[[1.0, 3.0], [5.0, 7.0]]], dtype=np.float32)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def uniform_ppm(tmp_path):
    path = tmp_path / "uniform.ppm"
    write_ppm(np.full((64, 64, 3), 90, np.uint8), str(path))
    return str(path)


@pytest.fixture
def tiny_ppm(tmp_path):
    path = tmp_path / "tiny.ppm"
    write_ppm(np.full((2, 2, 3), 50, np.uint8), str(path))
    return str(path)


class TestSuperpixel:
    def test_slic_uniform_grid(self, capsys, tmp_path, uniform_ppm):
        out_path = tmp_path / "labels.mspt"
        code, out, _ = run(
            capsys,
            ["superpixel", "--algo", "slic", "--lambda", "16", uniform_ppm,
             "-o", str(out_path)],
        )
        assert code == 0
        assert json.loads(out) == {"num_blocks": 16}
        labels = read_mspt(str(out_path))
        assert labels.dtype == np.uint32
        assert labels.shape == (64, 64)

    def test_lambda_zero_exits_1(self, capsys, tmp_path, uniform_ppm):
        code, _, err = run(
            capsys,
            ["superpixel", "--algo", "slic", "--lambda", "0", uniform_ppm,
             "-o", str(tmp_path / "x.mspt")],
        )
        assert code == 1
        assert err

    def test_quickshift_singletons(self, capsys, tmp_path):
        img_path = tmp_path / "img.ppm"
        rng = np.random.default_rng(0)
        write_ppm(rng.integers(0, 256, (8, 8, 3)).astype(np.uint8), str(img_path))
        out_path = tmp_path / "labels.mspt"
        code, out, _ = run(
            capsys,
            ["superpixel", "--algo", "quickshift", "--tau", "0.5",
             str(img_path), "-o", str(out_path)],
        )
        assert code == 0
        assert json.loads(out) == {"num_blocks": 64}

    def test_sweep_refuses_a_sigma_too_small_for_the_kernel(
        self, capsys, tmp_path, uniform_ppm
    ):
        # A uniform image gives 1 block at every sigma, so the sweep goes
        # on until sigma = 1e-154 * 0.8^3, where 1 / (2 sigma^2)
        # overflows. On the way, d2 / (2 sigma^2) overflows to -inf at
        # the diagonal offsets; exp(-inf) = 0 is the weight wanted, and
        # the segmenter lets that overflow pass without a warning.
        out_path = tmp_path / "x.mspt"
        argv = ["superpixel", "--algo", "quickshift", "--sigma", "1e-154",
                "--tau", "3", uniform_ppm, "-o", str(out_path)]
        code, _, err = run(capsys, [*argv, "--lambda", "400"])
        assert code == 1
        assert "got 5.1200000000000005e-155" in err
        assert not out_path.exists()
        # When the first sigma meets the target, the ladder is not tried.
        code, out, _ = run(capsys, [*argv, "--lambda", "2"])
        assert code == 0
        assert json.loads(out) == {"num_blocks": 1}

    def test_tau_warning_is_given_once(self, capsys, tmp_path, uniform_ppm):
        # tau 3 is below the sigmas 5, 4 and 3.2 that the sweep tries;
        # the warning is about the user's own sigma, and it comes once.
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code, _, _ = run(
                capsys,
                ["superpixel", "--algo", "quickshift", "--sigma", "5", "--tau", "3",
                 "--lambda", "400", uniform_ppm, "-o", str(tmp_path / "x.mspt")],
            )
        assert code == 0
        tau_warnings = [str(w.message) for w in record if "tau (" in str(w.message)]
        assert len(tau_warnings) == 1
        assert tau_warnings[0].startswith("tau (3.0) <= sigma (5.0)")
        assert any("missed" in str(w.message) for w in record)

    def test_vis_overlay_written(self, capsys, tmp_path, uniform_ppm):
        out_path = tmp_path / "labels.mspt"
        vis_path = tmp_path / "vis.ppm"
        code, _, _ = run(
            capsys,
            ["superpixel", "--lambda", "4", uniform_ppm, "-o", str(out_path),
             "--vis", str(vis_path), "--vis-mode", "mean-color"],
        )
        assert code == 0
        assert vis_path.exists()

    def test_unknown_flag_exits_1(self, capsys, tmp_path, uniform_ppm):
        code, _, err = run(
            capsys,
            ["superpixel", "--lambda", "4", "--bogus", uniform_ppm,
             "-o", str(tmp_path / "x.mspt")],
        )
        assert code == 1

    def test_huge_header_integer_exits_2(self, capsys, tmp_path):
        big = tmp_path / "big.ppm"
        big.write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n" + bytes(3))
        code, _, err = run(
            capsys,
            ["superpixel", "--lambda", "4", str(big), "-o", str(tmp_path / "o.mspt")],
        )
        assert code == 2
        assert "digits" in err

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            ["superpixel", "--lambda", "4", str(tmp_path / "nope.ppm"),
             "-o", str(tmp_path / "x.mspt")],
        )
        assert code == 2


class TestMspApply:
    def test_alpha_zero_output_bit_identical(self, capsys, tmp_path, tiny_ppm):
        feat_path = tmp_path / "features.mspt"
        write_mspt(X22, str(feat_path))
        out_path = tmp_path / "out.mspt"
        code, _, _ = run(
            capsys,
            ["msp-apply", "--image", tiny_ppm, "--features", str(feat_path),
             "--scales", "1", "--alpha", "0", "-o", str(out_path)],
        )
        assert code == 0
        assert out_path.read_bytes() == feat_path.read_bytes()

    def test_decreasing_scales_exit_1_with_rule(self, capsys, tmp_path, tiny_ppm):
        feat_path = tmp_path / "features.mspt"
        write_mspt(X22, str(feat_path))
        code, _, err = run(
            capsys,
            ["msp-apply", "--image", tiny_ppm, "--features", str(feat_path),
             "--scales", "300,200", "-o", str(tmp_path / "out.mspt")],
        )
        assert code == 1
        assert "strictly increasing" in err

    def test_single_scale_fixture_bytes(self, capsys, tmp_path, tiny_ppm):
        # single block on a 2x2 image: global mean 4, alpha 0.1 adds 0.4
        feat_path = tmp_path / "features.mspt"
        write_mspt(X22, str(feat_path))
        out_path = tmp_path / "out.mspt"
        code, _, _ = run(
            capsys,
            ["msp-apply", "--image", tiny_ppm, "--features", str(feat_path),
             "--scales", "1", "--alpha", "0.1", "-o", str(out_path)],
        )
        assert code == 0
        expected = np.array([[[1.4, 3.4], [5.4, 7.4]]], dtype=np.float32)
        got = read_mspt(str(out_path))
        assert got.tobytes() == expected.tobytes()

    def test_corrupt_features_exit_2(self, capsys, tmp_path, tiny_ppm):
        feat_path = tmp_path / "features.mspt"
        feat_path.write_bytes(b"MSPT\x09garbage")
        code, _, _ = run(
            capsys,
            ["msp-apply", "--image", tiny_ppm, "--features", str(feat_path),
             "-o", str(tmp_path / "out.mspt")],
        )
        assert code == 2


    def test_nan_features_exit_1(self, capsys, tmp_path, tiny_ppm):
        # a NaN is valid float32 payload, so the file reads; the value is
        # a bad argument
        feat_path = tmp_path / "features.mspt"
        x = X22.copy()
        x[0, 0, 1] = np.nan
        write_mspt(x, str(feat_path))
        out_path = tmp_path / "out.mspt"
        code, _, err = run(
            capsys,
            ["msp-apply", "--image", tiny_ppm, "--features", str(feat_path),
             "--scales", "1", "-o", str(out_path)],
        )
        assert code == 1
        assert "finite" in err
        assert not out_path.exists()


    @pytest.mark.parametrize("scales", ["4", "4,9"])
    def test_output_overflow_exits_1(self, capsys, tmp_path, scales):
        # Finite float32 features of 3.3e38 plus 0.1 times their mean pass
        # float32's largest value at the first stage.
        img_path = tmp_path / "img.ppm"
        rng = np.random.default_rng(2)
        write_ppm(rng.integers(0, 256, (32, 32, 3)).astype(np.uint8), str(img_path))
        feat_path = tmp_path / "features.mspt"
        write_mspt(np.full((2, 32, 32), 3.3e38, dtype=np.float32), str(feat_path))
        out_path = tmp_path / "out.mspt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys,
                ["msp-apply", "--image", str(img_path), "--features", str(feat_path),
                 "--scales", scales, "--alpha", "0.1", "-o", str(out_path)],
            )
        assert code == 1
        assert "overflows the float32 output" in err
        assert not out_path.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestRefine:
    def test_block_constant_one_hot_keeps_argmax(self, capsys, tmp_path):
        img = np.zeros((16, 16, 3), np.uint8)
        img[:, :8] = (250, 30, 20)
        img[:, 8:] = (20, 40, 245)
        img_path = tmp_path / "img.ppm"
        write_ppm(img, str(img_path))
        probs = np.zeros((2, 16, 16), dtype=np.float32)
        probs[0, :, :8] = 1.0
        probs[1, :, 8:] = 1.0
        probs_path = tmp_path / "probs.mspt"
        write_mspt(probs, str(probs_path))
        out_path = tmp_path / "labels.mspt"
        code, _, _ = run(
            capsys,
            ["refine", "--image", str(img_path), "--probs", str(probs_path),
             "--scales", "2,4", "-o", str(out_path)],
        )
        assert code == 0
        labels = read_mspt(str(out_path))
        assert labels.dtype == np.uint32
        assert np.array_equal(labels, np.argmax(probs, axis=0).astype(np.uint32))

    def test_alpha_zero_plain_argmax(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (8, 8, 3)).astype(np.uint8)
        img_path = tmp_path / "img.ppm"
        write_ppm(img, str(img_path))
        probs = rng.uniform(0, 1, (3, 8, 8)).astype(np.float32)
        probs_path = tmp_path / "probs.mspt"
        write_mspt(probs, str(probs_path))
        out_path = tmp_path / "labels.mspt"
        code, _, _ = run(
            capsys,
            ["refine", "--image", str(img_path), "--probs", str(probs_path),
             "--scales", "4", "--alpha", "0", "-o", str(out_path)],
        )
        assert code == 0
        assert np.array_equal(
            read_mspt(str(out_path)), np.argmax(probs, axis=0).astype(np.uint32)
        )


    def test_nan_probs_exit_1(self, capsys, tmp_path, tiny_ppm):
        probs = np.full((2, 2, 2), 0.5, dtype=np.float32)
        probs[1, 1, 1] = np.nan
        probs_path = tmp_path / "probs.mspt"
        write_mspt(probs, str(probs_path))
        out_path = tmp_path / "labels.mspt"
        code, _, err = run(
            capsys,
            ["refine", "--image", tiny_ppm, "--probs", str(probs_path),
             "--scales", "1", "-o", str(out_path)],
        )
        assert code == 1
        assert "finite" in err
        assert not out_path.exists()


class TestKnobValidation:
    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--algo", "slic", "--lambda", "8", "--compactness", "nan"], "compactness"),
            (["--algo", "slic", "--lambda", "8", "--compactness", "inf"], "compactness"),
            (["--algo", "quickshift", "--sigma", "inf"], "sigma"),
            (["--algo", "quickshift", "--sigma", "nan"], "sigma"),
            (["--algo", "quickshift", "--tau", "-10"], "tau"),
            (["--algo", "quickshift", "--tau", "nan"], "tau"),
            (["--algo", "quickshift", "--sigma", "1e200"], "sigma"),
            (["--algo", "quickshift", "--sigma", "1e-200"], "sigma"),
            (["--algo", "quickshift", "--sigma", "1e-160"], "sigma"),
        ],
    )
    def test_superpixel_bad_knob_exits_1(
        self, capsys, tmp_path, uniform_ppm, flags, name
    ):
        out_path = tmp_path / "x.mspt"
        code, _, err = run(
            capsys, ["superpixel", *flags, uniform_ppm, "-o", str(out_path)]
        )
        assert code == 1
        assert name in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, alpha, scales",
        [
            ("msp-apply", "nan", "1"),
            ("msp-apply", "inf", "1,2"),
            ("refine", "nan", "1,2"),
            ("refine", "inf", "1"),
        ],
    )
    def test_non_finite_alpha_exits_1(
        self, capsys, tmp_path, tiny_ppm, command, alpha, scales
    ):
        in_path = tmp_path / "in.mspt"
        write_mspt(X22, str(in_path))
        out_path = tmp_path / "out.mspt"
        data_flag = "--features" if command == "msp-apply" else "--probs"
        code, _, err = run(
            capsys,
            [command, "--image", tiny_ppm, data_flag, str(in_path),
             "--scales", scales, "--alpha", alpha, "-o", str(out_path)],
        )
        assert code == 1
        assert "alpha" in err
        assert not out_path.exists()


def flag_scene():
    """A noisy 24x24 four-quadrant image and a 12x12 feature map on which
    every knob below changes the cascade output."""
    rng = np.random.default_rng(4)
    yy, xx = np.mgrid[:24, :24]
    img = np.zeros((24, 24, 3))
    img[..., 0] = np.where(xx < 12, 200, 40)
    img[..., 1] = np.where(yy < 12, 180, 60)
    img[..., 2] = 100 + 3 * xx
    img = np.clip(img + rng.normal(0, 12, img.shape), 0, 255).astype(np.uint8)
    return img, rng.normal(size=(2, 12, 12)).astype(np.float32)


class TestSegmenterFlags:
    @pytest.mark.parametrize(
        "flags, segmenter",
        [
            (["--algo", "quickshift", "--sigma", "3", "--tau", "7", "--ratio", "0.4"],
             QuickShiftParams(sigma=3.0, tau=7.0, color_ratio=0.4)),
            (["--algo", "slic", "--compactness", "20"],
             SlicParams(num_superpixels=16, compactness=20.0)),
        ],
    )
    def test_msp_apply_flags_reach_the_segmenter(
        self, capsys, tmp_path, flags, segmenter
    ):
        image, features = flag_scene()
        write_ppm(image, str(tmp_path / "img.ppm"))
        write_mspt(features, str(tmp_path / "feat.mspt"))
        out_path = tmp_path / "out.mspt"
        code, _, _ = run(
            capsys,
            ["msp-apply", *flags, "--image", str(tmp_path / "img.ppm"),
             "--features", str(tmp_path / "feat.mspt"), "--scales", "8,16",
             "--alpha", "0.5", "-o", str(out_path)],
        )
        assert code == 0
        config = MspConfig(alpha=0.5, scales=(8, 16), segmenter=segmenter)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # Quick Shift may miss a scale
            want, _ = cascade_forward(features, image, config)
            assert np.array_equal(read_mspt(str(out_path)), want)
            # Each knob set above matters here: its default gives another output.
            for f in fields(segmenter):
                value = getattr(segmenter, f.name)
                if f.name == "num_superpixels" or value == f.default:
                    continue
                knob_default = replace(segmenter, **{f.name: f.default})
                other, _ = cascade_forward(
                    features, image, replace(config, segmenter=knob_default)
                )
                assert not np.array_equal(other, want), f.name


class TestMetrics:
    def write_labels(self, tmp_path, name, arr):
        path = tmp_path / name
        write_mspt(np.asarray(arr, dtype=np.uint32), str(path))
        return str(path)

    def test_identical_maps(self, capsys, tmp_path):
        m = [[0, 1], [1, 0]]
        pred = self.write_labels(tmp_path, "pred.mspt", m)
        gt = self.write_labels(tmp_path, "gt.mspt", m)
        code, out, _ = run(capsys, ["metrics", "--pred", pred, "--gt", gt,
                                    "--classes", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["miou"] == 1.0
        assert report["boundary_fscore"] == 1.0

    def test_1x4_fixture(self, capsys, tmp_path):
        pred = self.write_labels(tmp_path, "pred.mspt", [[0, 0, 1, 1]])
        gt = self.write_labels(tmp_path, "gt.mspt", [[0, 1, 1, 1]])
        # No uint32 label equals -1, so --ignore -1 ignores nothing, as 255 does here.
        for ignore in ([], ["--ignore", "-1"]):
            code, out, _ = run(capsys, ["metrics", "--pred", pred, "--gt", gt,
                                        "--classes", "2", *ignore])
            assert code == 0
            assert abs(json.loads(out)["miou"] - 7.0 / 12.0) <= 1e-9

    def test_boundary_tolerance_sweep(self, capsys, tmp_path):
        base = (np.arange(8)[None, :] >= 4) * np.ones((8, 1), dtype=int)
        shifted = (np.arange(8)[None, :] >= 6) * np.ones((8, 1), dtype=int)
        pred = self.write_labels(tmp_path, "pred.mspt", shifted)
        gt = self.write_labels(tmp_path, "gt.mspt", base)
        code, out, _ = run(capsys, ["metrics", "--pred", pred, "--gt", gt,
                                    "--classes", "2", "--boundary-tol", "0"])
        assert json.loads(out)["boundary_fscore"] == 0.0
        code, out, _ = run(capsys, ["metrics", "--pred", pred, "--gt", gt,
                                    "--classes", "2", "--boundary-tol", "2"])
        assert json.loads(out)["boundary_fscore"] == 1.0

    def test_huge_boundary_tolerance_scores_like_image_size(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        pred = self.write_labels(tmp_path, "pred.mspt", rng.integers(0, 3, (6, 11)))
        gt = self.write_labels(tmp_path, "gt.mspt", rng.integers(0, 3, (6, 11)))
        outs = []
        for tol in ("11", str(10**30)):
            code, out, _ = run(capsys, ["metrics", "--pred", pred, "--gt", gt,
                                        "--classes", "3", "--boundary-tol", tol])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_many_classes_on_a_tiny_map(self, capsys, tmp_path):
        m = [[0, 1], [99999, 1]]
        pred = self.write_labels(tmp_path, "pred.mspt", m)
        gt = self.write_labels(tmp_path, "gt.mspt", m)
        code, out, _ = run(capsys, ["metrics", "--pred", pred, "--gt", gt,
                                    "--classes", "100000"])
        assert code == 0
        report = json.loads(out)
        assert len(report["per_class_iou"]) == 100000
        assert report["miou"] == 1.0

    def test_class_count_past_memory_exits_1(self, capsys, tmp_path):
        m = np.zeros((8, 8), dtype=np.int64)
        pred = self.write_labels(tmp_path, "pred.mspt", m)
        gt = self.write_labels(tmp_path, "gt.mspt", m)
        code, out, err = run(capsys, ["metrics", "--pred", pred, "--gt", gt,
                                      "--classes", "1000000000000"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_malformed_mspt_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.mspt"
        bad.write_bytes(b"not a tensor")
        gt = self.write_labels(tmp_path, "gt.mspt", [[0, 1]])
        code, _, _ = run(capsys, ["metrics", "--pred", str(bad), "--gt", gt,
                                  "--classes", "2"])
        assert code == 2

    def test_mspt_dims_overflowing_int64_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "huge.mspt"
        dims = (2**31, 2**31, 4, 1)
        bad.write_bytes(b"MSPT\x01\x01\x04" + b"".join(
            d.to_bytes(4, "little") for d in dims))
        gt = self.write_labels(tmp_path, "gt.mspt", [[0, 1]])
        code, _, err = run(capsys, ["metrics", "--pred", str(bad), "--gt", gt,
                                    "--classes", "2"])
        assert code == 2
        assert "payload" in err


class TestSpxEval:
    def test_nested_partition_ue_zero(self, capsys, tmp_path):
        gt = np.zeros((8, 8), dtype=np.uint32)
        gt[:, 4:] = 1
        labels = np.zeros((8, 8), dtype=np.uint32)
        labels[:4, :4] = 0
        labels[:4, 4:] = 1
        labels[4:, :4] = 2
        labels[4:, 4:] = 3
        lp, gp = tmp_path / "l.mspt", tmp_path / "g.mspt"
        write_mspt(labels, str(lp))
        write_mspt(gt, str(gp))
        code, out, _ = run(capsys, ["spx-eval", "--labels", str(lp), "--gt", str(gp)])
        assert code == 0
        report = json.loads(out)
        assert report["undersegmentation_error"] == 0.0
        assert report["num_blocks"] == 4

    def test_single_block_recall_zero(self, capsys, tmp_path):
        gt = np.zeros((8, 8), dtype=np.uint32)
        gt[:, 4:] = 1
        labels = np.zeros((8, 8), dtype=np.uint32)
        lp, gp = tmp_path / "l.mspt", tmp_path / "g.mspt"
        write_mspt(labels, str(lp))
        write_mspt(gt, str(gp))
        code, out, _ = run(capsys, ["spx-eval", "--labels", str(lp), "--gt", str(gp)])
        assert code == 0
        assert json.loads(out)["boundary_recall"] == 0.0

    def test_huge_tolerance_scores_like_image_size(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        lp, gp = tmp_path / "l.mspt", tmp_path / "g.mspt"
        write_mspt(rng.integers(0, 4, (9, 5)).astype(np.uint32), str(lp))
        write_mspt(rng.integers(0, 2, (9, 5)).astype(np.uint32), str(gp))
        outs = []
        for tol in ("9", str(10**30)):
            code, out, _ = run(capsys, ["spx-eval", "--labels", str(lp),
                                        "--gt", str(gp), "--tol", tol])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_negative_tolerance_exits_1(self, capsys, tmp_path):
        gt = np.zeros((8, 8), dtype=np.uint32)
        gt[:, 4:] = 1
        lp, gp = tmp_path / "l.mspt", tmp_path / "g.mspt"
        write_mspt(gt, str(lp))
        write_mspt(gt, str(gp))
        code, out, err = run(capsys, ["spx-eval", "--labels", str(lp),
                                      "--gt", str(gp), "--tol", "-1"])
        assert code == 1
        assert out == ""
        assert "tolerance_px" in err


class TestGradcheck:
    def test_default_fixture_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["gradcheck", "--channels", "3", "--height", "8", "--width", "8",
             "--blocks", "4", "--seed", "0"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["max_rel_err"] <= 1e-4

    def test_alpha_zero_error_exactly_zero(self, capsys):
        code, out, _ = run(
            capsys,
            ["gradcheck", "--channels", "2", "--height", "6", "--width", "6",
             "--blocks", "4", "--seed", "1", "--alpha", "0"],
        )
        assert code == 0
        assert json.loads(out)["max_rel_err"] == 0.0

    def test_single_block_adjoint_tiny(self, capsys):
        code, out, _ = run(
            capsys,
            ["gradcheck", "--channels", "2", "--height", "6", "--width", "6",
             "--blocks", "1", "--seed", "2"],
        )
        assert code == 0
        assert json.loads(out)["adjoint_err"] <= 1e-6

    def test_failed_check_exits_3(self, capsys, monkeypatch):
        from spxkit import cli

        failed = {"pass": False, "max_rel_err": 0.5, "adjoint_err": 0.25}
        monkeypatch.setattr(cli, "gradient_check", lambda **kwargs: failed)
        code, out, err = run(
            capsys,
            ["gradcheck", "--channels", "1", "--height", "4", "--width", "4",
             "--blocks", "2", "--seed", "0"],
        )
        assert code == 3
        assert json.loads(out) == failed
        assert err == ("algorithm error: gradient check failed: "
                       "max_rel_err=5.000e-01, adjoint_err=2.500e-01\n")

    def test_blocks_above_pixel_count_exit_1(self, capsys):
        code, _, _ = run(
            capsys,
            ["gradcheck", "--channels", "1", "--height", "3", "--width", "3",
             "--blocks", "10", "--seed", "0"],
        )
        assert code == 1


def test_module_invocation_smoke():
    result = run_python("-m", "spxkit", "gradcheck", "--channels", "1",
                        "--height", "4", "--width", "4", "--blocks", "2", "--seed", "0")
    assert result.returncode == 0
    assert json.loads(result.stdout)["pass"] is True


def test_gradcheck_huge_stage_count_exits_1_at_once():
    result = run_python("-m", "spxkit", "gradcheck", "--channels", "1", "--height", "2",
                        "--width", "2", "--blocks", "1", "--seed", "0", "--scales", str(2**62),
                        timeout=10)
    assert result.returncode == 1
    assert result.stderr.startswith("error: --scales must be an integer in [1, 4]")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gradcheck", "--channels", "1", "--height", "2", "--width", "2", "--blocks", "1",
          "--seed", "0", "--scales", "5"], "--scales"),
        (["msp-apply", "--image", "{img}", "--features", "{map}", "--scales", "0",
          "-o", "{out}"], "--scales"),
        # SLIC makes at most one block per pixel: 16 here.
        (["msp-apply", "--image", "{img}", "--features", "{map}", "--scales", "4,17",
          "-o", "{out}"], "--scales"),
        (["refine", "--image", "{img}", "--probs", "{map}", "--scales", "0",
          "-o", "{out}"], "--scales"),
        (["superpixel", "--algo", "slic", "--lambda", "0", "{img}", "-o", "{out}"],
         "--lambda"),
        (["superpixel", "--algo", "quickshift", "--lambda", "0", "{img}", "-o", "{out}"],
         "--lambda"),
        (["superpixel", "--algo", "slic", "--lambda", "17", "{img}", "-o", "{out}"],
         "--lambda"),
        (["metrics", "--pred", "{labels}", "--gt", "{labels}", "--classes", "0"],
         "--classes"),
        (["metrics", "--pred", "{labels}", "--gt", "{labels}", "--classes", "2",
          "--boundary-tol", "-1"], "--boundary-tol"),
        (["spx-eval", "--labels", "{labels}", "--gt", "{labels}", "--tol", "-1"], "--tol"),
        # Past int64, and more blocks than the 3 x 3 grid's pixels.
        (["metrics", "--pred", "{labels}", "--gt", "{labels}", "--classes",
          "10000000000000000000"], "--classes"),
        (["gradcheck", "--channels", "1", "--height", "3", "--width", "3", "--blocks", "10",
          "--seed", "0"], "--blocks"),
    ],
)
def test_count_error_names_the_flag_typed(capsys, tmp_path, argv, flag):
    paths = {name: str(tmp_path / name) for name in ("img", "map", "labels", "out")}
    write_ppm(np.full((4, 4, 3), 90, np.uint8), paths["img"])
    write_mspt(np.full((2, 4, 4), 0.5, np.float32), paths["map"])
    write_mspt(np.eye(4, dtype=np.uint32), paths["labels"])
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 1
    assert out == ""
    # The last line is the error; argparse's usage line above it lists every flag.
    assert flag in err.splitlines()[-1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, code, err_start",
    [
        # compactness^2 overflows: refused up front, not a traceback.
        (["--algo", "slic", "--lambda", "9", "--compactness", "1e160"], 1, "error: compactness"),
        # compactness^2 underflows to a spatial weight of 0.
        (["--algo", "slic", "--lambda", "9", "--compactness", "1e-170"], 0, ""),
        # d2 * (-1 / (2 sigma^2)) overflows to -inf in the density sum.
        (["--algo", "quickshift", "--sigma", "1e-154", "--tau", "3", "--lambda", "2"], 0, ""),
    ],
)
def test_extreme_knobs_leave_stderr_clean(tmp_path, flags, code, err_start):
    rng = np.random.default_rng(3)
    img_path = tmp_path / "img.ppm"
    write_ppm(rng.integers(0, 256, (24, 24, 3)).astype(np.uint8), str(img_path))
    result = run_python("-W", "error::RuntimeWarning", "-m", "spxkit", "superpixel",
                        *flags, img_path, "-o", tmp_path / "x.mspt")
    assert result.returncode == code
    assert result.stderr.startswith(err_start)
    assert "Traceback" not in result.stderr
    assert "RuntimeWarning" not in result.stderr
    assert (tmp_path / "x.mspt").exists() == (code == 0)


def test_determinism_same_invocation_same_bytes(capsys, tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (24, 24, 3)).astype(np.uint8)
    img_path = tmp_path / "img.ppm"
    write_ppm(img, str(img_path))
    outs = []
    for name in ("a.mspt", "b.mspt"):
        out_path = tmp_path / name
        code = main(["superpixel", "--lambda", "6", str(img_path),
                     "-o", str(out_path)])
        capsys.readouterr()
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_parser_is_built_once_per_process(monkeypatch, capsys, tmp_path):
    from spxkit import cli

    builds = []

    def counting_build():
        builds.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    gradcheck = ["gradcheck", "--channels", "1", "--height", "4", "--width", "4",
                 "--blocks", "2", "--seed", "0"]
    for argv in (gradcheck, ["--help"], ["metrics", "--classes", "x"], gradcheck):
        main(argv)
    capsys.readouterr()
    assert len(builds) == 1


def test_reused_parser_answers_as_a_fresh_process(monkeypatch, capsys):
    from spxkit import cli

    # Help text wraps at the terminal width, so pin it on both sides.
    monkeypatch.setenv("COLUMNS", "80")

    def fresh(argv):
        result = run_python("-m", "spxkit", *argv)
        return result.returncode, result.stdout, result.stderr

    bad = ["superpixel", "--lambda", "many", "in.ppm", "-o", "out.mspt"]
    good = ["gradcheck", "--channels", "1", "--height", "4", "--width", "4",
            "--blocks", "2", "--seed", "0"]
    want = {name: fresh(argv) for name, argv in
            (("bad", bad), ("help", ["--help"]), ("good", good))}
    assert want["bad"][0] == 1 and want["bad"][2].startswith("usage: spxkit superpixel")
    assert want["help"][0] == 0 and want["help"][1].startswith("usage: spxkit")
    assert want["good"][0] == 0

    monkeypatch.setattr(cli, "_parser", None)
    for name, argv in (("bad", bad), ("good", good), ("help", ["--help"]), ("good", good)):
        assert run(capsys, argv) == want[name], name
