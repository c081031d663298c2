"""A grammar fuzz of the CLI, called in-process through ``cli.main``.

Every subcommand is run with knob values drawn from the extremes (0,
negatives, 1e+-300, 5e-324, NaN, +-inf, 20-digit integers) and with
damaged files (empty, truncated, 0x0, maxval 65535, mismatched shapes).
Every call must return an exit code from 0 to 3 with no exception
escaping; a RuntimeWarning fails the test through pytest's filter, and
the library's UserWarnings are expected and silenced.

Images are at most 16x16, every count that sizes an allocation
(``--lambda``, ``--scales``, ``--classes``, the gradcheck sizes) is at
most 64 or at least 2^62, which numpy refuses at once, and gradcheck's
sizes and stage count are at most 4 when usable, so each call stays
small.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spxkit import write_mspt, write_pgm, write_ppm
from spxkit.cli import main

# Each knob draws a usable value or an extreme one, each half the time.
FLOATS = (["0.5", "3", "10"],
          ["0", "-0", "-1", "-1e300", "1e300", "1e-300", "5e-324", "nan", "inf", "-inf"])
HUGE = [str(2**62), str(2**63), "12345678901234567890", "-12345678901234567890"]
COUNTS = (["2", "4", "16"], ["0", "-1", "1", "3", "64", *HUGE])
SIZES = (["1", "2", "3", "4"], ["0", "-1", *HUGE])  # gradcheck sizes
STAGES = (["1", "2", "3", "4"], ["0", "-1", *HUGE])


def either(values):
    usable, extreme = values
    return st.sampled_from(usable) | st.sampled_from(extreme)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input paths by kind, and the output paths a call may write."""
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)

    def path(name, data=None):
        p = d / name
        if data is not None:
            p.write_bytes(data)
        return str(p)

    write_ppm(rng.integers(0, 256, (16, 16, 3)).astype(np.uint8), path("img.ppm"))
    write_ppm(rng.integers(0, 256, (8, 8, 3)).astype(np.uint8), path("img8.ppm"))
    write_pgm(rng.integers(0, 256, (16, 16)).astype(np.uint8), path("gray.pgm"))
    whole = (d / "img.ppm").read_bytes()
    gt = (np.arange(256).reshape(16, 16) // 70).astype(np.uint32)
    gt[0, :4] = 255
    write_mspt(gt, path("gt.mspt"))
    write_mspt(gt[::-1] % 255, path("pred.mspt"))
    write_mspt(gt[:8, :8] % 255, path("pred8.mspt"))
    write_mspt(rng.integers(0, 2**32, (16, 16), dtype=np.uint64).astype(np.uint32),
               path("biglabel.mspt"))
    write_mspt(np.zeros(16, np.uint32), path("flat.mspt"))
    probs = rng.dirichlet(np.ones(3), (16, 16)).transpose(2, 0, 1).astype(np.float32)
    write_mspt(probs, path("probs.mspt"))
    write_mspt(probs[:, :8, :8].copy(), path("probs8.mspt"))
    write_mspt(np.full((2, 16, 16), np.finfo(np.float32).max), path("f32max.mspt"))
    nan = probs.copy()
    nan[0, 3, 3] = np.nan
    write_mspt(nan, path("nan.mspt"))
    # The first path of each kind is a usable file, drawn half the time.
    inputs = {
        "image": [path("img.ppm"), path("img8.ppm"), path("gray.pgm"), path("empty", b""),
                  path("cut.ppm", whole[: len(whole) // 2]),
                  path("zero.ppm", b"P6\n0 0\n255\n"),
                  path("deep.ppm", b"P6\n2 2\n65535\n" + bytes(24))],
        "gt": [path("gt.mspt"), path("pred8.mspt"), path("biglabel.mspt"), path("flat.mspt"),
               path("probs.mspt"), path("cut.mspt", (d / "gt.mspt").read_bytes()[:30]),
               path("empty")],
        "tensor": [path("probs.mspt"), path("probs8.mspt"), path("f32max.mspt"),
                   path("nan.mspt"), path("gt.mspt"), path("cut.mspt"), path("empty")],
    }
    inputs["pred"] = [path("pred.mspt"), *inputs["gt"]]
    for kind in inputs:
        inputs[kind] += [str(d / "missing"), str(d)]  # no such file; a directory
        inputs[kind] = ([inputs[kind][0]], inputs[kind][1:])
    outputs = [str(d / "out"), str(d), str(d / "missing" / "out")]
    return inputs, outputs


def flags(names, values):
    """Any subset of the optional ``names``, each with a value drawn by ``either``."""
    return st.lists(
        st.tuples(st.sampled_from(names), either(values)), max_size=len(names)
    ).map(lambda pairs: [tok for pair in pairs for tok in pair])


@st.composite
def argv(draw, files):
    inputs, outputs = files
    pick = lambda kind: draw(either(inputs[kind]))  # noqa: E731
    out = draw(st.sampled_from(outputs))
    segmenter = [*draw(st.sampled_from([[], ["--algo", "slic"], ["--algo", "quickshift"]])),
                 *draw(flags(["--compactness", "--sigma", "--tau", "--ratio"], FLOATS))]
    command = draw(st.sampled_from(
        ["superpixel", "msp-apply", "refine", "metrics", "spx-eval", "gradcheck"]))
    if command == "superpixel":
        vis = draw(st.sampled_from(
            [[], ["--vis", out + ".ppm"], ["--vis", out + ".ppm", "--vis-mode", "mean-color"]]))
        return [command, *segmenter, *draw(flags(["--lambda"], COUNTS)), *vis,
                pick("image"), "-o", out]
    if command in ("msp-apply", "refine"):
        tensor = "--features" if command == "msp-apply" else "--probs"
        scales = draw(st.sampled_from(["2,4", "4,16"])
                      | st.lists(either(COUNTS), min_size=1, max_size=3).map(",".join)
                      | st.sampled_from(["", "a", "2,,4", "4,2"]))
        return [command, *segmenter, "--image", pick("image"), tensor, pick("tensor"),
                "--scales", scales, *draw(flags(["--alpha"], FLOATS)), "-o", out]
    if command == "metrics":
        return [command, "--pred", pick("pred"), "--gt", pick("gt"),
                "--classes", draw(either(COUNTS)),
                *draw(flags(["--ignore", "--boundary-tol"], COUNTS))]
    if command == "spx-eval":
        return [command, "--labels", pick("pred"), "--gt", pick("gt"),
                *draw(flags(["--tol"], COUNTS))]
    sizes = [tok for name in ("--channels", "--height", "--width", "--blocks")
             for tok in (name, draw(either(SIZES)))]
    return [command, *sizes, "--seed", draw(either(COUNTS)),
            *draw(flags(["--alpha"], FLOATS)), *draw(flags(["--scales"], STAGES))]


def test_cli_grammar_fuzz(files):
    @settings(max_examples=400, deadline=None, database=None)
    @given(args=argv(files))
    def run(args):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # tau <= sigma, a missed target
            code = main(args)
        assert code in (0, 1, 2, 3), args

    run()
