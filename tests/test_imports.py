"""Which scipy modules each CLI path loads, read in a fresh interpreter.

scipy.ndimage and scipy.sparse make up most of a CLI call's start-up, so
spxkit imports each one only in the call that needs it: SLIC labelling
needs ndimage, a block-mean plan needs sparse, and the metrics, the
scoring, Quick Shift and the overlays need neither.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spxkit import write_mspt, write_ppm

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Runs one CLI call (or none) and prints the scipy modules it left loaded.
PROBE = """
import json, sys
import spxkit
from spxkit.cli import main
argv = json.loads(sys.argv[1])
rc = main(argv) if argv else 0
mods = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"rc": rc, "scipy": mods}))
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("imports")
    rng = np.random.default_rng(0)
    write_ppm(rng.integers(0, 256, (16, 16, 3)).astype(np.uint8), str(d / "img.ppm"))
    labels = np.zeros((16, 16), dtype=np.uint32)
    labels[:, 8:] = 1
    write_mspt(labels, str(d / "gt.mspt"))
    write_mspt(labels[::-1].T.copy(), str(d / "pred.mspt"))
    write_mspt(rng.uniform(0, 1, (2, 16, 16)).astype(np.float32), str(d / "probs.mspt"))
    return d


def scipy_loaded(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["rc"] == 0, result.stderr
    return set(report["scipy"])


def cli_paths(d):
    img, gt, pred, probs = (
        str(d / n) for n in ("img.ppm", "gt.mspt", "pred.mspt", "probs.mspt")
    )
    qs = ["--algo", "quickshift"]
    return {
        "import": [],
        "metrics": ["metrics", "--pred", pred, "--gt", gt, "--classes", "2"],
        "spx-eval": ["spx-eval", "--labels", pred, "--gt", gt],
        "superpixel-quickshift": ["superpixel", *qs, "--lambda", "4", img,
                                  "-o", str(d / "qs.mspt")],
        "superpixel-mean-color": ["superpixel", *qs, "--lambda", "4", img,
                                  "-o", str(d / "qs.mspt"), "--vis", str(d / "vis.ppm"),
                                  "--vis-mode", "mean-color"],
        "superpixel-slic": ["superpixel", "--algo", "slic", "--lambda", "4", img,
                            "-o", str(d / "slic.mspt")],
        "refine-quickshift": ["refine", *qs, "--image", img, "--probs", probs,
                              "--scales", "2,4", "-o", str(d / "refined.mspt")],
        "msp-apply-quickshift": ["msp-apply", *qs, "--image", img, "--features", probs,
                                 "--scales", "2,4", "-o", str(d / "smoothed.mspt")],
    }


@pytest.mark.parametrize(
    "path", ["import", "metrics", "spx-eval", "superpixel-quickshift", "superpixel-mean-color"]
)
def test_path_loads_no_scipy(files, path):
    assert scipy_loaded(cli_paths(files)[path]) == set()


def test_slic_loads_ndimage_but_not_sparse(files):
    mods = scipy_loaded(cli_paths(files)["superpixel-slic"])
    assert "scipy.ndimage" in mods
    assert "scipy.sparse" not in mods


@pytest.mark.parametrize("path", ["refine-quickshift", "msp-apply-quickshift"])
def test_message_passing_loads_sparse_but_not_ndimage(files, path):
    mods = scipy_loaded(cli_paths(files)[path])
    assert "scipy.sparse" in mods
    assert "scipy.ndimage" not in mods
