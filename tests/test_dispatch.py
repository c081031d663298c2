"""Labels and outputs do not depend on what a machine picks at process start.

Each row of ``ROWS`` reruns a small fixed corpus in a child process that
changes one process-level setting, and compares the child's digests with
this process's. The corpus hashes only what spxkit returns to a user:
label maps and message-passing outputs.

- numpy picks a SIMD code path for some ufuncs at import time (``np.exp``
  in the Quick Shift density, ``np.cbrt`` and ``np.power`` in the Lab
  conversion), and the paths may round differently. One child disables
  the AVX-512 group of numpy's dispatch targets through
  ``NPY_DISABLE_CPU_FEATURES``; its Lab floats may differ from this
  process's.
- numpy picks an OpenBLAS kernel for the CPU at load time, and the
  kernels may round a matrix product differently. spxkit calls no BLAS
  routine, so a child with ``OPENBLAS_CORETYPE=Sandybridge`` must match
  this process on the Lab floats themselves too.
- msgpass runs 2 or more jobs of at least ``_THREAD_MIN_PIXELS`` pixels
  each on two threads when the process may use 2 or more CPUs. A child
  started with ``--one-cpu`` pins itself to one CPU before it computes
  the corpus, so on the corpus entries above the thread floor it takes
  the one-thread paths where this process takes the two-thread ones.

Run as a script, this file prints the child's JSON report.
"""

import hashlib
import json
import os
import sys
import warnings

import numpy as np
import pytest

from spxkit import (
    MspConfig,
    QuickShiftParams,
    SlicParams,
    cascade_apply,
    cascade_forward,
    random_partition,
    refine_probabilities,
    slic_segment,
    srgb_to_lab,
)
from spxkit.msgpass import _THREAD_MIN_PIXELS, _usable_cpus
from spxkit.quickshift import _segment_sigmas

from _child import run_python

# Image sides of the corpus entries above the thread floor: three SLIC
# scales of a cascade, and eight channels of a map over three partitions.
SLIC_SIDE, APPLY_SIDE = 256, 192


def _cpu_features() -> tuple[dict, list]:
    try:  # numpy >= 2
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_features__, list(umath.__cpu_dispatch__)


def avx512_group() -> list[str]:
    """numpy's AVX-512 dispatch targets (X86_V4 and AVX512_* in numpy 2,
    AVX512F and AVX512_* in numpy 1) that this CPU runs."""
    features, dispatch = _cpu_features()
    return [name for name in dispatch
            if ("AVX512" in name or name == "X86_V4") and features.get(name)]


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(str(arr.dtype).encode() + arr.tobytes()).hexdigest()


def _voronoi(seed: int, size: int, regions: int, noise: float) -> np.ndarray:
    """A (size, size, 3) uint8 scene of Voronoi regions with colour ramps."""
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0, size, (regions, 2))
    base = rng.uniform(40.0, 215.0, (regions, 3))
    slope = rng.uniform(-2.0, 2.0, (regions, 3, 2))
    yy, xx = np.mgrid[:size, :size].astype(np.float64)
    region = np.argmin((yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2,
                       axis=2)
    img = (base[region] + slope[region, :, 0] * (yy - sites[region, 0])[..., None]
           + slope[region, :, 1] * (xx - sites[region, 1])[..., None])
    img += rng.normal(0.0, noise, img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _tie_fixture(seed: int, colours: int, cell: int) -> np.ndarray:
    """A 24x24 image of ``colours`` colours in cell x cell blocks."""
    rng = np.random.default_rng(seed)
    palette = rng.integers(0, 256, (colours, 3))
    coarse = palette[rng.integers(0, colours, (-(-24 // cell),) * 2)]
    return np.repeat(np.repeat(coarse, cell, axis=0), cell, axis=1)[:24, :24].astype(np.uint8)


def corpus_digests() -> dict[str, str]:
    """Digests of every label map and output of the fixed corpus."""
    out = {}
    ladder = [5.0 * 0.8**k for k in range(8)]
    for seed, colours, cell in [(1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 2, 4)]:
        lab = srgb_to_lab(_tie_fixture(seed, colours, cell))
        for tau in (3.0, 10.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # tau <= sigma is allowed here
                params = QuickShiftParams(sigma=ladder[0], tau=tau)
            for sigma, part in zip(ladder, _segment_sigmas(lab, params, ladder)):
                out[f"quickshift/tie{seed}/tau{tau:g}/sigma{sigma:.4f}"] = _digest(part.labels)

    for name, noise, blocks in [("smooth", 0.0, 30), ("noisy", 4.0, 40)]:
        image = _voronoi(5, 48, 6, noise)
        part = slic_segment(srgb_to_lab(image), SlicParams(num_superpixels=blocks))
        out[f"slic/{name}"] = _digest(part.labels)

    image = _voronoi(6, 48, 6, 0.0)
    features = np.random.default_rng(7).standard_normal((4, 12, 12), dtype=np.float32)
    msp, trace = cascade_forward(features, image, MspConfig(alpha=0.1, scales=(20, 30, 40)))
    out["msp/slic/output"] = _digest(msp)
    for scale, part in trace.stages:
        out[f"msp/slic/scale{scale}"] = _digest(part.labels)

    image = _voronoi(8, 24, 4, 0.0)
    probs = np.random.default_rng(9).dirichlet(np.ones(5), (6, 6)).transpose(2, 0, 1)
    config = MspConfig(alpha=0.1, scales=(10, 20, 40), segmenter=QuickShiftParams())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a scale may miss its block target
        out["refine/quickshift"] = _digest(refine_probabilities(probs, image, config))

    image = _voronoi(11, SLIC_SIDE, 12, 4.0)
    features = np.random.default_rng(12).standard_normal((4, 32, 32), dtype=np.float32)
    msp, trace = cascade_forward(features, image, MspConfig(alpha=0.1, scales=(200, 300, 400)))
    out["msp/slic256/output"] = _digest(msp)
    for scale, part in trace.stages:
        out[f"msp/slic256/scale{scale}"] = _digest(part.labels)

    rng = np.random.default_rng(13)
    partitions = [random_partition(APPLY_SIDE, APPLY_SIDE, k, rng) for k in (200, 300, 400)]
    features = rng.standard_normal((8, APPLY_SIDE, APPLY_SIDE), dtype=np.float32)
    out["apply/random192"] = _digest(cascade_apply(features, partitions, 0.1))
    return out


def lab_digest() -> str:
    """Digest of the Lab floats of a seeded 256x256 random image."""
    image = np.random.default_rng(10).integers(0, 256, (256, 256, 3), dtype=np.uint8)
    return _digest(srgb_to_lab(image))


def numpy_blas() -> str | None:
    """The BLAS that numpy names in its build configuration, if it can say."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        return None
    return str(config["Build Dependencies"]["blas"])


# One row per setting: the child's environment (over this process's) and
# arguments, what the child must report about itself, and whether its Lab
# floats must equal this process's too. A row skips, with the reason,
# where this machine cannot express its setting.
_AVX512, _BLAS = avx512_group(), numpy_blas()
ROWS = [
    pytest.param(
        {"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)}, [], {"enabled": []}, False,
        id="avx512-off",
        marks=pytest.mark.skipif(
            not _AVX512,
            reason="this CPU or numpy build has no AVX-512 dispatch target, "
                   "so NPY_DISABLE_CPU_FEATURES would disable nothing"),
    ),
    pytest.param(
        {"OPENBLAS_CORETYPE": "Sandybridge"}, [], {}, True, id="openblas-sandybridge",
        marks=pytest.mark.skipif(
            "openblas" not in str(_BLAS).lower(),
            reason=f"numpy names no OpenBLAS ({_BLAS}), so OPENBLAS_CORETYPE "
                   "would select nothing"),
    ),
    pytest.param(
        {}, ["--one-cpu"], {"cpus": 1}, False, id="one-cpu",
        marks=[
            pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                               reason="this platform has no os.sched_setaffinity"),
            pytest.mark.skipif(_usable_cpus() < 2,
                               reason="this process may use only one CPU, so it "
                                      "takes the one-thread paths itself"),
        ],
    ),
]


@pytest.fixture(scope="module")
def want() -> dict[str, str]:
    """This process's corpus digests, computed once for every row."""
    return corpus_digests()


@pytest.mark.parametrize("env, args, expect, lab", ROWS)
def test_child_process_gives_the_same_digests(want, env, args, expect, lab):
    child = run_python(__file__, *args, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    for key, value in expect.items():
        assert report[key] == value, f"the child reports {key} {report[key]}, not {value}"

    assert len(want) == 76
    # Both entries above the floor run on two threads here, given 2 CPUs.
    assert min(SLIC_SIDE, APPLY_SIDE) ** 2 >= _THREAD_MIN_PIXELS
    differ = sorted(k for k in want if report["digests"].get(k) != want[k])
    assert not differ, f"these differ in the child: {differ}"
    if lab:
        assert report["lab"] == lab_digest(), "the Lab floats differ in the child"


if __name__ == "__main__":
    if "--one-cpu" in sys.argv[1:]:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    features, _ = _cpu_features()
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    print(json.dumps({
        "enabled": [name for name in disabled if features.get(name)],
        "cpus": _usable_cpus(),
        "digests": corpus_digests(),
        "lab": lab_digest(),
    }))
