"""Labels and outputs do not depend on numpy's SIMD dispatch level.

numpy picks a SIMD code path for some ufuncs at import time (``np.exp``
in the Quick Shift density, ``np.cbrt`` and ``np.power`` in the Lab
conversion), and the paths may round differently. This test reruns a
small fixed corpus in a child process with the AVX-512 group of numpy's
dispatch targets disabled through ``NPY_DISABLE_CPU_FEATURES`` and
compares the digests with this process. The Lab floats themselves may
differ between the two; the corpus hashes only what spxkit returns to a
user: label maps and message-passing outputs.

numpy also picks an OpenBLAS kernel for the CPU at load time, and the
kernels may round a matrix product differently. spxkit calls no BLAS
routine, so a second child with ``OPENBLAS_CORETYPE=Sandybridge`` must
match this process on the corpus and on the Lab floats themselves.

Run as a script, this file prints the child's JSON report.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spxkit import (
    MspConfig,
    QuickShiftParams,
    SlicParams,
    cascade_forward,
    refine_probabilities,
    slic_segment,
    srgb_to_lab,
)
from spxkit.quickshift import _segment_sigmas


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


def test_labels_do_not_depend_on_the_simd_dispatch_level():
    group = avx512_group()
    if not group:
        pytest.skip("this CPU or numpy build has no AVX-512 dispatch target, "
                    "so NPY_DISABLE_CPU_FEATURES would disable nothing")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(group))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["enabled"] == [], f"{report['enabled']} still on in the child"

    want = corpus_digests()
    assert len(want) == 71
    differ = sorted(k for k in want if report["digests"].get(k) != want[k])
    assert not differ, f"these differ without AVX-512: {differ}"


def test_outputs_and_lab_do_not_depend_on_the_openblas_kernel():
    blas = numpy_blas()
    if blas is None or "openblas" not in blas.lower():
        pytest.skip(f"numpy names no OpenBLAS ({blas}), so OPENBLAS_CORETYPE "
                    "would select nothing")
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)

    want = corpus_digests()
    assert len(want) == 71
    differ = sorted(k for k in want if report["digests"].get(k) != want[k])
    assert not differ, f"these differ under the Sandybridge kernel: {differ}"
    assert report["lab"] == lab_digest(), "the Lab floats differ under the Sandybridge kernel"


if __name__ == "__main__":
    features, _ = _cpu_features()
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    print(json.dumps({
        "enabled": [name for name in disabled if features.get(name)],
        "digests": corpus_digests(),
        "lab": lab_digest(),
    }))
