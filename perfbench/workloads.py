"""The four benchmark workloads.

Each workload is a closed loop with one client: one process runs items
back to back, as a batch script over a folder of images does. An item is
one image's full pipeline. CLI pipelines run in-process through
``spxkit.cli.main(argv)``; ``msp-train`` calls library functions. Inputs
come from :mod:`perfbench.scenes` and reach the program only as files
(CLI workloads) or arrays (``msp-train``).

A workload's life is ``setup()``, then per item ``prepare(i)`` (untimed:
writes the item's inputs), ``run(i)`` (timed: returns the exit code and
every output as bytes) and ``check(i, outputs)`` (untimed: invariants that
hold for any seed; returns a reason on failure).
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from spxkit import cli, msgpass
from spxkit import CascadeTrace, SlicParams, relabel_contiguous, slic_segment, srgb_to_lab
from spxkit.io import write_mspt, write_ppm

from .scenes import dirichlet_probs, downsample_labels, feature_map, item_rng, voronoi_scene
from .tracing import count_components

ALPHA = 0.1


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """Run one CLI command in-process; return its exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().encode()


def parse_mspt(data: bytes) -> np.ndarray:
    """Decode an MSPT file independently of ``spxkit.io``."""
    if data[:4] != b"MSPT" or len(data) < 7:
        raise ValueError("not an MSPT file")
    dtype = {0: "<f4", 1: "<u4"}[data[5]]
    ndim = data[6]
    dims = tuple(int.from_bytes(data[7 + 4 * i : 11 + 4 * i], "little") for i in range(ndim))
    return np.frombuffer(data[7 + 4 * ndim :], dtype=dtype).reshape(dims)


def _sum64(a: np.ndarray) -> float:
    return float(a.sum(dtype=np.float64))


def _sum_identity(before: np.ndarray, after: np.ndarray, stages: int) -> str | None:
    """Each stage X -> X + alpha * P X scales the total by (1 + alpha)."""
    expect = (1.0 + ALPHA) ** stages * _sum64(before)
    got = _sum64(after)
    if abs(got - expect) > 1e-6 * _sum64(np.abs(after)):
        return f"sum {got!r} differs from (1 + alpha)^{stages} x input sum {expect!r}"
    return None


def _in_unit_interval(report: dict, keys: tuple[str, ...]) -> str | None:
    for key in keys:
        if not 0.0 <= report[key] <= 1.0:
            return f"{key} = {report[key]!r} is outside [0, 1]"
    return None


class Workload:
    name = ""
    why = ""
    stream = 0
    # Items whose digests references.json records for the default seed.
    reference_items = 0
    full: dict = {}
    smoke: dict = {}

    def __init__(self, seed: int, workdir: str, smoke: bool = False) -> None:
        self.seed = seed
        self.dir = workdir
        self.p = self.smoke if smoke else self.full
        self.inputs: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def rng(self, item: int) -> np.random.Generator:
        return item_rng(self.seed, self.stream, item)

    def scene(self, rng: np.random.Generator, item: int, noise: float = 0.0):
        return voronoi_scene(rng, (self.stream, item), self.p["size"], self.p["regions"], noise)

    def setup(self) -> None:
        pass

    def prepare(self, item: int) -> None:
        raise NotImplementedError

    def run(self, item: int) -> tuple[int, dict[str, bytes]]:
        raise NotImplementedError

    def check(self, item: int, outputs: dict[str, bytes]) -> str | None:
        raise NotImplementedError


class MspSmooth(Workload):
    name = "msp-smooth"
    why = (
        "The paper's main pipeline on clean input: SLIC k-means (seeding, assignment, "
        "update) does about half the work and few fragments reach the connectivity merge loop."
    )
    stream = 1
    reference_items = 96
    full = dict(size=256, regions=24, channels=64, feat=64, scales="200,300,400")
    smoke = dict(size=48, regions=6, channels=4, feat=12, scales="20,30,40")

    def prepare(self, item):
        rng = self.rng(item)
        image, _ = self.scene(rng, item)
        feats = feature_map(rng, self.p["channels"], self.p["feat"])
        write_ppm(image, self.path("image.ppm"))
        write_mspt(feats, self.path("features.mspt"))
        self.inputs = {"features": feats}

    def run(self, item):
        argv = ["msp-apply", "--algo", "slic", "--scales", self.p["scales"],
                "--alpha", str(ALPHA), "--image", self.path("image.ppm"),
                "--features", self.path("features.mspt"), "-o", self.path("out.mspt")]
        rc, _ = run_cli(argv)
        if rc != 0:
            return rc, {}
        with open(self.path("out.mspt"), "rb") as fh:
            return rc, {"out.mspt": fh.read()}

    def check(self, item, outputs):
        feats = self.inputs["features"]
        out = parse_mspt(outputs["out.mspt"])
        if out.shape != feats.shape or out.dtype != np.float32:
            return f"output is {out.dtype} {out.shape}, expected float32 {feats.shape}"
        if not np.isfinite(out).all():
            return "output has non-finite values"
        return _sum_identity(feats, out, len(self.p["scales"].split(",")))


class SpxNoisy(Workload):
    name = "spx-noisy"
    why = (
        "Noise fragments the k-means output, so the SLIC connectivity merge loop does most "
        "of the work and sets the tail; also exercises validate_partition, I/O and the "
        "superpixel metrics."
    )
    stream = 2
    reference_items = 128
    full = dict(size=256, regions=24, noise=4.0, blocks=400)
    smoke = dict(size=48, regions=6, noise=4.0, blocks=40)

    def prepare(self, item):
        image, region = self.scene(self.rng(item), item, self.p["noise"])
        write_ppm(image, self.path("image.ppm"))
        write_mspt(region, self.path("gt.mspt"))

    def run(self, item):
        rc, spx_out = run_cli(["superpixel", "--algo", "slic", "--lambda", str(self.p["blocks"]),
                               self.path("image.ppm"), "-o", self.path("labels.mspt")])
        if rc != 0:
            return rc, {}
        rc, eval_out = run_cli(["spx-eval", "--labels", self.path("labels.mspt"),
                                "--gt", self.path("gt.mspt"), "--tol", "2"])
        with open(self.path("labels.mspt"), "rb") as fh:
            labels = fh.read()
        return rc, {"labels.mspt": labels, "superpixel.json": spx_out, "spx-eval.json": eval_out}

    def check(self, item, outputs):
        labels = parse_mspt(outputs["labels.mspt"])
        size, want = self.p["size"], self.p["blocks"]
        if labels.shape != (size, size) or labels.dtype != np.uint32:
            return f"labels are {labels.dtype} {labels.shape}"
        blocks = int(labels.max()) + 1
        if np.unique(labels).size != blocks:
            return "labels are not contiguous"
        if count_components(labels) != blocks:
            return "a superpixel is not 4-connected"
        if not want / 2 <= blocks <= 2 * want:
            return f"{blocks} blocks for a request of {want}"
        spx = json.loads(outputs["superpixel.json"])
        report = json.loads(outputs["spx-eval.json"])
        if spx["num_blocks"] != blocks or report["num_blocks"] != blocks:
            return "reported block counts disagree with the label map"
        return _in_unit_interval(report, ("undersegmentation_error", "boundary_recall"))


class RefineQs(Workload):
    name = "refine-qs"
    why = (
        "Quick Shift density and link passes do nearly all the work, and the three scales "
        "re-run the same sigma sweep; SLIC is never called, so SLIC changes must leave it unmoved."
    )
    stream = 3
    reference_items = 16
    full = dict(size=96, regions=12, classes=19, prob=24, scales="100,200,400")
    smoke = dict(size=24, regions=4, classes=5, prob=6, scales="10,20,40")

    def prepare(self, item):
        rng = self.rng(item)
        image, region = self.scene(rng, item)
        factor = self.p["size"] // self.p["prob"]
        gt = downsample_labels(region, factor) % self.p["classes"]
        write_ppm(image, self.path("image.ppm"))
        write_mspt(gt.astype(np.uint32), self.path("gt.mspt"))
        write_mspt(dirichlet_probs(rng, self.p["classes"], self.p["prob"]), self.path("probs.mspt"))

    def run(self, item):
        rc, _ = run_cli(["refine", "--algo", "quickshift", "--scales", self.p["scales"],
                         "--image", self.path("image.ppm"), "--probs", self.path("probs.mspt"),
                         "-o", self.path("labels.mspt")])
        if rc != 0:
            return rc, {}
        rc, metrics_out = run_cli(["metrics", "--pred", self.path("labels.mspt"),
                                   "--gt", self.path("gt.mspt"),
                                   "--classes", str(self.p["classes"]), "--boundary-tol", "2"])
        with open(self.path("labels.mspt"), "rb") as fh:
            labels = fh.read()
        return rc, {"labels.mspt": labels, "metrics.json": metrics_out}

    def check(self, item, outputs):
        labels = parse_mspt(outputs["labels.mspt"])
        prob, classes = self.p["prob"], self.p["classes"]
        if labels.shape != (prob, prob) or labels.dtype != np.uint32:
            return f"labels are {labels.dtype} {labels.shape}"
        if int(labels.max()) >= classes:
            return f"label {int(labels.max())} is not a class index"
        report = json.loads(outputs["metrics.json"])
        if len(report["per_class_iou"]) != classes:
            return "per_class_iou has the wrong length"
        return _in_unit_interval(report, ("miou", "pixel_accuracy", "boundary_precision",
                                          "boundary_recall", "boundary_fscore"))


class MspTrain(Workload):
    name = "msp-train"
    why = (
        "A training step on cached superpixels: message passing and the dense "
        "downsample_partition vote table do the work and set peak RSS; elsewhere these "
        "layers do at most 3% of the work."
    )
    stream = 4
    setup_stream = 5
    reference_items = 96
    full = dict(size=256, regions=24, scales=(200, 300, 400), channels=64)
    smoke = dict(size=32, regions=4, scales=(10, 15, 20), channels=4)

    def setup(self):
        image, _ = voronoi_scene(item_rng(self.seed, self.setup_stream, 0),
                                 (self.setup_stream, 0), self.p["size"], self.p["regions"])
        lab = srgb_to_lab(image)
        self.partitions = []
        for scale in self.p["scales"]:
            labels = slic_segment(lab, SlicParams(num_superpixels=scale)).labels
            self.partitions.append(relabel_contiguous(labels.repeat(2, axis=0).repeat(2, axis=1)))

    def prepare(self, item):
        rng = self.rng(item)
        c, size = self.p["channels"], self.p["size"]
        self.inputs = {"x": feature_map(rng, c, size), "grad": feature_map(rng, c, size)}

    def run(self, item):
        size = self.p["size"]
        parts = [msgpass.downsample_partition(p, size, size) for p in self.partitions]
        out = msgpass.cascade_apply(self.inputs["x"], parts, ALPHA)
        trace = CascadeTrace(stages=tuple(zip(self.p["scales"], parts)))
        grad = msgpass.cascade_backward(self.inputs["grad"], trace, ALPHA)
        self.inputs["out"] = out
        return 0, {"grad": np.ascontiguousarray(grad).tobytes()}

    def check(self, item, outputs):
        x, g, out = self.inputs["x"], self.inputs["grad"], self.inputs["out"]
        grad = np.frombuffer(outputs["grad"], dtype=x.dtype)
        if grad.size != g.size or not np.isfinite(grad).all():
            return "gradient has the wrong size or non-finite values"
        grad = grad.reshape(g.shape)
        reason = _sum_identity(g, grad, len(self.p["scales"]))
        if reason:
            return reason
        # Adjoint identity <F(x), g> = <x, B(g)>, up to float32 rounding of
        # both sides; summed per channel to keep float64 temporaries small.
        lhs = rhs = scale = 0.0
        for c in range(x.shape[0]):
            o64, g64 = out[c].astype(np.float64), g[c].astype(np.float64)
            lhs += float(np.vdot(o64, g64))
            rhs += float(np.vdot(x[c].astype(np.float64), grad[c].astype(np.float64)))
            scale += float(np.vdot(np.abs(o64), np.abs(g64)))
        if abs(lhs - rhs) > 1e-5 * scale:
            return f"adjoint identity off by {abs(lhs - rhs)!r}"
        return None


WORKLOADS = {w.name: w for w in (MspSmooth, SpxNoisy, RefineQs, MspTrain)}
