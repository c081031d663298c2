"""Command-line frontend.

Subcommands: superpixel, msp-apply, refine, metrics, spx-eval,
gradcheck. Results go to stdout as JSON; diagnostics go to stderr.
Exit codes: 0 success, 1 bad arguments, 2 I/O or file-format errors,
3 algorithm failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .color import srgb_to_lab
from .core import AlgorithmError, check_count, relabel_contiguous
from .core import validate_partition  # noqa: F401  perfbench/tracing.py wraps it here
from .io import FormatError, read_mspt, read_ppm, render_overlay, write_mspt, write_ppm
from .metrics import evaluate_segmentation, spx_boundary_recall, undersegmentation_error
from .msgpass import MspConfig, cascade_forward, gradient_check, refine_probabilities
from .quickshift import QuickShiftParams, quickshift_match_scale, quickshift_segment
from .slic import SlicParams, slic_segment

__all__ = ["entry", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; bad args are exit 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _count(name: str, low: int = 1):
    """An argparse ``type`` for a count flag; its errors name the flag typed."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = text  # check_count refuses it, showing the text typed
        try:
            return check_count(name, value, low)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return count


def _parse_scales(text: str) -> tuple[int, ...]:
    return tuple(map(_count("every scale"), text.split(",")))


def _add_superpixel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algo", choices=("slic", "quickshift"), default="slic",
        help="superpixel algorithm (default: slic)",
    )
    parser.add_argument(
        "--compactness", type=float, default=SlicParams.compactness,
        help="SLIC compactness m (default: %(default)g)",
    )
    parser.add_argument(
        "--sigma", type=float, default=QuickShiftParams.sigma,
        help="Quick Shift kernel bandwidth in pixels (default: %(default)g)",
    )
    parser.add_argument(
        "--tau", type=float, default=QuickShiftParams.tau,
        help="Quick Shift maximum link distance in pixels (default: %(default)g)",
    )
    parser.add_argument(
        "--ratio", type=float, default=QuickShiftParams.color_ratio,
        help="Quick Shift color weight relative to position (default: %(default)g)",
    )


def _add_cascade_flags(parser: argparse.ArgumentParser) -> None:
    _add_superpixel_flags(parser)
    parser.add_argument("--image", required=True, help="guidance image (binary PPM)")
    parser.add_argument(
        "--scales", type=_parse_scales, default=",".join(map(str, MspConfig.scales)),
        help="comma-separated block counts, strictly increasing",
    )
    parser.add_argument(
        "--alpha", type=float, default=MspConfig.alpha,
        help="message weight (default: %(default)g)",
    )


def _segmenter(args, blocks: int | None) -> SlicParams | QuickShiftParams:
    """The --algo generator with its flags; ``blocks`` is SLIC's block count."""
    if args.algo == "slic":
        if blocks is None:
            raise ValueError("--lambda is required with --algo slic")
        return SlicParams(num_superpixels=blocks, compactness=args.compactness)
    return QuickShiftParams(sigma=args.sigma, tau=args.tau, color_ratio=args.ratio)


def build_parser() -> _Parser:
    parser = _Parser(prog="spxkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("superpixel", help="segment an image into superpixels")
    _add_superpixel_flags(p)
    p.add_argument("--lambda", dest="num_superpixels", type=_count("blocks"), default=None,
                   help="target block count (required for slic)")
    p.add_argument("input", help="input image (binary PPM)")
    p.add_argument("-o", "--output", required=True,
                   help="output label map (MSPT u32 [H,W])")
    p.add_argument("--vis", default=None, help="optional overlay PPM path")
    p.add_argument("--vis-mode", choices=("boundaries", "mean-color"),
                   default="boundaries")
    p.set_defaults(handler=_cmd_superpixel)

    p = sub.add_parser("msp-apply",
                       help="apply the multiscale message-passing cascade")
    _add_cascade_flags(p)
    p.add_argument("--features", required=True, help="feature map (MSPT f32 [C,H,W])")
    p.add_argument("-o", "--output", required=True,
                   help="output feature map (MSPT f32 [C,H,W])")
    p.set_defaults(handler=_cmd_msp_apply)

    p = sub.add_parser("refine",
                       help="smooth class probabilities and write the argmax labels")
    _add_cascade_flags(p)
    p.add_argument("--probs", required=True,
                   help="class probabilities (MSPT f32 [C,H,W])")
    p.add_argument("-o", "--output", required=True,
                   help="output label map (MSPT u32 [H,W])")
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("metrics", help="compare predicted labels to ground truth")
    p.add_argument("--pred", required=True, help="predicted labels (MSPT u32 [H,W])")
    p.add_argument("--gt", required=True, help="ground-truth labels (MSPT u32 [H,W])")
    p.add_argument("--classes", type=_count("num_classes"), required=True,
                   help="number of classes")
    p.add_argument("--ignore", type=int, default=255,
                   help="gt label to skip (default: 255)")
    p.add_argument("--boundary-tol", type=_count("tolerance_px", 0), default=2,
                   help="boundary match tolerance in pixels (default: 2)")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("spx-eval",
                       help="score a superpixel partition against ground truth")
    p.add_argument("--labels", required=True,
                   help="superpixel labels (MSPT u32 [H,W])")
    p.add_argument("--gt", required=True, help="ground-truth labels (MSPT u32 [H,W])")
    p.add_argument("--tol", type=_count("tolerance_px", 0), default=2,
                   help="boundary recall tolerance in pixels (default: 2)")
    p.set_defaults(handler=_cmd_spx_eval)

    p = sub.add_parser("gradcheck",
                       help="verify the analytic backward pass on a seeded fixture")
    for name in ("channels", "height", "width", "blocks"):
        p.add_argument(f"--{name}", type=_count(name), required=True)
    p.add_argument("--seed", type=_count("seed", 0), required=True)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--scales", type=int, default=1,
                   help="number of cascade stages (default: 1)")
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def _cmd_superpixel(args) -> int:
    image = read_ppm(args.input)
    lab = srgb_to_lab(image)
    spec = _segmenter(args, args.num_superpixels)
    if isinstance(spec, SlicParams):
        check_count("--lambda", spec.num_superpixels, 1, image.shape[0] * image.shape[1])
        partition = slic_segment(lab, spec)
    elif args.num_superpixels is not None:
        partition = quickshift_match_scale(lab, spec, args.num_superpixels)
    else:
        partition = quickshift_segment(lab, spec)
    write_mspt(partition.labels.astype(np.uint32), args.output)
    if args.vis is not None:
        write_ppm(render_overlay(image, partition, args.vis_mode), args.vis)
    print(json.dumps({"num_blocks": partition.num_blocks}))
    return 0


def _read_tensor(path: str, ndim: int, dtype: type) -> np.ndarray:
    arr = read_mspt(path)
    if arr.ndim != ndim or arr.dtype != dtype:
        layout = "[C,H,W]" if ndim == 3 else "[H,W]"
        raise FormatError(
            f"{path}: expected a {np.dtype(dtype).name} {layout} tensor, "
            f"got {arr.dtype} {arr.shape}"
        )
    return arr


def _cascade_inputs(args, path: str) -> tuple[MspConfig, np.ndarray, np.ndarray]:
    """The cascade's settings, guidance image and float32 [C,H,W] map at ``path``."""
    # Each stage replaces the SLIC template's block count with its scale.
    segmenter = _segmenter(args, max(args.scales))
    config = MspConfig(alpha=args.alpha, scales=args.scales, segmenter=segmenter)
    image = read_ppm(args.image)
    tensor = _read_tensor(path, 3, np.float32)
    if args.algo == "slic":  # one block per pixel at most
        pixels = image.shape[0] * image.shape[1]
        check_count("every --scales value", max(args.scales), 1, pixels)
    return config, image, tensor


def _cmd_msp_apply(args) -> int:
    config, image, features = _cascade_inputs(args, args.features)
    out, _ = cascade_forward(features, image, config)
    write_mspt(out, args.output)
    return 0


def _cmd_refine(args) -> int:
    config, image, probs = _cascade_inputs(args, args.probs)
    labels = refine_probabilities(probs, image, config)
    write_mspt(labels, args.output)
    return 0


def _cmd_metrics(args) -> int:
    pred = _read_tensor(args.pred, 2, np.uint32)
    gt = _read_tensor(args.gt, 2, np.uint32)
    check_count("--classes", args.classes, 1, np.iinfo(np.int64).max)
    report = evaluate_segmentation(
        pred, gt, args.classes, args.ignore, args.boundary_tol
    )
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_spx_eval(args) -> int:
    labels = _read_tensor(args.labels, 2, np.uint32)
    gt = _read_tensor(args.gt, 2, np.uint32)
    partition = relabel_contiguous(labels)
    report_args = {
        "undersegmentation_error": undersegmentation_error(partition, gt),
        "boundary_recall": spx_boundary_recall(partition, gt, args.tol),
        "num_blocks": partition.num_blocks,
    }
    print(json.dumps(report_args))
    return 0


def _cmd_gradcheck(args) -> int:
    check_count("--blocks", args.blocks, 1, args.height * args.width)
    check_count("--scales", args.scales, 1, args.height * args.width)
    result = gradient_check(
        channels=args.channels,
        height=args.height,
        width=args.width,
        blocks=args.blocks,
        seed=args.seed,
        alpha=args.alpha,
        stages=args.scales,
    )
    print(json.dumps(result))
    if not result["pass"]:
        raise AlgorithmError(
            f"gradient check failed: max_rel_err={result['max_rel_err']:.3e}, "
            f"adjoint_err={result['adjoint_err']:.3e}"
        )
    return 0


# Built by the first main() call and reused, since parsing keeps no state
# in the parser; building it at import would slow ``import spxkit.cli``.
_parser: _Parser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an argument asked for more memory than exists
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except AlgorithmError as exc:
        print(f"algorithm error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
