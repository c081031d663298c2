"""Span tracing around spxkit's public functions, from the benchmark's side.

:class:`Tracer` replaces each traced function on the module where its
caller looks it up (``spxkit.cli.slic_segment``, ``spxkit.slic.enforce_connectivity``
and so on) with a wrapper that records a span: name, start, end, parent
span and item id. Spans stay in memory until the run ends. Counters are
recorded by hooks that run after the wrapped call returns; each hook's own
time is recorded as a ``trace.hook`` span so it can be taken out of the
busy and self times of every span that encloses it.

Self time is a span's duration minus the time its child spans cover.
Spans of one thread never overlap their siblings, so that is the sum of
the children's durations.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import statistics
import time
from collections import defaultdict

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

HOOK = "trace.hook"


def count_components(labels: np.ndarray) -> int:
    """Number of 4-connected components of equal-label pixels."""
    arr = np.asarray(labels)
    h, w = arr.shape
    idx = np.arange(h * w).reshape(h, w)
    same_x = arr[:, :-1] == arr[:, 1:]
    same_y = arr[:-1, :] == arr[1:, :]
    rows = np.concatenate([idx[:, :-1][same_x], idx[:-1, :][same_y]])
    cols = np.concatenate([idx[:, 1:][same_x], idx[1:, :][same_y]])
    graph = sparse.coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(h * w, h * w)
    )
    return int(csgraph.connected_components(graph, directed=False)[0])


# --- counter hooks: (tracer, args, kwargs, result) -> None -----------------


def _slic_hook(tr, args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    tr.count("slic.blocks_requested", params.num_superpixels)
    tr.count("slic.blocks_delivered", result.num_blocks)


def _connectivity_hook(tr, args, kwargs, result):
    raw = args[0] if args else kwargs["raw_labels"]
    tr.count("slic.enforce_connectivity.components_in", count_components(raw))
    tr.count("slic.enforce_connectivity.blocks_out", result.num_blocks)


def _quickshift_hook(tr, args, kwargs, result):
    lab = np.ascontiguousarray(args[0] if args else kwargs["lab"])
    params = args[1] if len(args) > 1 else kwargs["params"]
    key = (hashlib.sha1(lab.view(np.uint8)).hexdigest(), repr(params))
    tr.distinct[tr.item].add(key)


def _match_scale_hook(tr, args, kwargs, result):
    target = args[2] if len(args) > 2 else kwargs["target_blocks"]
    if result.num_blocks < target / 2:
        tr.count("quickshift.quickshift_match_scale.missed", 1)


def _message_pass_hook(tr, args, kwargs, result):
    x = np.asarray(args[0] if args else kwargs["features"])
    tr.count(
        "msgpass.message_pass.bytes_computed",
        x.size * (x.itemsize + np.asarray(result).itemsize),
    )


def _downsample_hook(tr, args, kwargs, result):
    part = args[0] if args else kwargs["partition"]
    h, w = result.labels.shape
    tr.count("msgpass.downsample_partition.table_bytes_computed", h * w * part.num_blocks * 8)
    tr.count("msgpass.downsample_partition.blocks_in", part.num_blocks)
    tr.count("msgpass.downsample_partition.blocks_out", result.num_blocks)


def _read_hook(tr, args, kwargs, result):
    tr.count("io.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _write_hook(tr, args, kwargs, result):
    tr.count("io.bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def _main_hook(tr, args, kwargs, result):
    if result != 0:
        tr.count("cli.main.exit_nonzero", 1)


# Span name, the (module, attribute) sites where callers look the function
# up, and the counter hook.
TRACED = (
    ("color.srgb_to_lab", (("spxkit.cli", "srgb_to_lab"), ("spxkit.msgpass", "srgb_to_lab")), None),
    ("slic.slic_segment", (("spxkit.cli", "slic_segment"), ("spxkit.msgpass", "slic_segment")), _slic_hook),
    ("slic.enforce_connectivity", (("spxkit.slic", "enforce_connectivity"),), _connectivity_hook),
    ("quickshift.quickshift_segment", (("spxkit.quickshift", "quickshift_segment"), ("spxkit.cli", "quickshift_segment")), _quickshift_hook),
    ("quickshift.quickshift_match_scale", (("spxkit.msgpass", "quickshift_match_scale"), ("spxkit.cli", "quickshift_match_scale")), _match_scale_hook),
    ("msgpass.message_pass", (("spxkit.msgpass", "message_pass"),), _message_pass_hook),
    ("msgpass.downsample_partition", (("spxkit.msgpass", "downsample_partition"),), _downsample_hook),
    ("msgpass.cascade_forward", (("spxkit.msgpass", "cascade_forward"), ("spxkit.cli", "cascade_forward")), None),
    ("msgpass.cascade_backward", (("spxkit.msgpass", "cascade_backward"),), None),
    ("metrics.evaluate_segmentation", (("spxkit.cli", "evaluate_segmentation"),), None),
    ("metrics.undersegmentation_error", (("spxkit.cli", "undersegmentation_error"),), None),
    ("metrics.spx_boundary_recall", (("spxkit.cli", "spx_boundary_recall"),), None),
    ("core.validate_partition", (("spxkit.cli", "validate_partition"),), None),
    ("io.read", (("spxkit.cli", "read_ppm"), ("spxkit.cli", "read_mspt")), _read_hook),
    ("io.write", (("spxkit.cli", "write_ppm"), ("spxkit.cli", "write_mspt")), _write_hook),
    ("cli.main", (("spxkit.cli", "main"),), _main_hook),
)

# Per-layer metrics reported by a traced run: name -> unit.
PER_LAYER = {
    "color.srgb_to_lab.busy_s": "s",
    "slic.slic_segment.calls": "count",
    "slic.slic_segment.busy_s": "s",
    "slic.slic_segment.self_s": "s",
    "slic.enforce_connectivity.busy_s": "s",
    "slic.enforce_connectivity.components_in": "count",
    "slic.enforce_connectivity.blocks_out": "count",
    "slic.enforce_connectivity.blocks_per_component": "ratio",
    "slic.blocks_delivered_ratio": "ratio",
    "quickshift.quickshift_segment.calls": "count",
    "quickshift.quickshift_segment.busy_s": "s",
    "quickshift.quickshift_segment.distinct_ratio": "ratio",
    "quickshift.quickshift_match_scale.calls": "count",
    "quickshift.quickshift_match_scale.missed": "count",
    "msgpass.message_pass.calls": "count",
    "msgpass.message_pass.busy_s": "s",
    "msgpass.message_pass.bytes_computed": "B",
    "msgpass.cascade_backward.busy_s": "s",
    "msgpass.downsample_partition.busy_s": "s",
    "msgpass.downsample_partition.table_bytes_computed": "B",
    "msgpass.downsample_partition.blocks_kept_ratio": "ratio",
    "msgpass.cascade_forward.busy_s": "s",
    "msgpass.cascade_forward.self_s": "s",
    "metrics.evaluate_segmentation.busy_s": "s",
    "metrics.undersegmentation_error.busy_s": "s",
    "metrics.spx_boundary_recall.busy_s": "s",
    "core.validate_partition.busy_s": "s",
    "io.read.busy_s": "s",
    "io.write.busy_s": "s",
    "io.bytes": "B",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.main.exit_nonzero": "count",
    "trace.items": "count",
    "trace.item_mean_s": "s",
    "trace.item_p50_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs span-recording wrappers on entry and restores the originals on exit.

    Spans are ``[name, start, end, parent, item]`` lists; ``parent`` is an
    index into :attr:`spans` or -1. Call :meth:`begin_item` before each
    item so spans and counters carry its id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.distinct: dict[int, set] = defaultdict(set)  # (image, params) keys per item
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.item: int | None = None

    def begin_item(self, item: int) -> None:
        self.item = item

    def count(self, name: str, value: float) -> None:
        self.counters[self.item][name] += value

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                mark = self._open(HOOK)
                mark[1] = time.perf_counter()
                try:
                    hook(self, args, kwargs, result)
                finally:
                    mark[2] = time.perf_counter()
                    self._stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for name, sites, hook in TRACED:
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def span_times(self) -> tuple[list[float], list[float]]:
        """Busy and self time of every span, both net of hook time."""
        n = len(self.spans)
        duration = [s[2] - s[1] for s in self.spans]
        child_sum = [0.0] * n
        hook_sum = [0.0] * n
        for i in range(n - 1, -1, -1):
            name, _, _, parent, _ = self.spans[i]
            if parent < 0:
                continue
            child_sum[parent] += duration[i]
            hook_sum[parent] += duration[i] if name == HOOK else hook_sum[i]
        busy = [duration[i] - hook_sum[i] for i in range(n)]
        self_time = [duration[i] - child_sum[i] for i in range(n)]
        return busy, self_time

    def per_layer(self, item_times: list[float], count_items: int) -> dict[str, float]:
        """Per-item means: times over every traced item, counts over the first ``count_items``.

        Counts come from a fixed prefix of items so that they repeat
        exactly from run to run whatever the run length.
        """
        items = len(item_times)
        counted = range(min(count_items, items))
        busy, self_time = self.span_times()
        tot_busy: dict[str, float] = defaultdict(float)
        tot_self: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _, item) in enumerate(self.spans):
            if item is None:
                continue
            tot_busy[name] += busy[i]
            tot_self[name] += self_time[i]
            if item in counted:
                calls[name] += 1
        c: dict[str, float] = defaultdict(float)
        for item in counted:
            for name, value in self.counters[item].items():
                c[name] += value
        qs_calls = calls["quickshift.quickshift_segment"]
        qs_distinct = sum(len(self.distinct[item]) for item in counted)
        comp_in = c["slic.enforce_connectivity.components_in"]
        blocks_out = c["slic.enforce_connectivity.blocks_out"]

        n_c = max(1, len(counted))
        out = {
            "color.srgb_to_lab.busy_s": tot_busy["color.srgb_to_lab"] / items,
            "slic.slic_segment.calls": calls["slic.slic_segment"] / n_c,
            "slic.slic_segment.busy_s": tot_busy["slic.slic_segment"] / items,
            "slic.slic_segment.self_s": tot_self["slic.slic_segment"] / items,
            "slic.enforce_connectivity.busy_s": tot_busy["slic.enforce_connectivity"] / items,
            "slic.enforce_connectivity.components_in": comp_in / n_c,
            "slic.enforce_connectivity.blocks_out": blocks_out / n_c,
            "slic.enforce_connectivity.blocks_per_component": _ratio(blocks_out, comp_in),
            "slic.blocks_delivered_ratio": _ratio(
                c["slic.blocks_delivered"], c["slic.blocks_requested"]
            ),
            "quickshift.quickshift_segment.calls": qs_calls / n_c,
            "quickshift.quickshift_segment.busy_s": tot_busy["quickshift.quickshift_segment"] / items,
            "quickshift.quickshift_segment.distinct_ratio": _ratio(qs_distinct, qs_calls),
            "quickshift.quickshift_match_scale.calls": calls["quickshift.quickshift_match_scale"] / n_c,
            "quickshift.quickshift_match_scale.missed": c["quickshift.quickshift_match_scale.missed"] / n_c,
            "msgpass.message_pass.calls": calls["msgpass.message_pass"] / n_c,
            "msgpass.message_pass.busy_s": tot_busy["msgpass.message_pass"] / items,
            "msgpass.message_pass.bytes_computed": c["msgpass.message_pass.bytes_computed"] / n_c,
            "msgpass.cascade_backward.busy_s": tot_busy["msgpass.cascade_backward"] / items,
            "msgpass.downsample_partition.busy_s": tot_busy["msgpass.downsample_partition"] / items,
            "msgpass.downsample_partition.table_bytes_computed": c[
                "msgpass.downsample_partition.table_bytes_computed"
            ] / n_c,
            "msgpass.downsample_partition.blocks_kept_ratio": _ratio(
                c["msgpass.downsample_partition.blocks_out"],
                c["msgpass.downsample_partition.blocks_in"],
            ),
            "msgpass.cascade_forward.busy_s": tot_busy["msgpass.cascade_forward"] / items,
            "msgpass.cascade_forward.self_s": tot_self["msgpass.cascade_forward"] / items,
            "metrics.evaluate_segmentation.busy_s": tot_busy["metrics.evaluate_segmentation"] / items,
            "metrics.undersegmentation_error.busy_s": tot_busy["metrics.undersegmentation_error"] / items,
            "metrics.spx_boundary_recall.busy_s": tot_busy["metrics.spx_boundary_recall"] / items,
            "core.validate_partition.busy_s": tot_busy["core.validate_partition"] / items,
            "io.read.busy_s": tot_busy["io.read"] / items,
            "io.write.busy_s": tot_busy["io.write"] / items,
            "io.bytes": c["io.bytes"] / n_c,
            "cli.main.busy_s": tot_busy["cli.main"] / items,
            "cli.main.self_s": tot_self["cli.main"] / items,
            "cli.main.exit_nonzero": c["cli.main.exit_nonzero"] / n_c,
            "trace.items": float(items),
            "trace.item_mean_s": statistics.fmean(item_times),
            "trace.item_p50_s": statistics.median(item_times),
        }
        assert set(out) == set(PER_LAYER)
        return out
