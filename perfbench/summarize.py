#!/usr/bin/env python3
"""Summarize the result files under perfbench/out into one JSON document.

    python3 perfbench/summarize.py [--dir DIR] [--write perfbench/baseline.json]

Per workload it reports, over the untraced runs found, each end-to-end
metric's median, quartiles and spread (quartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives them), scaled to the
reference machine speed and, under ``end_to_end_wall``, as measured; the failed and
attempted item totals; over the traced runs, each per-layer metric's
median and each layer's share of the traced item time; and the tracing
overhead, traced minus untraced median ``item_p50_s``, both as wall times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def summarize(results: list[dict]) -> dict:
    summary: dict = {}
    for name in sorted({r["workload"] for r in results}):
        runs = [r for r in results if r["workload"] == name and not r["smoke"]]
        plain = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry: dict = {
            "seeds": sorted({r["seed"] for r in plain}),
            "attempted": sum(r["attempted"] for r in plain),
            "failed": sum(r["failed"] for r in plain),
        }
        if plain:
            entry["end_to_end"] = {k: spread([r["metrics"][k] for r in plain])
                                   for k in plain[0]["metrics"]}
            entry["end_to_end_wall"] = {k: spread([r["wall_metrics"][k] for r in plain])
                                        for k in plain[0]["wall_metrics"]}
            entry["tail_percentiles"] = sorted({round(r["tail"]["percentile"], 1) for r in plain})
        if traced:
            layers = {k: statistics.median(r["per_layer"][k] for r in traced)
                      for k in traced[0]["per_layer"]}
            item = layers["trace.item_mean_s"]
            entry["traced_seeds"] = sorted({r["seed"] for r in traced})
            entry["per_layer"] = layers
            entry["busy_share_of_item"] = dict(sorted(
                ((k, v / item) for k, v in layers.items() if k.endswith("_s") and
                 not k.startswith("trace.") and v > 0),
                key=lambda kv: -kv[1]))
            if plain:
                untraced = statistics.median(r["wall_metrics"]["item_p50_s"] for r in plain)
                entry["tracing_overhead_s"] = layers["trace.item_p50_s"] - untraced
                entry["tracing_overhead_share"] = entry["tracing_overhead_s"] / untraced
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", type=Path, default=OUT, help="where the result files are")
    parser.add_argument("--write", help="also write the summary to this path")
    args = parser.parse_args(argv)
    results = []
    for path in sorted(args.dir.glob("*-trace[01].json")):
        with open(path) as fh:
            results.append(json.load(fh))
    if not results:
        print(f"error: no result files in {args.dir}", file=sys.stderr)
        return 1
    doc = {"environment": results[0]["environment"], "workloads": summarize(results)}
    text = json.dumps(doc, indent=1)
    print(text)
    if args.write:
        Path(args.write).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
