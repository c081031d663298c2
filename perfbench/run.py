#!/usr/bin/env python3
"""spxkit benchmark: four closed-loop, one-client workloads over seeded scenes.

Run from the repository root:

    python3 perfbench/run.py --workload spx-noisy --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seed 0] [--seconds 25]    # every workload, a table
    python3 perfbench/run.py --compare A.json B.json            # same outputs?
    python3 perfbench/run.py --record-references                 # rewrite references.json

One run sets up its workload, then runs items back to back for
``--seconds`` (at least one item; a traced run at least ``COUNT_ITEMS``).
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of :mod:`perfbench.tracing` with ``--trace 1``. The
full result, with every item's time and output digests and the
environment, goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``;
a traced run also writes its spans next to it.

Before and after every item and every set-up step, untimed, the run
times the reference kernel of :mod:`perfbench.calibrate`. Each of those
times is scaled by ``REFERENCE_S`` over the mean of the two kernel times
around it, so that the end-to-end times read as times at one fixed
machine speed. The result file keeps the unscaled wall times under
``wall_metrics``. Per-layer times are not scaled.

An item fails if it raises, if ``cli.main`` returns non-zero, if an
output breaks the workload's invariants, or, for the default seed, if an
output's sha256 differs from ``references.json``. Failed items count in
``attempted`` and ``failed`` and their times stay in the latency figures.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
# A traced run covers at least this many items, and its counts come from
# exactly these first items, so they repeat from run to run.
COUNT_ITEMS = 2
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def pin_threads() -> int:
    """Pin the BLAS/OpenMP pools before numpy loads; returns the count used."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; exit 2 if it is missing."""
    src = ROOT / "src"
    if not (src / "spxkit" / "__init__.py").is_file():
        print(f"error: no spxkit sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import spxkit

    if Path(spxkit.__file__).resolve().parent != (src / "spxkit").resolve():
        print(f"error: spxkit was imported from {spxkit.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 1024, "M": 1024**2}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def environment(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_cache_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "bytes_note": (
            "byte counts are computed from array sizes; working sets are not 4x the L3 "
            "cache, so no bandwidth ratio is claimed"
        ),
    }


def time_imports() -> list[dict]:
    """Wall and scaled times of fresh interpreters that import the program and the benchmark."""
    from perfbench.calibrate import reference_seconds, scaled

    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]; "
            "import perfbench.workloads")
    runs = []
    kernel = reference_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        before, kernel = kernel, reference_seconds()
        runs.append({"seconds": elapsed, "scaled_seconds": scaled(elapsed, before, kernel)})
    return runs


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def tail(times: list[float]) -> dict:
    """The highest percentile with at least TAIL_BEYOND items beyond it.

    With too few items for that, the median stands in, and ``beyond``
    says how many items lie past it.
    """
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    return {
        "value": ordered[index],
        "index": index,
        "percentile": 100.0 * (index + 1) / n,
        "items": n,
        "beyond": n - 1 - index,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    references: dict | None = None,
    min_items: int = 1,
    import_runs: list[dict] | None = None,
) -> dict:
    """Set up one workload, run its items until ``seconds`` pass, return the result.

    ``setup_s`` is the median of ``import_runs`` (interpreter start and
    imports) plus the median of SETUP_REPEATS set-ups (seeded inputs made
    and the first item's files written). ``references`` holds, per item
    index, each output's sha256; items past its end are checked by
    invariants only. Every time in ``metrics`` is scaled to the reference
    machine speed; ``wall_metrics`` holds them as measured.
    """
    from perfbench.calibrate import reference_seconds, scaled
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workload_cls = WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    refs = references or []
    min_items = max(min_items, COUNT_ITEMS if trace else 1)

    setup_runs = []
    kernel_times = []
    workdirs = []
    try:
        kernel = reference_seconds()
        for _ in range(SETUP_REPEATS):
            workdirs.append(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
            start = time.perf_counter()
            workload = workload_cls(seed, workdirs[-1], smoke=smoke)
            workload.setup()
            workload.prepare(0)
            elapsed = time.perf_counter() - start
            before, kernel = kernel, reference_seconds()
            setup_runs.append({"seconds": elapsed, "scaled_seconds": scaled(elapsed, before, kernel)})

        tracer = Tracer() if trace else None
        items = []
        with tracer or nullcontext():
            loop_start = time.perf_counter()
            while len(items) < min_items or time.perf_counter() - loop_start < seconds:
                i = len(items)
                if i > 0:
                    workload.prepare(i)
                kernel_times.append(reference_seconds())
                if tracer:
                    tracer.begin_item(i)
                start = time.perf_counter()
                try:
                    rc, outputs = workload.run(i)
                    reason = None if rc == 0 else f"exit code {rc}"
                except Exception as exc:  # a failed item is counted, not fatal
                    rc, outputs, reason = None, {}, f"raised {exc!r}"
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.begin_item(None)
                digests = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
                if reason is None:
                    try:
                        reason = workload.check(i, outputs)
                    except Exception as exc:  # malformed output
                        reason = f"check raised {exc!r}"
                if reason is None and i < len(refs) and digests != refs[i]:
                    bad = sorted(k for k in refs[i] if digests.get(k) != refs[i][k])
                    reason = f"digest mismatch: {', '.join(bad)}"
                items.append({"seconds": elapsed, "digests": digests, "failed": reason})
            kernel_times.append(reference_seconds())
    finally:
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)

    times = [it["seconds"] for it in items]
    for i, it in enumerate(items):
        it["scaled_seconds"] = scaled(it["seconds"], kernel_times[i], kernel_times[i + 1])
    item_scaled = [it["scaled_seconds"] for it in items]
    failed = sum(1 for it in items if it["failed"])
    tail_info = tail(item_scaled)

    def setup_time(key: str) -> float:
        imports = [r[key] for r in import_runs] if import_runs else [0.0]
        return statistics.median(imports) + statistics.median(r[key] for r in setup_runs)

    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_time("scaled_seconds"),
        "item_p50_s": statistics.median(item_scaled),
        "item_tail_s": tail_info["value"],
        "items_per_s": len(item_scaled) / sum(item_scaled),
        "peak_rss_mib": rss_mib,
    }
    wall = {
        "setup_s": setup_time("seconds"),
        "item_p50_s": statistics.median(times),
        "item_tail_s": sorted(times)[tail_info["index"]],
        "items_per_s": len(times) / sum(times),
        "peak_rss_mib": rss_mib,
    }
    result = {
        "workload": name,
        "why": workload_cls.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "attempted": len(items),
        "failed": failed,
        "failed_ratio": failed / len(items),
        "metrics": metrics,
        "wall_metrics": wall,
        "kernel_runs_s": kernel_times,
        "tail": tail_info,
        "import_runs_s": import_runs,
        "setup_runs_s": setup_runs,
        "items": items,
    }
    if tracer:
        result["per_layer"] = tracer.per_layer(times, COUNT_ITEMS)
        result["spans"] = tracer.spans
    return result


def result_line(result: dict) -> dict:
    """The contract line: end-to-end metrics untraced, per-layer metrics traced."""
    from perfbench.tracing import PER_LAYER

    if result["trace"]:
        metrics = {k: {"value": result["per_layer"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def result_path(name: str, seed: int, trace: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def write_result(result: dict, env: dict) -> Path:
    path = result_path(result["workload"], result["seed"], result["trace"])
    spans = result.pop("spans", None)
    with open(path, "w") as fh:
        json.dump({**result, "environment": env}, fh, indent=1)
    if spans is not None:
        with open(path.with_suffix(".spans.jsonl"), "w") as fh:
            for name, start, end, parent, item in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
    return path


def compare(path_a: str, path_b: str) -> int:
    """Compare per-item output digests of two result files of one workload and seed."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if (a["workload"], a["seed"], a["smoke"]) != (b["workload"], b["seed"], b["smoke"]):
        print("error: the files are for different workloads, seeds or sizes", file=sys.stderr)
        return 2
    pairs = list(zip(a["items"], b["items"]))
    bad = [i for i, (x, y) in enumerate(pairs) if x["digests"] != y["digests"]]
    print(json.dumps({"workload": a["workload"], "seed": a["seed"],
                      "compared": len(pairs), "mismatched_items": bad}))
    return 0 if pairs and not bad else 1


def record_references(names: list[str]) -> int:
    """Rewrite references.json from the current program, default seed, full size."""
    from perfbench.workloads import WORKLOADS

    refs = load_references() if REFERENCES.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
    for name in names:
        result = run_workload(name, DEFAULT_SEED, 0.0, False,
                              min_items=WORKLOADS[name].reference_items)
        if result["failed"]:
            print(f"error: {name} failed {result['failed']} items", file=sys.stderr)
            return 1
        refs["workloads"][name] = [it["digests"] for it in result["items"]]
        print(f"{name}: {result['attempted']} items", file=sys.stderr)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Run each workload in its own process; print every end-to-end metric."""
    from perfbench.workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            code = 1
            continue
        with open(result_path(name, seed, 0)) as fh:
            result = json.load(fh)
        m, wall, t = result["metrics"], result["wall_metrics"], result["tail"]
        rows = [(k, m[k], wall[k], u) for k, u in END_TO_END.items()]
        rows.append(("failed_ratio", result["failed_ratio"], result["failed_ratio"], "fraction"))
        print(f"{name}  ({result['attempted']} items, tail = p{t['percentile']:.0f} "
              f"with {t['beyond']} items beyond)")
        print(f"  {'':<14} {'scaled':>12} {'wall':>12}")
        for key, value, measured, unit in rows:
            print(f"  {key:<14} {value:12.4f} {measured:12.4f} {unit}")
        code |= result["failed"] > 0
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--compare", nargs=2, metavar="RESULT", help="compare output digests")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    threads = pin_threads()
    load_program()
    from perfbench.workloads import WORKLOADS

    if args.all:
        return run_all(args.seed, args.seconds)
    if args.record_references:
        return record_references([args.workload] if args.workload else list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    refs = None
    if args.seed == DEFAULT_SEED:
        refs = load_references()["workloads"].get(args.workload)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          references=refs, import_runs=time_imports())
    path = write_result(result, environment(threads))
    t = result["tail"]
    print(f"# {args.workload}: {result['attempted']} items, {result['failed']} failed, "
          f"item_tail_s is p{t['percentile']:.1f} with {t['beyond']} items beyond; {path}")
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
