"""Tests of the benchmark itself, on reduced-size inputs.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

import copy
import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spxkit.cli  # noqa: E402

from perfbench import run  # noqa: E402
from perfbench.calibrate import REFERENCE_S, reference_seconds, scaled  # noqa: E402
from perfbench.tracing import PER_LAYER, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NAMES = list(WORKLOADS)


def smoke(name, trace=False, references=None, min_items=1):
    return run.run_workload(name, seed=3, seconds=0.0, trace=trace, smoke=True,
                            references=references, min_items=min_items)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_and_reports_every_metric(name):
    result = smoke(name)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, [it["failed"] for it in result["items"]]
    line = run.result_line(result)
    assert line["correct"] is True
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    # One kernel time before each item and one after the last.
    assert len(result["kernel_runs_s"]) == result["attempted"] + 1
    scaled_items = [it["scaled_seconds"] for it in result["items"]]
    assert line["metrics"]["item_p50_s"]["value"] == statistics.median(scaled_items)


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_counts_and_digests(name):
    first, second = smoke(name, trace=True), smoke(name, trace=True)
    assert set(run.result_line(first)["metrics"]) == set(PER_LAYER)
    counts = [k for k, unit in PER_LAYER.items() if unit != "s" and not k.startswith("trace.")]
    assert {k: first["per_layer"][k] for k in counts} == {k: second["per_layer"][k] for k in counts}
    assert [it["digests"] for it in first["items"]] == [it["digests"] for it in second["items"]]


def test_wrong_reference_digest_is_a_failure():
    name = "spx-noisy"
    good = [it["digests"] for it in smoke(name, min_items=2)["items"]]
    assert smoke(name, references=good, min_items=2)["failed"] == 0
    bad = copy.deepcopy(good)
    bad[1]["labels.mspt"] = "0" * 64
    result = smoke(name, references=bad, min_items=2)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert "labels.mspt" in result["items"][1]["failed"]
    assert run.result_line(result)["correct"] is False


def test_compare_mode_flags_changed_outputs(tmp_path, capsys):
    result = smoke("msp-train", min_items=2)
    result.pop("spans", None)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result))
    b.write_text(json.dumps(result))
    assert run.compare(str(a), str(b)) == 0
    result["items"][1]["digests"]["grad"] = "0" * 64
    b.write_text(json.dumps(result))
    assert run.compare(str(a), str(b)) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["mismatched_items"] == [1]


def test_tracer_restores_the_program_on_exit():
    original = spxkit.cli.slic_segment
    with Tracer():
        assert spxkit.cli.slic_segment is not original
    assert spxkit.cli.slic_segment is original


def test_tail_is_never_below_the_median():
    times = [float(i) for i in range(1, 19)]
    tail = run.tail(times)
    assert tail["value"] >= 9.0 and tail["items"] == 18
    tail = run.tail([float(i) for i in range(100)])
    assert tail["beyond"] == 10 and tail["value"] == 89.0


def test_scaling_divides_by_the_kernel_time_around_a_step():
    assert scaled(2.0, REFERENCE_S, REFERENCE_S) == pytest.approx(2.0)
    # A machine running at half speed doubles both the step and the kernel.
    assert scaled(4.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(2.0)
    assert scaled(3.0, REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(2.0)
    assert reference_seconds() > 0

