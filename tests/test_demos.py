"""Every demo script runs to completion from an empty working directory."""

from pathlib import Path

import pytest

from _child import run_python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = run_python(demo, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
