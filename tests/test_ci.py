"""The CI workflow runs the tier-1 command that ROADMAP.md documents."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_documented_tier1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    roadmap = (ROOT / "ROADMAP.md").read_text()
    documented = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M).group(1)
    job = workflow["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [step.get("run") for step in job["steps"]]
    assert 'python -m pip install -e ".[test]"' in runs
    assert documented in runs


def test_yaml_is_in_the_test_extra():
    # Without PyYAML the workflow check above skips inside the very
    # workflow it checks.
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    assert re.search(r'"pyyaml\b', extra, re.I)
