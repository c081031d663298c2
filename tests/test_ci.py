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


def test_versions_are_printed_before_the_tests():
    # Outputs are bit-exact per numpy version, so a digest failure in CI
    # cannot be read without the versions that produced it.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    runs = [step.get("run") or "" for step in workflow["jobs"]["tests"]["steps"]]
    install = runs.index('python -m pip install -e ".[test]"')
    tests = next(i for i, run in enumerate(runs) if "pytest" in run)
    printers = [
        i for i, run in enumerate(runs)
        if "numpy.__version__" in run and "scipy.__version__" in run
    ]
    assert printers and install < printers[0] < tests


def test_tests_job_has_a_timeout():
    # A hung run (say, a hypothesis search that never ends) would
    # otherwise hold a runner for GitHub's 6 h default.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    assert 0 < workflow["jobs"]["tests"]["timeout-minutes"] <= 60


def test_yaml_is_in_the_test_extra():
    # Without PyYAML the workflow check above skips inside the very
    # workflow it checks.
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1)
    assert re.search(r'"pyyaml\b', extra, re.I)


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_spxkit_deprecation_warnings_fail_the_suite(category):
    # Outputs are bit-exact per numpy version, so a deprecated numpy call
    # inside spxkit must fail tier-1 before a numpy release changes what
    # it returns. pyproject.toml turns such warnings into errors.
    import warnings

    with pytest.raises(category):
        warnings.warn_explicit("deprecated", category, "slic.py", 1, module="spxkit.slic")


def test_unhandled_thread_exceptions_fail_the_suite():
    # pytest only warns when an exception escapes a thread's target, so a
    # two-thread split that let its worker's error escape would pass.
    # pyproject.toml turns that warning into an error.
    pyproject = (ROOT / "pyproject.toml").read_text()
    filters = re.search(r"^filterwarnings = \[(.*?)^\]", pyproject, re.M | re.S).group(1)
    assert '"error::pytest.PytestUnhandledThreadExceptionWarning"' in filters


def test_message_passing_tests_also_run_on_one_cpu():
    # On a multi-core runner large maps and a cascade's SLIC scales take
    # their two-thread paths; a second run pinned to one CPU covers the
    # one-thread paths.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github/workflows/tier1.yml").read_text())
    runs = [step.get("run") or "" for step in workflow["jobs"]["tests"]["steps"]]
    pinned = [run for run in runs if "taskset -c 0 python -m pytest" in run]
    assert len(pinned) == 1
    for name in ("test_msgpass.py", "test_msgpass_oracle.py", "test_cascade_oracle.py",
                 "test_slic.py", "test_slic_oracle.py"):
        assert f"tests/{name}" in pinned[0].split()
