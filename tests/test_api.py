"""The public surface: every exported name resolves to its defining module."""

import importlib
from dataclasses import fields
from pathlib import Path

import spxkit
from spxkit import SlicParams, SuperpixelPartition


def test_every_export_resolves_and_is_listed_by_its_module():
    assert len(set(spxkit.__all__)) == len(spxkit.__all__)
    for name in spxkit.__all__:
        obj = getattr(spxkit, name)
        module = importlib.import_module(obj.__module__)
        assert getattr(module, name) is obj, name
        assert name in module.__all__, f"{name} missing from {module.__name__}.__all__"


def test_slic_params_has_only_the_knobs_callers_set():
    assert [f.name for f in fields(SlicParams)] == ["num_superpixels", "compactness"]


def test_partition_stores_only_its_labels():
    assert [f.name for f in fields(SuperpixelPartition)] == ["labels"]


def test_only_core_checks_integer_type():
    """Every other module checks a count through ``core.check_count``."""
    modules = Path(spxkit.__file__).parent.glob("*.py")
    users = sorted(p.name for p in modules if "Integral" in p.read_text())
    assert users == ["core.py"]
