"""The public surface: every exported name resolves to its defining module."""

import ast
import importlib
from collections import Counter
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


def _references(tree: ast.AST) -> Counter:
    """Names a tree refers to: loads, attributes, imports and ``__all__`` entries."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            refs.update(elt.value for elt in node.value.elts)
    return refs


def test_every_module_function_is_referenced_elsewhere_in_the_package():
    """A module-level function goes with its last caller: each one is named
    somewhere in ``spxkit`` outside its own body (a call, an import or an
    ``__all__`` entry)."""
    trees = [ast.parse(p.read_text()) for p in Path(spxkit.__file__).parent.glob("*.py")]
    refs = sum((_references(tree) for tree in trees), Counter())
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and refs[node.name] == _references(node)[node.name]
    ]
    assert unused == []
