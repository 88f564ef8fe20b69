"""Fixtures: the benchmark's modules under ``perfbench/``, and the recursion limit.

perfbench is a directory of scripts that import one another by bare name
(``from common import ...``), so each module is loaded from its file, with
the modules it imports made importable only while it runs.  perfbench is
not changed by loading it.

A test that depends on how deep Python may recurse sets the limit it
assumes through ``recursion_limit``; every test must leave the limit as it
found it, or it changes what the tests after it check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path, **imports):
    """The module at path, loaded under name with the modules imports names
    importable while it runs."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are made.
    added = {name: module, **imports}
    sys.modules.update(added)
    try:
        spec.loader.exec_module(module)
    finally:
        for key in added:
            del sys.modules[key]
    return module


@pytest.fixture(scope="module")
def common():
    return _load("perfbench_common", PERFBENCH / "common.py")


@pytest.fixture(scope="module")
def mutant(common):
    return _load("perfbench_mutant", PERFBENCH / "mutant.py", common=common)


@pytest.fixture(scope="module")
def scale(common):
    return _load("perfbench_scale", PERFBENCH / "scale.py", common=common)


@pytest.fixture(autouse=True)
def _keeps_the_recursion_limit():
    limit = sys.getrecursionlimit()
    yield
    left = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    assert left == limit, f"the test left the recursion limit at {left}, not {limit}"


@pytest.fixture
def recursion_limit():
    """``sys.setrecursionlimit``, undone after the test."""
    saved = sys.getrecursionlimit()
    yield sys.setrecursionlimit
    sys.setrecursionlimit(saved)
