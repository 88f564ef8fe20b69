"""Fixtures that load the benchmark's modules under ``perfbench/``.

perfbench is a directory of scripts that import one another by bare name
(``from common import ...``), so each module is loaded from its file, with
the modules it imports made importable only while it runs.  perfbench is
not changed by loading it.
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
