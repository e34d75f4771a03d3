"""The benchmark's traced names must exist in catport.

perfbench/tracing.py wraps each name in its TARGETS at run time; a name
that no longer resolves stops the traced benchmark run.  The module
imports no numpy and no catport, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name", _targets())
def test_traced_name_resolves(name):
    path = name.split(".")
    owner = importlib.import_module("catport." + path[0])
    for part in path[1:-1]:
        owner = getattr(owner, part)
    # the tracer reads a class attribute from the class's own __dict__
    if isinstance(owner, type):
        assert path[-1] in vars(owner)
    else:
        assert callable(getattr(owner, path[-1]))
