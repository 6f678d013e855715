"""Every boundary the benchmark tracer wraps still exists in the package.

perfbench/tracer.py is loaded by path and only read: its BOUNDARIES table
names each traced function or constructor by module and attribute path,
and each entry is resolved here the way the tracer resolves it, so a renamed
or removed boundary fails in the unit suite rather than first in the
benchmark self-test.
"""
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("name", sorted(tracer.BOUNDARIES))
def test_traced_boundary_resolves(name):
    module, path = tracer.BOUNDARIES[name]
    targets = tracer._targets(tracer.qgw_modules(), module, path)
    assert targets, f"{name}: {module}.{path} matches nothing"
    for owner, attr in targets:
        assert callable(vars(owner)[attr]), f"{name}: {attr} not callable"
