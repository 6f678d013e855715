"""Every boundary the benchmark tracer wraps still exists in the package.

perfbench/tracer.py is loaded by path and only read: its BOUNDARIES table
names each traced function or constructor by module and attribute path,
and each entry is resolved here the way the tracer resolves it, so a renamed
or removed boundary fails in the unit suite rather than first in the
benchmark self-test.  The fiber command must also reach the boundaries
that the benchmark requires to fire on its pair3 and cyclic workloads.
"""
import importlib.util
from pathlib import Path

import pytest

from qgw import cli
from qgw.linalg import DEFAULT_TOL

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


FIBER_FIRES = ["linalg.intersect_null_spaces", "staralg.StarAlgebra.commutant"]


@pytest.mark.parametrize("args", [["gen-groupoid", "--pair", "2"],
                                  ["gen-group", "--order", "3"]],
                         ids=["pair2", "z3"])
def test_fiber_reaches_the_fired_boundaries(args, tmp_path, monkeypatch,
                                            capsys):
    path = str(tmp_path / "bundle.json")
    assert cli.main(args + ["--out", path]) == 0
    calls = dict.fromkeys(FIBER_FIRES, 0)
    modules = tracer.qgw_modules()
    for name in FIBER_FIRES:
        module, path_in = tracer.BOUNDARIES[name]
        for owner, attr in tracer._targets(modules, module, path_in):
            original = vars(owner)[attr]

            def counted(*a, _name=name, _original=original, **k):
                calls[_name] += 1
                return _original(*a, **k)

            # a function is rebound in every module that imports it
            holders = [owner] if isinstance(owner, type) else [
                mod for mod in modules.values()
                if vars(mod).get(attr) is original]
            for holder in holders:
                monkeypatch.setattr(holder, attr, counted)
    cli.certify_fiber(cli.BundleContext(path, DEFAULT_TOL))
    assert all(calls.values()), calls
