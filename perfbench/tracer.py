"""Run one qgw command with its layer boundaries wrapped in timing spans.

    python3 perfbench/tracer.py TRACE.json <qgw arguments...>

behaves like `python3 -m qgw.cli <qgw arguments...>` (same output, same exit
code) and additionally writes TRACE.json with, per boundary, the number of
calls, the total time (outermost calls only, so recursion is not counted
twice) and the self time (duration minus the time spent in wrapped children),
plus the counters described in perfbench/README.md.

Nothing under src/ is edited: every boundary is wrapped here, after import.
A module-level function is replaced in every module that binds it (for
example `cbase_from_state` lives in cbase, cli and fixtures); a method or
constructor is replaced on its class, which every binding of the class
shares.  After patching, every qgw module and class namespace is scanned for
a surviving reference to an unwrapped original; any hit is written to the
trace as `unpatched`, and the benchmark treats it as a failed run.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict

# boundary name -> (module, attribute path); "serialize.decode" is expanded
# to every decode_* function of serialize
BOUNDARIES = {
    "linalg.intersect_null_spaces": ("linalg", "intersect_null_spaces"),
    "linalg.QuotientRealization": ("linalg", "QuotientRealization.__init__"),
    "linalg.induced_between": ("linalg", "induced_between"),
    "staralg.StarAlgebra": ("staralg", "StarAlgebra.__init__"),
    "staralg.StarAlgebra.commutant": ("staralg", "StarAlgebra.commutant"),
    "staralg.StarAlgebra.center": ("staralg", "StarAlgebra.center"),
    "staralg.algebra_from_generators": ("staralg", "algebra_from_generators"),
    "staralg.rep_report": ("staralg", "rep_report"),
    "gns.gns": ("gns", "gns"),
    "gns.GnsTriple.certificates": ("gns", "GnsTriple.certificates"),
    "cbase.cbase_from_state": ("cbase", "cbase_from_state"),
    "cbase.CStarBase.standard_report": ("cbase", "CStarBase.standard_report"),
    "cfact.Factorization": ("cfact", "Factorization.__init__"),
    "cfact.Factorization.rho_report": ("cfact", "Factorization.rho_report"),
    "rtensor.rtp_state": ("rtensor", "rtp_state"),
    "rtensor.rtp_cstar": ("rtensor", "rtp_cstar"),
    "rtensor.phi_unitary": ("rtensor", "phi_unitary"),
    "rtensor.nest_left": ("rtensor", "nest_left"),
    "rtensor.nest_right": ("rtensor", "nest_right"),
    "fiber.fiber_classical": ("fiber", "fiber_classical"),
    "fiber.fiber_spatial": ("fiber", "fiber_spatial"),
    "fiber.is_morphism": ("fiber", "is_morphism"),
    "fiber.transported_match": ("fiber", "transported_match"),
    "hopf.check_hopf_state": ("hopf", "check_hopf_state"),
    "hopf.check_hopf_cstar": ("hopf", "check_hopf_cstar"),
    "hopf.groupoid_hopf": ("hopf", "groupoid_hopf"),
    "pmu.check_pmu_state": ("pmu", "check_pmu_state"),
    "pmu.check_pmu_cstar": ("pmu", "check_pmu_cstar"),
    "pmu.groupoid_pmu": ("pmu", "groupoid_pmu"),
    "fixtures.linked_bundle": ("fixtures", "linked_bundle"),
    "serialize.canonical_dumps": ("serialize", "canonical_dumps"),
    "serialize.decode": ("serialize", "decode_*"),
    "report.checks_from_residuals": ("report", "checks_from_residuals"),
    "cli.load_bundle": ("cli", "load_bundle"),
    "cli.load_squares": ("cli", "load_squares"),
}

COMPLEX_BYTES = 16


class Recorder:
    """Span statistics and counters for one process."""

    def __init__(self):
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.counters = defaultdict(float)
        self.maxima = {}
        self._stack = []         # child time accumulated per open span
        self._open = defaultdict(int)

    def add(self, name: str, amount: float):
        self.counters[name] += amount

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            self._open[name] += 1
            start = time.perf_counter()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(self, fn, args, kwargs)
            finally:
                dur = time.perf_counter() - start
                child = self._stack.pop()
                self._open[name] -= 1
                stats = self.spans.setdefault(name, [0, 0.0, 0.0])
                stats[0] += 1
                stats[2] += dur - child
                if not self._open[name]:
                    stats[1] += dur
                if self._stack:
                    self._stack[-1] += dur

        return wrapper

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "maxima": self.maxima,
        }


def _probe_null_spaces(rec, fn, args, kwargs):
    blocks, n_unknowns, *rest = args
    if not isinstance(blocks, (list, tuple)):
        blocks = list(blocks)
    rec.add("linalg.intersect_null_spaces.block_bytes",
            sum(b.shape[0] * b.shape[1] * COMPLEX_BYTES for b in blocks))
    rows = fn(blocks, n_unknowns, *rest, **kwargs)
    rec.add("linalg.intersect_null_spaces.kept", rows.shape[0])
    rec.add("linalg.intersect_null_spaces.unknowns", n_unknowns)
    return rows


def _probe_quotient(rec, fn, args, kwargs):
    out = fn(*args, **kwargs)
    realization = args[0]
    n = realization.plain_dim
    rec.add("linalg.QuotientRealization.gram_bytes", n * n * COMPLEX_BYTES)
    rec.add("linalg.QuotientRealization.kept", realization.dim)
    rec.add("linalg.QuotientRealization.plain", n)
    return out


def _probe_checks(rec, fn, args, kwargs):
    checks = fn(*args, **kwargs)
    for c in checks:
        if c.passed and c.threshold > 0:
            rec.peak("report.max_pass_ratio", c.residual / c.threshold)
    return checks


PROBES = {
    "linalg.intersect_null_spaces": _probe_null_spaces,
    "linalg.QuotientRealization": _probe_quotient,
    "report.checks_from_residuals": _probe_checks,
}


def qgw_modules() -> dict:
    import qgw
    return {
        info.name: importlib.import_module(f"qgw.{info.name}")
        for info in pkgutil.iter_modules(qgw.__path__)
    }


def _targets(modules: dict, module: str, path: str):
    """(owner, attribute) pairs named by one BOUNDARIES entry."""
    mod = modules[module]
    if path.endswith("*"):
        prefix = path[:-1]
        return [(mod, name) for name in sorted(vars(mod))
                if name.startswith(prefix) and callable(getattr(mod, name))]
    *owner_path, attr = path.split(".")
    owner = mod
    for part in owner_path:
        owner = getattr(owner, part)
    return [(owner, attr)]


def install(rec: Recorder):
    """Wrap every boundary.  Returns {qualname: [where it was replaced]} and
    the list of wrapped originals."""
    modules = qgw_modules()
    bindings = {}
    originals = []
    for name, (module, path) in BOUNDARIES.items():
        for owner, attr in _targets(modules, module, path):
            original = vars(owner)[attr]
            wrapped = rec.wrap(name, original, PROBES.get(name))
            originals.append(original)
            where = []
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                where.append(f"{owner.__module__}.{owner.__qualname__}")
            else:
                for mod_name, mod in modules.items():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            where.append(mod_name)
            bindings[f"{module}.{original.__qualname__}"] = where
    return bindings, originals


def unpatched(originals) -> list:
    """Module or class attributes still holding an unwrapped original."""
    ids = {id(fn) for fn in originals}
    hits = []
    for mod_name, mod in qgw_modules().items():
        for key, value in vars(mod).items():
            if id(value) in ids:
                hits.append(f"{mod_name}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if id(member) in ids:
                        hits.append(f"{mod_name}.{key}.{attr}")
    return hits


def main(argv) -> int:
    out_path, qgw_args = argv[0], argv[1:]
    rec = Recorder()
    bindings, originals = install(rec)
    missed = unpatched(originals)
    from qgw import cli
    try:
        return cli.main(qgw_args)
    finally:
        doc = rec.to_json()
        doc["bindings"] = bindings
        doc["unpatched"] = missed
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
