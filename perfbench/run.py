"""Benchmark of the qgw command line, end to end and layer by layer.

    python3 perfbench/run.py --workload pair3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Run from the root of a source checkout.  Every qgw command runs as its own
child process (`python3 -m qgw.cli`, with src/ on PYTHONPATH), strictly one
at a time: a closed loop with a single client.  A run first writes the
workload's bundles with the gen-* commands (three times, for setup_s), then
repeats passes over the workload's command list for about --seconds (at
least one pass); every metric is the median over passes of its per-pass
value.  Every command's exit code, verdict and check names with
pass/fail are compared with perfbench/expected.json; a mismatch or a
traceback is a failed command run.

--trace 1 runs one untraced pass, then the set-up and one pass again under
perfbench/tracer.py, and reports the per-layer metrics of BENCHMARK.json
instead of the end-to-end ones.  The traced run also checks itself: every
boundary must fire on the workloads listed in FIRES, the tracer must leave
no unwrapped binding, and traced verdicts and bundles must equal untraced
ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; everything above it is a readable report.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
TRACER = HERE / "tracer.py"

CHECK_COMMANDS = (
    "gns", "base-check", "factorize", "rtp", "phi", "fiber",
    "morphism-check", "hopf-check", "pmu-check", "equiv-check",
)
CONSTRUCT = ("gns", "base-check", "factorize", "rtp", "phi")
COMMAND_METRICS = {
    "fiber": "fiber_s",
    "morphism-check": "morphism_check_s",
    "hopf-check": "hopf_check_s",
    "pmu-check": "pmu_check_s",
    "equiv-check": "equiv_check_s",
}
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0


# workloads


@dataclass
class Workload:
    name: str
    bundles: dict                       # label -> gen-* arguments
    runs: list                          # (command, label) in pass order
    # runs per pass of a (command, label) pair, where one run of a short
    # command is too noisy to stand alone; default 1
    repeats: dict = field(default_factory=dict)


def _seed_stream(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def pair3(seed: int) -> Workload:
    bundles = {
        "pair2": ["gen-groupoid", "--pair", "2"],
        "pair3": ["gen-groupoid", "--pair", "3"],
    }
    # equiv-check on pair(3) takes about 30 s on its own and repeats the work
    # of fiber + hopf-check + pmu-check; it does not fit the run budget, so
    # it runs on pair(2)
    runs = [(c, "pair3") for c in CHECK_COMMANDS if c != "equiv-check"]
    runs.append(("equiv-check", "pair2"))
    repeats = {(c, "pair3"): 2 for c in CONSTRUCT}
    repeats.update({("morphism-check", "pair3"): 3, ("equiv-check", "pair2"): 8})
    return Workload("pair3", bundles, runs, repeats)


def cyclic(seed: int) -> Workload:
    perturb = _seed_stream(seed, "hopf-perturb").randrange(2 ** 31)
    # order 2 is left to random-blocks: its commands time interpreter
    # start-up only; order 5 alone would take 30 s and 3.8 GB in fiber
    bundles = {f"z{n}": ["gen-group", "--order", str(n)] for n in (3, 4)}
    bundles["z3-swap"] = ["gen-group", "--order", "3", "--variant", "swap"]
    bundles["z4-phase"] = ["gen-group", "--order", "4", "--variant", "phase"]
    bundles["z3-hopf-perturb"] = [
        "gen-group", "--order", "3", "--hopf-perturb", str(perturb),
    ]
    runs = [(c, f"z{n}") for n in (3, 4) for c in CHECK_COMMANDS]
    # seeded negative controls, expected to FAIL with exit code 1 (the swap
    # control passes equiv-check: both flavors agree that it fails)
    runs += [
        ("pmu-check", "z3-swap"), ("equiv-check", "z3-swap"),
        ("pmu-check", "z4-phase"), ("hopf-check", "z3-hopf-perturb"),
    ]
    repeats = {pair: 2 for pair in runs
               if pair[0] in ("morphism-check", "hopf-check", "pmu-check")}
    return Workload("cyclic", bundles, runs, repeats)


RANDOM_SHAPES = {
    "blocks-3,2,1": ["--blocks", "3,2,1"],
    "blocks-3,2,1-mult2": [
        "--blocks", "3,2,1", "--mult-left", "2", "--mult-right", "2",
    ],
    "blocks-4,2,1": ["--blocks", "4,2,1"],
}


def random_blocks(seed: int) -> Workload:
    stream = _seed_stream(seed, "random-base")
    bundles = {
        label: ["gen-random-base", *shape, "--seed",
                str(stream.randrange(2 ** 31))]
        for label, shape in RANDOM_SHAPES.items()
    }
    # random bases carry no hopf or pmu section; the smallest group bundle
    # gives those three commands an input on which commutant and quotient
    # work stay negligible
    bundles["z2"] = ["gen-group", "--order", "2"]
    runs = [(c, label) for label in RANDOM_SHAPES
            for c in (*CONSTRUCT, "fiber", "equiv-check")]
    small = [(c, "z2") for c in ("morphism-check", "hopf-check", "pmu-check")]
    repeats = dict.fromkeys(small, 16)
    repeats.update({(c, label): 2 for c in ("fiber", "equiv-check")
                    for label in RANDOM_SHAPES})
    return Workload("random-blocks", bundles, runs + small, repeats)


WORKLOADS = {"pair3": pair3, "cyclic": cyclic, "random-blocks": random_blocks}


def make_workload(name: str, seed: int) -> Workload:
    wl = WORKLOADS[name](seed)
    wl.runs = [pair for pair in wl.runs
               for _ in range(wl.repeats.get(pair, 1))]
    _seed_stream(seed, f"order:{name}").shuffle(wl.runs)
    return wl


# running one command


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    verdict: str
    checks: dict
    traceback: bool

    def record(self) -> dict:
        return {"exit": self.exit_code, "verdict": self.verdict,
                "checks": self.checks}


VERDICT_LINE = re.compile(r"^(\S+): (PASS|FAIL|ERROR)$")
CHECK_LINE = re.compile(r"^\s+\[(pass|FAIL)\] (\S+)\s")


def parse_report(text: str):
    lines = text.splitlines()
    m = VERDICT_LINE.match(lines[0]) if lines else None
    verdict = m.group(2).lower() if m else "unparsed"
    checks = {}
    for line in lines[1:]:
        c = CHECK_LINE.match(line)
        if c:
            checks[c.group(2)] = c.group(1) == "pass"
    return verdict, checks


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QGW_TOLERANCE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_command(argv: list, env: dict, trace_path: Path | None = None) -> Outcome:
    """Run one qgw command to completion and reap it with its rusage."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "qgw.cli", *argv]
    else:
        cmd = [sys.executable, str(TRACER), str(trace_path), *argv]
    out_path, err_path = WORK / "child.out", WORK / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=WORK)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    verdict, checks = parse_report(text)
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                   verdict, checks, "Traceback" in stderr)


# passes and their gate


@dataclass
class Tally:
    expected: dict
    workload: str
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)

    def gate(self, label: str, command: str, outcome: Outcome):
        self.attempted += 1
        want = self.expected.get(self.workload, {}).get(label, {}).get(command)
        ok = not outcome.traceback and want == outcome.record()
        if not ok:
            self.failed += 1
            self.mismatches.append(
                f"{command} on {label}: got {outcome.record()}"
                f"{' with a traceback' if outcome.traceback else ''},"
                f" expected {want}"
            )


def bundle_path(label: str) -> Path:
    return WORK / f"{label}.json"


def gen_args(wl: Workload, label: str) -> list:
    return [*wl.bundles[label], "--out", bundle_path(label).name]


def run_setup(wl: Workload, env: dict, tally: Tally, traces=None) -> float:
    """Write every bundle of the workload; returns the summed wall time."""
    total = 0.0
    for label in wl.bundles:
        trace = traces.next() if traces else None
        outcome = run_command(gen_args(wl, label), env, trace)
        tally.gate(label, wl.bundles[label][0], outcome)
        total += outcome.wall_s
    return total


def run_pass(runs: list, env: dict, tally: Tally, traces=None):
    """Run the (command, label) list once; returns the wall times per pair,
    the outcome record per pair, the largest peak RSS and the pass wall."""
    samples, verdicts, peak = {}, {}, 0.0
    start = time.perf_counter()
    for command, label in runs:
        trace = traces.next() if traces else None
        outcome = run_command([command, "--in", bundle_path(label).name],
                              env, trace)
        tally.gate(label, command, outcome)
        verdicts[(command, label)] = outcome.record()
        samples.setdefault((command, label), []).append(outcome.wall_s)
        peak = max(peak, outcome.peak_rss_mb)
    return samples, verdicts, peak, time.perf_counter() - start


# end-to-end run


E2E_UNITS = {
    "pass_s": "s", "construct_s": "s", "fiber_s": "s",
    "morphism_check_s": "s", "hopf_check_s": "s", "pmu_check_s": "s",
    "equiv_check_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def command_sums(per_pair: dict) -> dict:
    """Per-pair values summed into the timing metrics."""
    def total(commands):
        return sum(v for (c, _), v in per_pair.items() if c in commands)

    sums = {"pass_s": sum(per_pair.values()), "construct_s": total(CONSTRUCT)}
    for command, name in COMMAND_METRICS.items():
        sums[name] = total((command,))
    return sums


def run_e2e(wl: Workload, seconds: float, env: dict, tally: Tally) -> dict:
    setups = [run_setup(wl, env, tally) for _ in range(SETUP_REPEATS)]
    # one value of every metric per pass; each command on each bundle counts
    # once in a pass, at the mean of its runs in that pass.  The host's speed
    # switches between a fast and a slow phase every few seconds, so a median
    # over single runs of a short command jumps with the share of runs that
    # fell in a slow phase; a per-pass mean follows that share smoothly.
    per_pass, walls = [], []
    start = time.perf_counter()
    while True:
        got, _, peak, wall = run_pass(wl.runs, env, tally)
        values = command_sums({p: statistics.fmean(v) for p, v in got.items()})
        values["peak_rss_mb"] = peak
        per_pass.append(values)
        walls.append(wall)
        # start another pass only if it would end nearer to --seconds than
        # stopping now does, so a run lasts about --seconds or one pass
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) / 2 > seconds:
            break
    series = {name: [v[name] for v in per_pass] for name in per_pass[0]}
    series["setup_s"] = setups
    medians = {name: statistics.median(v) for name, v in series.items()}
    low = {name: quartiles(v)[0] for name, v in series.items()}
    high = {name: quartiles(v)[1] for name, v in series.items()}
    counts = {name: len(v) for name, v in series.items()}
    print(f"\n[{wl.name}] {len(walls)} pass(es) of {len(wl.runs)} command runs"
          f" ({', '.join(f'{w:.2f} s' for w in walls)}),"
          f" {SETUP_REPEATS} set-ups of {len(wl.bundles)} bundles")
    print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}  {'n':<5}unit")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<18}{medians[name]:>12.4f}{low[name]:>12.4f}"
              f"{high[name]:>12.4f}  {int(counts[name]):<5}{unit}")
    return {name: {"value": medians[name], "unit": unit}
            for name, unit in E2E_UNITS.items()}


# traced run


# boundary -> workloads on which it must fire at least once (the "most work"
# column of README.md); an empty set means no CLI command reaches it
FIRES = {
    "staralg.StarAlgebra.commutant": {"pair3", "cyclic"},
    "staralg.StarAlgebra.center": set(),
    "linalg.intersect_null_spaces": {"pair3", "cyclic"},
    "linalg.QuotientRealization": {"pair3"},
    "rtensor.nest_left": {"pair3"},
    "rtensor.nest_right": {"pair3"},
    "linalg.induced_between": {"pair3"},
    "fiber.fiber_classical": {"pair3", "cyclic"},
    "fiber.fiber_spatial": {"pair3", "cyclic"},
    "fiber.is_morphism": {"pair3", "cyclic"},
    "fiber.transported_match": {"pair3", "cyclic"},
    "hopf.check_hopf_state": {"pair3"},
    "hopf.check_hopf_cstar": {"pair3"},
    "pmu.check_pmu_state": {"pair3"},
    "pmu.check_pmu_cstar": {"pair3"},
    "gns.gns": {"random-blocks", "pair3"},
    "gns.GnsTriple.certificates": {"random-blocks"},
    "staralg.StarAlgebra": {"random-blocks"},
    "staralg.algebra_from_generators": {"random-blocks"},
    "staralg.rep_report": {"random-blocks"},
    "cfact.Factorization": {"random-blocks"},
    "cfact.Factorization.rho_report": {"random-blocks"},
    "cbase.CStarBase.standard_report": {"random-blocks"},
    "cli.load_bundle": {"random-blocks"},
    "serialize.decode": {"random-blocks"},
    "cli.load_squares": {"pair3"},
    "cbase.cbase_from_state": {"pair3"},
    "rtensor.rtp_state": {"pair3"},
    "rtensor.rtp_cstar": {"pair3"},
    "rtensor.phi_unitary": {"pair3"},
    "fixtures.linked_bundle": {"random-blocks"},
    "hopf.groupoid_hopf": {"pair3", "cyclic", "random-blocks"},
    "pmu.groupoid_pmu": {"pair3", "cyclic", "random-blocks"},
    "serialize.canonical_dumps": {"pair3", "cyclic", "random-blocks"},
    "report.checks_from_residuals": {"pair3", "cyclic", "random-blocks"},
}

# boundaries reported with calls, total_s and self_s; the rest report calls
TIMED = [
    "staralg.StarAlgebra.commutant", "linalg.intersect_null_spaces",
    "linalg.QuotientRealization", "rtensor.nest_left", "rtensor.nest_right",
    "linalg.induced_between", "fiber.fiber_classical", "fiber.fiber_spatial",
    "fiber.is_morphism", "fiber.transported_match", "hopf.check_hopf_state",
    "hopf.check_hopf_cstar", "pmu.check_pmu_state", "pmu.check_pmu_cstar",
    "gns.gns", "gns.GnsTriple.certificates", "staralg.StarAlgebra",
    "staralg.algebra_from_generators", "staralg.rep_report",
    "cfact.Factorization", "cfact.Factorization.rho_report",
    "cbase.CStarBase.standard_report", "cli.load_bundle", "serialize.decode",
    "rtensor.rtp_state", "rtensor.rtp_cstar", "rtensor.phi_unitary",
    "hopf.groupoid_hopf", "pmu.groupoid_pmu", "serialize.canonical_dumps",
]
CALLS_ONLY = [
    "staralg.StarAlgebra.center", "cli.load_squares",
    "cbase.cbase_from_state", "fixtures.linked_bundle",
    "report.checks_from_residuals",
]


class TraceFiles:
    def __init__(self):
        self.paths = []

    def next(self) -> Path:
        path = WORK / f"trace-{len(self.paths):04d}.json"
        self.paths.append(path)
        return path


def merge_traces(paths) -> dict:
    spans, counters, maxima = {}, {}, {}
    unpatched, bindings = set(), {}
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        for name, (calls, total, self_s) in doc["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in doc["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, value in doc["maxima"].items():
            maxima[name] = max(maxima.get(name, value), value)
        unpatched.update(doc["unpatched"])
        bindings = doc["bindings"]
    return {"spans": spans, "counters": counters, "maxima": maxima,
            "unpatched": sorted(unpatched), "bindings": bindings}


def layer_metrics(trace: dict) -> dict:
    spans, counters = trace["spans"], trace["counters"]
    out = {}
    for name in TIMED + CALLS_ONLY:
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        if name in TIMED:
            out[f"{name}.total_s"] = (total, "s")
            out[f"{name}.self_s"] = (self_s, "s")

    def ratio(num, den):
        return counters.get(num, 0.0) / counters[den] if counters.get(den) \
            else 0.0

    out["linalg.intersect_null_spaces.block_bytes"] = (
        counters.get("linalg.intersect_null_spaces.block_bytes", 0.0), "B")
    out["linalg.intersect_null_spaces.kept_ratio"] = (ratio(
        "linalg.intersect_null_spaces.kept",
        "linalg.intersect_null_spaces.unknowns"), "ratio")
    out["linalg.QuotientRealization.gram_bytes"] = (
        counters.get("linalg.QuotientRealization.gram_bytes", 0.0), "B")
    out["linalg.QuotientRealization.kept_ratio"] = (ratio(
        "linalg.QuotientRealization.kept",
        "linalg.QuotientRealization.plain"), "ratio")
    out["report.max_pass_ratio"] = (
        trace["maxima"].get("report.max_pass_ratio", 0.0), "ratio")
    return out


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_traced(wl: Workload, env: dict, tally: Tally):
    run_setup(wl, env, tally)
    digests = {label: file_digest(bundle_path(label)) for label in wl.bundles}
    once = list(dict.fromkeys(wl.runs))
    _, plain_verdicts, _, plain_s = run_pass(once, env, tally)
    traces = TraceFiles()
    run_setup(wl, env, tally, traces)
    _, traced_verdicts, _, traced_s = run_pass(once, env, tally, traces)
    trace = merge_traces(traces.paths)
    for path in traces.paths:
        path.unlink()

    problems = [f"binding left unwrapped: {b}" for b in trace["unpatched"]]
    for label, digest in digests.items():
        if file_digest(bundle_path(label)) != digest:
            problems.append(f"traced gen wrote a different bundle {label}")
    for key, record in plain_verdicts.items():
        if traced_verdicts.get(key) != record:
            problems.append(f"traced verdict differs for {key}")
    for name, where in FIRES.items():
        if wl.name in where and trace["spans"].get(name, (0,))[0] == 0:
            problems.append(f"boundary {name} never fired on {wl.name}")

    metrics = layer_metrics(trace)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    print(f"\n[{wl.name}] traced pass of {len(once)} commands")
    for name, where in sorted(trace["bindings"].items()):
        print(f"  binding {name}: {', '.join(where)}")
    print(f"  {'metric':<52}{'value':>16}  unit")
    for name, (value, unit) in metrics.items():
        note = "  (computed from shapes)" if unit == "B" else ""
        print(f"  {name:<52}{value:>16.6g}  {unit}{note}")
    for p in problems:
        print(f"  SELF-TEST FAILED: {p}")
    return ({name: {"value": v, "unit": u} for name, (v, u) in
             metrics.items()}, problems)


# environment


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem / 2 ** 20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": commit,
    }


# entry point


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def record_expected(names, seeds) -> int:
    """Rewrite the records of the named workloads in expected.json from one
    set-up and pass per seed; every seed must give the same records."""
    env = child_env()
    expected = load_expected() if EXPECTED.exists() else {}
    for name in names:
        expected.pop(name, None)
        for seed in seeds:
            wl = make_workload(name, seed)
            tally = Tally({}, name)
            got = {}
            for label in wl.bundles:
                o = run_command(gen_args(wl, label), env)
                got.setdefault(label, {})[wl.bundles[label][0]] = o.record()
            once = list(dict.fromkeys(wl.runs))
            for (command, label), rec in run_pass(once, env, tally)[1].items():
                got.setdefault(label, {})[command] = rec
            if name in expected and expected[name] != got:
                print(f"seed {seed} of {name} changes the expected records",
                      file=sys.stderr)
                return 1
            expected[name] = got
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="*", metavar="SEED",
                        help="rewrite expected.json from these seeds")
    args = parser.parse_args(argv)

    if not (SRC / "qgw" / "cli.py").is_file():
        print(f"no qgw sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record is not None:
        return record_expected(names, args.record or [0])

    env = child_env()
    expected = load_expected()
    print("environment:", json.dumps(environment(), sort_keys=True))
    print(f"closed loop, one client, children run one at a time;"
          f" seed {args.seed}, {args.seconds:g} s per workload")
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        wl = make_workload(name, args.seed)
        tally = Tally(expected, name)
        if args.trace:
            got, problems = run_traced(wl, env, tally)
            correct = correct and not problems
        else:
            got = run_e2e(wl, args.seconds, env, tally)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in got.items()})
        for line in tally.mismatches:
            print(f"  MISMATCH: {line}")
        print(f"  error_rate {tally.failed / tally.attempted:.4f}"
              f" ({tally.failed} failed of {tally.attempted} command runs)")
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
