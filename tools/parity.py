"""Parity of two source trees of qgw on a fixed set of bundles.

    python tools/parity.py OLD_TREE NEW_TREE

Each tree (a directory holding src/qgw) writes the twelve bundles of
BUNDLES with its own gen-* commands and runs the ten check commands on them,
except equiv-check on pair(3) and pair(4), one process per run; the two
trees run each (bundle, command) back to back, so a drift of the host's
speed reaches both alike.  Prints the exit-code counts of each tree, both
trees' peak RSS and CPU seconds (user + system) per run with their
differences and each tree's largest peak per command (from os.wait4, so
memory and time are read from the same runs as the verdicts), every run
whose peak rose by more than PEAK_RISE_MB or whose CPU time rose by more
than CPU_RISE, the paths at which each tree's bundles differ, every run
whose exit code, verdict or check names and pass/fail differ, and the
largest move of a residual that passes in both trees.  Exits 1 on a
difference in the runs; bundles that differ in bytes, and peaks and CPU
times that rose, are reported, not counted.
"""
import collections
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BUNDLES = {
    "pair2": ["gen-groupoid", "--pair", "2"],
    "pair3": ["gen-groupoid", "--pair", "3"],
    "pair4": ["gen-groupoid", "--pair", "4"],
    "z1": ["gen-group", "--order", "1"],
    "z3": ["gen-group", "--order", "3"],
    "z4": ["gen-group", "--order", "4"],
    "z3-swap": ["gen-group", "--order", "3", "--variant", "swap"],
    "z4-phase": ["gen-group", "--order", "4", "--variant", "phase"],
    "z3-hopf-perturb": ["gen-group", "--order", "3", "--hopf-perturb", "7"],
    "blocks-3,2,1-seed-1": ["gen-random-base", "--blocks", "3,2,1",
                            "--seed", "1"],
    "blocks-3,2,1-seed-2-mult-2": ["gen-random-base", "--blocks", "3,2,1",
                                   "--seed", "2", "--mult-left", "2",
                                   "--mult-right", "2"],
    "blocks-4,2,1-seed-3": ["gen-random-base", "--blocks", "4,2,1",
                            "--seed", "3"],
}
COMMANDS = ["gns", "base-check", "factorize", "rtp", "phi", "fiber",
            "morphism-check", "hopf-check", "pmu-check", "equiv-check"]
SKIPPED = {("pair3", "equiv-check"), ("pair4", "equiv-check")}
PEAK_RISE_MB = 1.0
CPU_RISE = 0.25


def qgw(tree: Path, argv: list, out: Path):
    """(exit code, peak RSS in MB, CPU seconds) of one qgw command run from
    tree's sources, writing its bundle or report to out."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    child = subprocess.Popen(
        [sys.executable, "-m", "qgw.cli", *argv, "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return (child.returncode, usage.ru_maxrss / 1024,
            usage.ru_utime + usage.ru_stime)


def run_check(tree: Path, work: Path, label: str, command: str):
    """(exit code, verdict, {check: (passed, residual)}, peak RSS in MB, CPU
    seconds) of one check command on one of tree's bundles; a run that ends
    in an error writes no report and has no checks."""
    report = work / f"{label}.{command}.json"
    code, peak, cpu = qgw(tree, [command, "--in", str(work / f"{label}.json")],
                          report)
    doc = json.loads(report.read_text()) if report.exists() else {}
    checks = {c["axiom"]: (c["residual"] is not None
                           and c["residual"] <= c["threshold"], c["residual"])
              for c in doc.get("checks", [])}
    return code, doc.get("verdict", "error"), checks, peak, cpu


def run_trees(trees: list, works: list) -> list:
    """One dict (bundle, command) -> run_check's tuple per tree, the trees'
    runs of each (bundle, command) taken back to back."""
    runs = [{} for _ in trees]
    for work in works:
        work.mkdir()
    for label, argv in BUNDLES.items():
        for tree, work in zip(trees, works):
            if qgw(tree, argv, work / f"{label}.json")[0] != 0:
                sys.exit(f"{tree}: {' '.join(argv)} failed")
        for command in COMMANDS:
            if (label, command) not in SKIPPED:
                for side, tree, work in zip(runs, trees, works):
                    side[label, command] = run_check(tree, work, label,
                                                     command)
    return runs


def diff_paths(old, new, path: str = "") -> list:
    """Paths at which two JSON documents differ; an encoded matrix or a
    list is one leaf, and a key present on one side only says which."""
    if not (isinstance(old, dict) and isinstance(new, dict)) \
            or {"rows", "cols", "data"} <= set(old):
        return [] if old == new else [path]
    out = []
    for key in sorted(set(old) | set(new)):
        where = f"{path}.{key}" if path else key
        if key not in old or key not in new:
            out.append(f"{where} ({'new' if key in new else 'old'} only)")
        else:
            out += diff_paths(old[key], new[key], where)
    return out


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    trees = [Path(arg).resolve() for arg in sys.argv[1:]]
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / side for side in ("old", "new")]
        old, new = run_trees(trees, works)
        for label in BUNDLES:
            docs = [json.loads((work / f"{label}.json").read_text())
                    for work in works]
            paths = diff_paths(*docs)
            print(f"bundle {label}: "
                  + (", ".join(paths) if paths else "identical"))
    for side, runs in (("old", old), ("new", new)):
        counts = collections.Counter(run[0] for run in runs.values())
        print(f"exit codes {side}: " + ", ".join(
            f"{n} x {code}" for code, n in sorted(counts.items())))
    for key in old:
        print(f"peak RSS {' '.join(key)}: old {old[key][3]:.2f} MB, new "
              f"{new[key][3]:.2f} MB, {new[key][3] - old[key][3]:+.2f} MB; "
              f"CPU old {old[key][4]:.2f} s, new {new[key][4]:.2f} s")
    for command in COMMANDS:
        peaks = [max(run[3] for (_, cmd), run in runs.items()
                     if cmd == command) for runs in (old, new)]
        print(f"largest peak RSS {command}: old {peaks[0]:.1f} MB, "
              f"new {peaks[1]:.1f} MB")
    rose = [key for key in old if new[key][3] - old[key][3] > PEAK_RISE_MB]
    print(f"{len(rose)} runs whose peak rose by more than {PEAK_RISE_MB:g} MB"
          + "".join(f"\n  {' '.join(key)}: {old[key][3]:.2f} -> "
                    f"{new[key][3]:.2f} MB" for key in rose))
    slower = [key for key in old if new[key][4] > (1 + CPU_RISE) * old[key][4]]
    print(f"{len(slower)} runs whose CPU time rose by more than "
          f"{CPU_RISE:.0%}" + "".join(
              f"\n  {' '.join(key)}: {old[key][4]:.2f} -> {new[key][4]:.2f} s"
              for key in slower))
    differences, move, where = 0, 0.0, None
    for key in old:
        (code_a, verdict_a, checks_a, *_), (code_b, verdict_b, checks_b,
                                             *_) = old[key], new[key]
        passed_a = {name: ok for name, (ok, _) in checks_a.items()}
        passed_b = {name: ok for name, (ok, _) in checks_b.items()}
        if (code_a, verdict_a, passed_a) != (code_b, verdict_b, passed_b):
            differences += 1
            print(f"DIFFERENT {' '.join(key)}: exit {code_a} -> {code_b}, "
                  f"{verdict_a} -> {verdict_b}, checks "
                  f"{sorted(set(passed_a.items()) ^ set(passed_b.items()))}")
            continue
        for name, (ok, residual) in checks_a.items():
            if ok and checks_b[name][0]:
                gap = abs(checks_b[name][1] - residual)
                if gap > move or where is None:
                    move, where = gap, f"{' '.join(key)} {name}"
    print(f"{differences} of {len(old)} runs differ")
    print(f"largest move of a passing residual: {move:.1e} ({where})")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
