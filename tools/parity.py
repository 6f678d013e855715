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
difference in the runs; bundles that differ, and peaks and CPU times that
rose, are reported, not counted.

Bundles are compared by value: a matrix is equal when its shape and the
bits of its entries are, whether its data is written as base64 (format
version 2) or as [re, im] pairs (version 1), and the version itself is
printed, not compared.  A list of matrices that differs by value, such as a
stored generator list, is also read as a basis: the report says whether the
two lists span the same subspace (to SAME_SPAN) and gives the largest
distance of a unit vector of either span to the other.  A CPU time read
from one run per side follows the host's slow phases, so each (bundle,
command) whose CPU time rose is run RERUNS more times per side, the trees
alternating, and is listed only if the least of its new CPU times still
rose over the least of its old ones.
"""
import base64
import collections
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

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
RERUNS = 3
SAME_SPAN = 1e-12


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


def slower(trees: list, works: list, old: dict, new: dict) -> dict:
    """(bundle, command) -> least old and new CPU seconds, for each run
    whose CPU time rose by more than CPU_RISE on its first run per side and
    on the least of that and RERUNS more, taken alternately per side."""
    out = {}
    for key in old:
        if new[key][4] <= (1 + CPU_RISE) * old[key][4]:
            continue
        times = [[old[key][4]], [new[key][4]]]
        for _ in range(RERUNS):
            for side, tree, work in zip(times, trees, works):
                side.append(run_check(tree, work, *key)[4])
        least = min(times[0]), min(times[1])
        if least[1] > (1 + CPU_RISE) * least[0]:
            out[key] = least
    return out


def matrix_value(mat: dict):
    """An encoded matrix's shape and the little-endian bytes of its
    entries, from either layout of its data."""
    data = mat["data"]
    if isinstance(data, str):
        raw = base64.b64decode(data)
    else:
        raw = struct.pack(f"<{2 * len(data)}d",
                          *(x for entry in data for x in entry))
    return mat["rows"], mat["cols"], raw


def is_matrix(doc) -> bool:
    return isinstance(doc, dict) and {"rows", "cols", "data"} <= set(doc)


def span_note(old: list, new: list) -> str:
    """Whether two lists of encoded matrices of one shape span the same
    subspace, and the largest distance of a unit vector of either span to
    the other, each span read from an SVD of its flattened list."""
    spans = []
    for mats in (old, new):
        flat = np.array([np.frombuffer(matrix_value(m)[2], "<c16")
                         for m in mats])
        _, s, vh = np.linalg.svd(flat, full_matrices=False)
        spans.append(vh[s > 1e-9 * s[0] * max(flat.shape)])
    gap = max(np.max(np.linalg.norm(a - a @ b.conj().T @ b, axis=1),
                     initial=0.0) for a, b in (spans, spans[::-1]))
    same = len(spans[0]) == len(spans[1]) and gap <= SAME_SPAN
    return f"{'same' if same else 'different'} span, residual {gap:.1e}"


def diff_paths(old, new, path: str = "") -> list:
    """Paths at which two JSON documents differ; an encoded matrix, compared
    by value, or a list is one leaf, and a key present on one side only
    says which; a differing list of matrices of one shape carries its
    span_note."""
    if is_matrix(old) and is_matrix(new):
        return [] if matrix_value(old) == matrix_value(new) else [path]
    if isinstance(old, list) and isinstance(new, list):
        same = len(old) == len(new) and not any(
            diff_paths(a, b) for a, b in zip(old, new))
        if same:
            return []
        mats = old + new
        if mats and all(is_matrix(m) for m in mats) and len(
                {matrix_value(m)[:2] for m in mats}) == 1:
            return [f"{path} ({span_note(old, new)})"]
        return [path]
    if not (isinstance(old, dict) and isinstance(new, dict)):
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
            versions = [doc.pop("version", None) for doc in docs]
            paths = diff_paths(*docs)
            print(f"bundle {label}: "
                  + (", ".join(paths) if paths else "identical by value")
                  + f" (format version {versions[0]} -> {versions[1]})")
        rose_cpu = slower(trees, works, old, new)
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
    print(f"{len(rose_cpu)} runs whose least CPU time of {RERUNS + 1} rose "
          f"by more than {CPU_RISE:.0%}" + "".join(
              f"\n  {' '.join(key)}: {least[0]:.2f} -> {least[1]:.2f} s"
              for key, least in rose_cpu.items()))
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
