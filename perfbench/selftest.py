"""Self-test of the traced run.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs `run.py --trace 1` on each workload (all of them by default) and fails
unless every run is correct: no binding left unwrapped, every boundary
fired on the workloads it is mapped to, and traced verdicts and bundles
equal the untraced ones.  Prints the self-test lines of each run.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main(names) -> int:
    failures = 0
    for name in names or WORKLOADS:
        got = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", "0", "--trace", "1"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = got.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if got.returncode == 0 and lines \
            else {"correct": False}
        for line in lines:
            if "SELF-TEST" in line or "MISMATCH" in line:
                print(f"{name}: {line.strip()}")
        ok = result["correct"]
        failures += not ok
        print(f"{name}: {'ok' if ok else 'FAILED'}"
              + ("" if got.returncode == 0 else f" (exit {got.returncode})"))
        if got.returncode != 0:
            print(got.stderr, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
