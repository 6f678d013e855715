"""The command line as its own process.

A command imports only the modules it runs, and `python3 -m qgw.cli` ends
through cli.run, which exits without tearing the interpreter down: its exit
code, its output and its --out file must be those of an in-process main().
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qgw.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
# children write to pipes block-buffered, as they do by default, so that
# output a hard exit would lose shows
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": os.pathsep.join(
           filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
# modules that only the fiber, morphism, hopf and pmu commands and the
# generators need; the constructions of rtp and phi need rtensor as well
HEAVY = {"qgw.fiber", "qgw.fixtures", "qgw.hopf", "qgw.pmu"}
PROBE = """
import sys
from qgw import cli
code = cli.main(sys.argv[1:])
sys.stderr.write(f"{code} " + " ".join(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """label -> path of the bundles the runs below read."""
    work = tmp_path_factory.mktemp("bundles")
    paths = {}
    for label, argv in {
        "pair2": ["gen-groupoid", "--pair", "2"],
        "linked": ["gen-random-base", "--blocks", "2,1", "--seed", "3"],
        "z3-swap": ["gen-group", "--order", "3", "--variant", "swap"],
    }.items():
        paths[label] = str(work / f"{label}.json")
        assert main([*argv, "--out", paths[label]]) == 0
    paths["malformed"] = str(work / "malformed.json")
    Path(paths["malformed"]).write_text('{"format": "qgw-bundle",\n')
    return paths


@pytest.mark.parametrize("bundle", ["pair2", "linked"])
@pytest.mark.parametrize("command", ["gns", "base-check", "factorize", "rtp",
                                     "phi"])
def test_construct_commands_load_only_what_they_run(bundles, command, bundle):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, command, "--in", bundles[bundle]],
        env=ENV, capture_output=True, text=True, check=False)
    code, *modules = proc.stderr.split(" ")
    assert code == "0", proc.stderr
    unused = HEAVY if command in ("rtp", "phi") else HEAVY | {"qgw.rtensor"}
    if command == "gns":  # the triple needs neither a base nor factors
        unused |= {"qgw.cbase", "qgw.cfact"}
    assert not unused & set(modules)


def masked(text: str) -> str:
    """text without the one line that differs between runs."""
    return re.sub(r"elapsed [0-9.]+ ms", "elapsed - ms", text)


@pytest.mark.parametrize("argv, code", [
    (["gns", "--in", "{pair2}", "--out", "{out}"], 0),
    (["pmu-check", "--in", "{z3-swap}", "--out", "{out}"], 1),
    (["gns", "--in", "{malformed}", "--out", "{out}"], 2),
    (["gen-group", "--order", "2"], 0),
    (["gen-group", "--order", "2", "--out", "{out}"], 0),
], ids=["pass", "fail", "error", "gen-stdout", "gen-out"])
def test_hard_exit_matches_main(bundles, tmp_path, capsys, argv, code):
    outs = [tmp_path / "process.json", tmp_path / "main.json"]

    def args(out):
        return [a.format(out=out, **bundles) for a in argv]

    proc = subprocess.run([sys.executable, "-m", "qgw.cli", *args(outs[0])],
                          env=ENV, capture_output=True, text=True,
                          check=False)
    assert main(args(outs[1])) == proc.returncode == code
    assert masked(proc.stdout) == masked(capsys.readouterr().out)
    assert proc.stderr == ""
    written = [out.read_bytes() if out.exists() else None for out in outs]
    assert written[0] == written[1]
    if code == 2:
        assert written[0] is None
    elif "--out" in argv:
        json.loads(written[0])


def test_an_argument_error_exits_through_the_normal_path(capsys):
    # argparse raises SystemExit inside main(): run() never reaches its
    # hard exit, and the interpreter prints the usage and exits with 2
    proc = subprocess.run([sys.executable, "-m", "qgw.cli", "gns"], env=ENV,
                          capture_output=True, text=True, check=False)
    with pytest.raises(SystemExit) as raised:
        main(["gns"])
    assert proc.returncode == raised.value.code == 2
    assert proc.stderr == capsys.readouterr().err
    assert "--in" in proc.stderr
