"""End-to-end runs of the command line through main().

Generation commands feed check commands; exit codes separate pass, fail,
and input error; generated bundles are byte-identical across runs.
"""
import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qgw import cli
from qgw.cli import main
from qgw.linalg import DEFAULT_TOL, random_unitary, rng
from qgw.serialize import decode_matrix, encode_matrix

CHECK_COMMANDS = [
    "gns", "base-check", "factorize", "rtp", "phi", "fiber",
    "morphism-check", "hopf-check", "pmu-check", "equiv-check",
]
# verdicts the benchmark gates every command run on
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def pair2(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "pair2.json"
    assert main(["gen-groupoid", "--pair", "2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def linked(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "linked.json"
    assert main([
        "gen-random-base", "--blocks", "2,1", "--seed", "3",
        "--out", str(path),
    ]) == 0
    return str(path)


@pytest.fixture(scope="module")
def unit(tmp_path_factory):
    """A one-unit group's bundle: its squares are one-dimensional, so a
    JSON true, which Python reads as 1, fits the shapes of its matrices."""
    path = tmp_path_factory.mktemp("bundles") / "unit.json"
    assert main(["gen-group", "--order", "1", "--out", str(path)]) == 0
    return str(path)


def test_gen_writes_bundle_and_prints_report(capsys, tmp_path):
    path = tmp_path / "z2.json"
    code, out = run(capsys, "gen-group", "--order", "2", "--out", str(path))
    assert code == 0
    assert "gen-group: PASS" in out
    doc = json.loads(path.read_text())
    assert doc["format"] == "qgw-bundle"
    assert doc["kind"] == "groupoid"
    assert set(doc["reps"]) == {"rho", "sigma", "sigma_hat"}


def test_gen_without_out_prints_the_bundle(capsys):
    code, out = run(capsys, "gen-group", "--order", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "qgw-bundle"


def test_gen_is_deterministic(capsys):
    _, first = run(capsys, "gen-groupoid", "--pair", "2")
    _, second = run(capsys, "gen-groupoid", "--pair", "2")
    assert first == second


@pytest.mark.parametrize("command", CHECK_COMMANDS)
def test_groupoid_bundle_passes_every_check(capsys, pair2, command):
    code, out = run(capsys, command, "--in", pair2)
    assert code == 0, out
    assert f"{command}: PASS" in out


@pytest.mark.parametrize("command", [
    "gns", "base-check", "factorize", "rtp", "phi", "fiber", "equiv-check",
])
def test_linked_bundle_passes_every_check(capsys, linked, command):
    code, out = run(capsys, command, "--in", linked)
    assert code == 0, out


def test_swapped_operator_fails_pmu_check_naming_pentagon(capsys, tmp_path):
    path = tmp_path / "swapped.json"
    assert main([
        "gen-group", "--order", "2", "--variant", "swap", "--out", str(path),
    ]) == 0
    code, out = run(capsys, "pmu-check", "--in", str(path))
    assert code == 1
    assert "pmu-check: FAIL" in out
    assert "[FAIL] state_pentagon" in out
    assert "[FAIL] operator_pentagon" in out
    # on a group the swap is unitary and exchanges legs correctly, so the
    # pentagon is the only axiom that fails
    assert out.count("[FAIL]") == 2


def test_phase_perturbation_fails_only_the_pentagon(capsys, tmp_path):
    path = tmp_path / "phase.json"
    assert main([
        "gen-group", "--order", "2", "--variant", "phase", "--out", str(path),
    ]) == 0
    code, out = run(capsys, "pmu-check", "--in", str(path))
    assert code == 1
    assert out.count("[FAIL]") == 2
    assert "[FAIL] state_pentagon" in out
    assert "[FAIL] operator_pentagon" in out


def test_perturbed_hopf_fails_on_both_flavors(capsys, tmp_path):
    path = tmp_path / "hp.json"
    assert main([
        "gen-group", "--order", "3", "--hopf-perturb", "5",
        "--out", str(path),
    ]) == 0
    code, out = run(capsys, "hopf-check", "--in", str(path))
    assert code == 1
    assert "[FAIL] state_hom_multiplicative" in out
    assert "[FAIL] operator_hom_multiplicative" in out
    assert "[pass] verdicts_agree" in out
    # the equivalence statement itself still holds for the broken candidate
    code2, _ = run(capsys, "equiv-check", "--in", str(path))
    assert code2 == 0


def test_malformed_json_exits_2_with_location(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "qgw-bundle", "version": 1,\n  "kind": }\n')
    code, out = run(capsys, "gns", "--in", str(path))
    assert code == 2
    assert "line 2" in out
    assert "column" in out


def test_missing_file_exits_2(capsys, tmp_path):
    code, out = run(capsys, "gns", "--in", str(tmp_path / "absent.json"))
    assert code == 2
    assert "ERROR" in out


def test_wrong_format_header_exits_2(capsys, tmp_path):
    path = tmp_path / "alien.json"
    path.write_text('{"format": "something-else", "version": 1}\n')
    code, out = run(capsys, "equiv-check", "--in", str(path))
    assert code == 2


def test_missing_section_exits_2(capsys, tmp_path, pair2):
    doc = json.loads(open(pair2).read())
    del doc["reps"]
    path = tmp_path / "gutted.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "rtp", "--in", str(path))
    assert code == 2
    assert "reps" in out


def resized_delta(side):
    """Edit of a Delta entry: images side x side instead of the pair(2)
    square's 8 x 8, with matrix_on_basis resized to match."""
    def edit(delta):
        rows, cols = side * side, delta["matrix_on_basis"]["cols"]
        matrix = {"rows": rows, "cols": cols, "data": [[0.0, 0.0]] * (rows * cols)}
        return {**delta, "image_shape": [side, side], "matrix_on_basis": matrix}
    return edit


@pytest.mark.parametrize("command,path,value", [
    ("hopf-check", ("hopf", "state", "Delta", "image_shape"), ["a", "b"]),
    ("rtp", ("reps",), None),
    ("rtp", ("factorizations",), None),
    ("factorize", ("factorizations",), "x"),
    ("factorize", ("factorizations",), None),
    ("factorize", ("factorizations",), -1),
    # well-formed Delta entries whose images miss the square
    *[(command, ("hopf", flavor, "Delta"), resized_delta(side))
      for side in (4, 9)
      for command, flavor in (("hopf-check", "state"),
                              ("hopf-check", "operator"),
                              ("equiv-check", "state"),
                              ("morphism-check", "operator"))],
    # flipped must be a JSON boolean, not a string or a number
    ("rtp", ("factorizations", "alpha", "flipped"), "false"),
    ("rtp", ("factorizations", "beta", "flipped"), "false"),
    ("factorize", ("factorizations", "beta", "flipped"), "false"),
    ("factorize", ("factorizations", "alpha", "flipped"), 0),
])
def test_retyped_entry_exits_2_naming_it(capsys, tmp_path, pair2, command,
                                         path, value):
    doc = json.loads(open(pair2).read())
    *parents, key = path
    holder = doc
    for name in parents:
        holder = holder[name]
    holder[key] = value(holder[key]) if callable(value) else value
    bundle = tmp_path / "retyped.json"
    bundle.write_text(json.dumps(doc))
    # an escaping exception would surface here as a test error
    code, out = run(capsys, command, "--in", str(bundle))
    assert code == 2
    assert f"{command}: ERROR" in out
    assert key in out


# integer fields given a JSON boolean or a float, where they would fit:
# the one-unit bundle's sizes are 1, the linked one's base space has 5
@pytest.mark.parametrize("bundle, command, path, value, where", [
    ("unit", "hopf-check", ("arrow_algebra", "generators", 0, "rows"), True,
     "arrow_algebra.generators[0].rows"),
    ("unit", "hopf-check", ("arrow_algebra", "generators", 0, "cols"), True,
     "arrow_algebra.generators[0].cols"),
    ("unit", "hopf-check", ("arrow_algebra", "dim_H"), True,
     "arrow_algebra.dim_H"),
    ("unit", "factorize", ("factorizations", "alpha", "H_dim"), True,
     "factorizations.alpha.H_dim"),
    ("unit", "factorize", ("factorizations", "alpha", "H_dim"), 1.0,
     "factorizations.alpha.H_dim"),
    ("unit", "hopf-check", ("hopf", "state", "Delta", "image_shape"),
     [True, True], "hopf.state.Delta.image_shape[0]"),
    ("linked", "base-check", ("base", "frak_H_dim"), 5.0, "base.frak_H_dim"),
], ids=["rows", "cols", "dim_H", "H_dim", "H_dim_float", "image_shape",
        "frak_H_dim_float"])
def test_non_integer_size_exits_2_naming_it(capsys, request, tmp_path, bundle,
                                            command, path, value, where):
    doc = json.loads(Path(request.getfixturevalue(bundle)).read_text())
    *parents, key = path
    holder = doc
    for name in parents:
        holder = holder[name]
    assert holder[key] == value  # the edit keeps the value, not its type
    holder[key] = value
    bundle = tmp_path / "retyped.json"
    bundle.write_text(json.dumps(doc))
    code, out = run(capsys, command, "--in", str(bundle))
    assert code == 2
    errors = [line.strip() for line in out.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(f"error: {where}: ")


def source_square_classes(classes, doc):
    """The class map of the pmu's source-type square: the shape and the row
    Gram of the hopf squares' class maps, but another square's Gram.  (The
    other flavor's class map would be no edit: both flavors' squares share
    one Gram and one central decomposition, so the two stored maps are the
    same matrix.)"""
    return decode_matrix(doc["pmu"]["coordinate_maps"]["source_classes"])


# edits of a stored class map: None deletes it, as in a bundle written
# before class maps were stored
CLASS_EDITS = {
    "deleted": None,
    "transposed": lambda classes, doc: classes.T,
    "one_row_short": lambda classes, doc: classes[:-1],
    "doubled": lambda classes, doc: 2 * classes,
    "not_finite": lambda classes, doc: np.where(
        np.eye(*classes.shape, dtype=bool), np.nan, classes),
    "another_square": source_square_classes,
}


@pytest.mark.parametrize("edit", sorted(CLASS_EDITS))
@pytest.mark.parametrize("command,flavor", [
    ("hopf-check", "state"), ("hopf-check", "operator"),
    ("morphism-check", "operator")])
def test_bad_stored_class_map_exits_2_naming_it(capsys, tmp_path, pair2,
                                                command, flavor, edit):
    doc = json.loads(open(pair2).read())
    section = doc["hopf"][flavor]
    if CLASS_EDITS[edit] is None:
        del section["classes"]
    else:
        section["classes"] = encode_matrix(CLASS_EDITS[edit](
            decode_matrix(section["classes"]), doc))
    bundle = tmp_path / "classes.json"
    bundle.write_text(json.dumps(doc))
    code, out = run(capsys, command, "--in", str(bundle))
    assert code == 2
    named = f"hopf.{flavor}.classes"
    assert len([line for line in out.splitlines() if named in line]) == 1


@pytest.mark.parametrize("command", ["rtp", "fiber"])
@pytest.mark.parametrize("name", ["rho", "sigma"])
def test_non_square_rep_exits_2_naming_it(capsys, tmp_path, linked, command,
                                          name):
    doc = json.loads(open(linked).read())
    # drop the last row of every matrix of the stack
    for m in doc["reps"][name]:
        m["rows"] -= 1
        m["data"] = m["data"][:m["rows"] * m["cols"]]
    bundle = tmp_path / "non_square.json"
    bundle.write_text(json.dumps(doc))
    code, out = run(capsys, command, "--in", str(bundle))
    assert code == 2
    assert f"{command}: ERROR" in out
    assert f"reps.{name}" in out


def test_squares_live_over_the_bundle_base(capsys, tmp_path, linked):
    # the factorizations, and so the operator square, are decoded over the
    # base section: a doubled cyclic vector scales the operator Gram by four
    doc = json.loads(open(linked).read())
    for entry in doc["base"]["zeta"]["data"]:
        entry[:] = [2 * x for x in entry]
    bundle = tmp_path / "doubled_zeta.json"
    bundle.write_text(json.dumps(doc))
    code, out = run(capsys, "phi", "--in", str(bundle))
    assert code == 1
    assert "[FAIL] gram_match" in out


@pytest.mark.parametrize("command", CHECK_COMMANDS)
def test_entry_beyond_double_range_exits_2_naming_it(capsys, tmp_path, pair2,
                                                     command):
    doc = json.loads(open(pair2).read())
    doc["state"]["rho"]["data"][0] = [10 ** 400, 0]
    bundle = tmp_path / "huge.json"
    bundle.write_text(json.dumps(doc))
    code, out = run(capsys, command, "--in", str(bundle))
    assert code == 2
    assert f"{command}: ERROR" in out
    assert "state.rho: data[0]" in out


# matrices of a groupoid bundle, with the path that names the first one and
# the check commands that read it
READ_MATRICES = {
    "reps.rho": (("reps", "rho", 0), "reps.rho[0]",
                 ["rtp", "phi", "fiber", "morphism-check", "hopf-check",
                  "pmu-check", "equiv-check"]),
    "reps.sigma_hat": (("reps", "sigma_hat", 0), "reps.sigma_hat[0]",
                       ["pmu-check", "equiv-check"]),
    "pmu.V": (("pmu", "V"), "pmu.V", ["pmu-check", "equiv-check"]),
    "hopf.operator.Delta": (
        ("hopf", "operator", "Delta", "matrix_on_basis"),
        "hopf.operator.Delta.matrix_on_basis",
        ["morphism-check", "hopf-check", "equiv-check"]),
}


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e999"])
@pytest.mark.parametrize("matrix", sorted(READ_MATRICES))
def test_non_finite_entry_exits_2_in_every_command_that_reads_it(
        capsys, tmp_path, pair2, matrix, value):
    # the first entry of the matrix, written as json writes a non-finite
    # double or as a literal beyond the double range; the commands that do
    # not read the matrix still pass
    keys, where, readers = READ_MATRICES[matrix]
    doc = json.loads(Path(pair2).read_text())
    node = doc
    for key in keys:
        node = node[key]
    node["data"][0] = ["NONFINITE", 0.0]
    bundle = tmp_path / "non_finite.json"
    bundle.write_text(json.dumps(doc).replace('"NONFINITE"', value))
    for command in CHECK_COMMANDS:
        code, out = run(capsys, command, "--in", str(bundle))
        errors = [line.strip() for line in out.splitlines() if "error" in line]
        if command in readers:
            assert code == 2, command
            assert errors == [f"error: {where}: expected a finite matrix"]
        else:
            assert (code, errors) == (0, []), command


def test_factorize_without_base_cyclic_vector_exits_2(capsys, tmp_path,
                                                      linked):
    doc = json.loads(open(linked).read())
    del doc["base"]["zeta"]
    bundle = tmp_path / "no_zeta.json"
    bundle.write_text(json.dumps(doc))
    code, out = run(capsys, "factorize", "--in", str(bundle))
    assert code == 2
    assert "no cyclic vector" in out


def load_report(path) -> dict:
    return json.loads(path.read_text())


def passed_checks(doc: dict) -> dict:
    """Check name -> whether it passed, read from a report document: a null
    residual fails."""
    return {c["axiom"]: c["residual"] is not None
            and c["residual"] <= c["threshold"] for c in doc["checks"]}


# fast records of the benchmark: (workload, label, generator arguments,
# commands); the records do not depend on the seeds the benchmark picks
BENCHMARK_RECORDS = [
    ("cyclic", "z3", ["gen-group", "--order", "3"], CHECK_COMMANDS),
    ("cyclic", "z3-swap", ["gen-group", "--order", "3", "--variant", "swap"],
     ["pmu-check", "equiv-check"]),
    ("cyclic", "z4-phase",
     ["gen-group", "--order", "4", "--variant", "phase"], ["pmu-check"]),
    ("cyclic", "z3-hopf-perturb",
     ["gen-group", "--order", "3", "--hopf-perturb", "7"], ["hopf-check"]),
    ("random-blocks", "blocks-3,2,1",
     ["gen-random-base", "--blocks", "3,2,1", "--seed", "5"],
     ["fiber", "phi", "equiv-check"]),
    ("pair3", "pair2", ["gen-groupoid", "--pair", "2"], ["equiv-check"]),
    ("pair3", "pair3", ["gen-groupoid", "--pair", "3"],
     ["pmu-check", "hopf-check", "morphism-check"]),
]


def test_check_commands_match_benchmark_record(tmp_path):
    records = json.loads(EXPECTED.read_text())
    for workload, label, gen_args, commands in BENCHMARK_RECORDS:
        bundle = tmp_path / f"{label}.json"
        assert main([*gen_args, "--out", str(bundle)]) == 0
        for command in commands:
            out = tmp_path / f"{label}.{command}.json"
            code = main([command, "--in", str(bundle), "--out", str(out)])
            rep = load_report(out)
            got = {
                "exit": code,
                "verdict": rep["verdict"],
                "checks": passed_checks(rep),
            }
            assert got == records[workload][label][command], (label, command)


def rotated_eigh(seed):
    """np.linalg.eigh returning another valid eigenbasis: each cluster of
    eigenvalues within 1e-10 of the spectral scale of each other is turned
    by a seeded unitary (orthogonal for real input)."""
    eigh, gen = np.linalg.eigh, rng(seed)

    def rotated(a, *args, **kwargs):
        w, v = eigh(a, *args, **kwargs)
        cut = 1e-10 * np.max(np.abs(w), initial=0.0)
        starts = np.r_[0, np.nonzero(np.diff(w) > cut)[0] + 1, len(w)]
        v = v.copy()
        for i, j in zip(starts[:-1], starts[1:]):
            if j - i > 1:
                u = random_unitary(j - i, gen)
                if v.dtype.kind != "c":
                    u = np.linalg.qr(u.real)[0]
                v[:, i:j] = v[:, i:j] @ u
        return w, v

    return rotated


@pytest.mark.parametrize("gen_args", [["gen-groupoid", "--pair", "2"],
                                      ["gen-group", "--order", "3"]],
                         ids=["pair2", "z3"])
def test_verdicts_do_not_depend_on_the_eigenbasis(tmp_path, monkeypatch,
                                                  gen_args):
    # a bundle written with one eigensolver is read by another that picks
    # other eigenvectors inside every degenerate eigenspace: each stored
    # map is moved by the class maps it carries, so nothing changes
    bundle = tmp_path / "bundle.json"
    assert main([*gen_args, "--out", str(bundle)]) == 0

    def verdicts():
        got = {}
        for command in ("hopf-check", "morphism-check", "pmu-check",
                        "equiv-check"):
            out = tmp_path / f"{command}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--in", str(bundle), "--out", str(out)])
            got[command] = (code, passed_checks(load_report(out)))
        return got

    plain = verdicts()
    monkeypatch.setattr(np.linalg, "eigh", rotated_eigh(seed=5))
    assert verdicts() == plain


def test_equiv_check_composes_the_other_commands(pair2, tmp_path):
    reports = {}
    for command in ("phi", "fiber", "hopf-check", "pmu-check", "equiv-check"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--in", pair2, "--out", str(out)]) == 0
        reports[command] = {c["axiom"]: c["residual"]
                            for c in load_report(out)["checks"]}
    equiv = reports["equiv-check"]
    pairs = {f"phi_{name}": ("phi", name) for name in reports["phi"]}
    pairs.update({
        "fiber_transport": ("fiber", "transport"),
        "hopf_transport": ("hopf-check", "transport"),
        "hopf_verdicts_agree": ("hopf-check", "verdicts_agree"),
        "pmu_verdicts_agree": ("pmu-check", "verdicts_agree"),
    })
    assert set(equiv) == set(pairs)
    for name, (command, source) in pairs.items():
        assert equiv[name] == reports[command][source], name


def test_reports_record_the_tolerance(capsys, pair2, tmp_path):
    out_path = tmp_path / "report.json"
    run(capsys, "gns", "--in", pair2, "--out", str(out_path),
        "--tolerance", "1e-10")
    doc = json.loads(out_path.read_text())
    assert doc["tolerance"] == 1e-10
    assert all(c["threshold"] == 1e-9 for c in doc["checks"])


def test_tolerance_env_fallback(capsys, pair2, monkeypatch, tmp_path):
    monkeypatch.setenv("QGW_TOLERANCE", "1e-10")
    out_path = tmp_path / "report.json"
    run(capsys, "gns", "--in", pair2, "--out", str(out_path))
    assert json.loads(out_path.read_text())["tolerance"] == 1e-10


def test_loose_tolerance_turns_phase_failure_into_pass(capsys, tmp_path):
    path = tmp_path / "phase.json"
    main(["gen-group", "--order", "2", "--variant", "phase",
          "--out", str(path)])
    assert main(["pmu-check", "--in", str(path)]) == 1
    capsys.readouterr()
    code, _ = run(capsys, "pmu-check", "--in", str(path),
                  "--tolerance", "1e-5")
    assert code == 0


def test_invalid_tolerance_exits_2(capsys, pair2):
    code, out = run(capsys, "pmu-check", "--in", pair2, "--tolerance", "-1")
    assert code == 2
    assert "positive" in out


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "0"])
@pytest.mark.parametrize("command", ["gns", "pmu-check"])
def test_bad_tolerance_flag_exits_2(capsys, pair2, command, value):
    code, out = run(capsys, command, "--in", pair2, "--tolerance", value)
    assert code == 2
    assert "positive and finite" in out


@pytest.mark.parametrize("value, message", [
    ("abc", "QGW_TOLERANCE is not a number"), ("nan", "finite"),
    ("inf", "finite"), ("-1e-9", "positive"),
])
@pytest.mark.parametrize("command", ["gns", "pmu-check"])
def test_bad_tolerance_env_exits_2(capsys, pair2, monkeypatch, command,
                                   value, message):
    monkeypatch.setenv("QGW_TOLERANCE", value)
    code, out = run(capsys, command, "--in", pair2)
    assert code == 2
    assert message in out


@pytest.mark.parametrize("message", ["", "Unable to allocate 5.82 GiB"])
def test_running_out_of_memory_exits_2_naming_it(capsys, pair2, monkeypatch,
                                                 tmp_path, message):
    def exhausted(ctx):
        raise MemoryError(message)

    blurb, _ = cli.CHECKS["pmu-check"]
    monkeypatch.setitem(cli.CHECKS, "pmu-check", (blurb, exhausted))
    path = tmp_path / "report.json"
    code, out = run(capsys, "pmu-check", "--in", pair2, "--out", str(path))
    assert code == 2
    assert "pmu-check: ERROR" in out
    named = [line for line in out.splitlines() if "MemoryError" in line]
    assert len(named) == 1 and message in named[0]
    assert not path.exists()


def test_bad_blocks_argument_exits_2(capsys):
    code, out = run(capsys, "gen-random-base", "--blocks", "2,x",
                    "--seed", "1")
    assert code == 2


@pytest.mark.parametrize("argv, named", [
    (["gen-groupoid", "--pair", "0"], "--pair"),
    (["gen-groupoid", "--pair", "-1"], "--pair"),
    (["gen-group", "--order", "0"], "--order"),
    (["gen-group", "--order", "-3"], "--order"),
    (["gen-group", "--order", "2", "--hopf-perturb", "-5"], "--hopf-perturb"),
    (["gen-random-base", "--blocks", "2,1", "--seed", "-1"], "--seed"),
    (["gen-random-base", "--blocks", "2,1", "--seed", "1",
      "--mult-left", "0"], "--mult-left"),
    (["gen-random-base", "--blocks", "2,1", "--seed", "1",
      "--mult-right", "-1"], "--mult-right"),
    (["gen-group", "--order", "2", "--angle", "nan"], "--angle"),
    (["gen-group", "--order", "2", "--out", "{tmp}/absent/z2.json"],
     "--out"),
    (["gen-group", "--order", "2", "--out", "{tmp}"], "--out"),
    (["gns", "--in", "{pair2}", "--out", "{tmp}"], "--out"),
    (["gns", "--in", "{tmp}/latin1.json"], "latin1.json"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_argument_exits_2_naming_it(capsys, tmp_path, pair2, argv,
                                        named):
    (tmp_path / "latin1.json").write_bytes(b'{"format": "caf\xe9"}')
    code, out = run(capsys, *[a.format(tmp=tmp_path, pair2=pair2)
                              for a in argv])
    assert code == 2
    assert "ERROR" in out
    assert len([line for line in out.splitlines() if named in line]) == 1


def matrices(node):
    """Every encoded matrix, an object with rows, cols and data, in node."""
    if isinstance(node, dict):
        if {"rows", "cols", "data"} <= set(node):
            yield node
        nodes = node.values()
    else:
        nodes = node if isinstance(node, list) else []
    for child in nodes:
        yield from matrices(child)


def mutate(data, doc):
    """Walk into doc along drawn keys, then drop the entry reached, give it
    a value of another JSON type, or put NaN in its place; or give one
    encoded matrix a shape that disagrees with its data, or agrees with it
    in another shape.  Returns the keys walked, None for a reshape."""
    edit = data.draw(st.sampled_from(["drop", "retype", "nan", "reshape"]))
    if edit == "reshape":
        mat = data.draw(st.sampled_from(list(matrices(doc))))
        rows, cols = mat["rows"], mat["cols"]
        mat["rows"], mat["cols"] = data.draw(st.sampled_from(
            [(cols, rows), (rows * cols, 1), (rows + 1, cols), (rows, 0)]))
        return None
    holder, key, node, path = None, None, doc, []
    while isinstance(node, (dict, list)) and node and (
            holder is None or data.draw(st.booleans())):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys)))
        holder, node = node, node[key]
        path.append(key)
    if edit == "drop":
        del holder[key]
    elif edit == "retype":
        holder[key] = data.draw(st.sampled_from(
            ["x", None, True, [], {}, 1.5, -1]
        ).filter(lambda value: type(value) is not type(node)))
    else:
        holder[key] = float("nan")
    return path


def check_mutated_bundle(pair2, linked, unit, data):
    """Whatever one edit does to a valid bundle, a groupoid's, a one-unit
    group's (whose 1 x 1 matrices a JSON true fits) or a random base's,
    every command ends in a verdict or an input error, never in an
    escaping exception; an edit of the header, of the whole state section
    or of the size of a state matrix, where the command reads the state,
    is an input error."""
    source = data.draw(st.sampled_from([pair2, unit, linked]))
    doc = json.loads(Path(source).read_text())
    path = mutate(data, doc)
    bundle = Path(source).with_name("mutated.json")
    bundle.write_text(json.dumps(doc))
    command = data.draw(st.sampled_from(CHECK_COMMANDS))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--in", str(bundle)])
    assert code in (0, 1, 2)
    # a linked bundle carries its own base, which the state does not feed
    reads_state = source != linked or command not in ("base-check",
                                                      "factorize")
    sized = path is not None and path[:1] == ["state"] \
        and path[-1] in ("rows", "cols")
    if path in (["format"], ["version"]) or (
            (path == ["state"] or sized) and reads_state):
        assert code == 2


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_bundle_exits_0_1_or_2(pair2, linked, unit, data):
    check_mutated_bundle(pair2, linked, unit, data)


class Forced:
    """Stands in for hypothesis' data object, returning the given values
    in order, one per draw."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


@pytest.mark.parametrize("size", ["rows", "cols"])
@pytest.mark.parametrize("command", CHECK_COMMANDS)
def test_one_unit_size_retyped_to_true_exits_2(pair2, linked, unit, command,
                                               size):
    # the draws: the bundle, the edit, the keys walked to state.rho's size
    # (each further step a true), the new value and the command; a JSON
    # true reads as 1 in Python, which the one-unit matrix's size is
    check_mutated_bundle(pair2, linked, unit, Forced(
        unit, "retype", "state", True, "rho", True, size, True, command))


@pytest.mark.parametrize("bundle", ["pair2", "linked"])
def test_bundle_matrices_are_packed_as_they_are_parsed(request, bundle):
    ctx = cli.BundleContext(request.getfixturevalue(bundle), DEFAULT_TOL)
    found = list(matrices(ctx.doc))
    assert found
    for mat in found:
        assert isinstance(mat["data"], np.ndarray)
        assert mat["data"].shape == (mat["rows"] * mat["cols"], 2)


# the malformed entries of test_serialize, and a density entry that is not
# finite, reaching a command from a file
@pytest.mark.parametrize("edit, message", [
    (lambda d: d[:-1], "data must hold 4 entries, got 3"),
    (lambda d: d[:-1] + [[1.0]], "data[3] must be [re, im]"),
    (lambda d: [d[0], ["1.5", 0.0], *d[2:]], "data[1] must be [re, im]"),
    (lambda d: [d[0], [10 ** 400, 0], *d[2:]],
     "data[1] is too large for a double"),
    (lambda d: [d[0], [[1.0], 0.0], *d[2:]], "data[1] must be [re, im]"),
    (lambda d: [d[0], [1.0, 0.0, 0.0], *d[2:]], "data[1] must be [re, im]"),
    (lambda d: [d[0], [float("nan"), 0.0], *d[2:]],
     "expected a finite matrix"),
], ids=["short", "ragged", "string", "huge_int", "nested", "three", "nan"])
def test_malformed_matrix_data_in_a_file_exits_2(capsys, tmp_path, pair2,
                                                 edit, message):
    doc = json.loads(Path(pair2).read_text())
    doc["state"]["rho"]["data"] = edit(doc["state"]["rho"]["data"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "gns", "--in", str(path))
    assert code == 2
    assert [line.strip() for line in out.splitlines() if "error" in line] \
        == [f"error: state.rho: {message}"]
