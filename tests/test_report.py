"""Check tables: verdict logic, JSON form, residual sanitization."""
import json

from qgw.linalg import Tolerance
from qgw.report import Certificate, Check, Report, checks_from_residuals


def test_verdict_follows_thresholds():
    rep = Report("demo", [Check("a", 1e-10, 1e-8), Check("b", 0.0, 1e-8)],
                 1e-9)
    assert rep.verdict == "pass"
    assert rep.exit_code == 0
    rep2 = Report("demo", [Check("a", 1e-3, 1e-8)], 1e-9)
    assert rep2.verdict == "fail"
    assert rep2.exit_code == 1
    rep3 = Report("demo", [], 1e-9, error="boom")
    assert rep3.verdict == "error"
    assert rep3.exit_code == 2


def test_non_finite_residuals_become_null_and_fail():
    c = Check("lift", float("inf"), 1e-8)
    assert c.residual is None
    assert not c.passed
    rep = Report("demo", [c], 1e-9)
    doc = json.loads(rep.to_json())
    assert doc["checks"][0]["residual"] is None
    assert doc["verdict"] == "fail"


def test_timing_stays_out_of_the_document():
    rep = Report("demo", [Check("a", 0.0, 1e-8)], 1e-9, timing_ms=12.5)
    doc = json.loads(rep.to_json())
    assert "timing_ms" not in doc
    assert not any("timing" in k for k in doc)
    assert "elapsed" in rep.render_text()


def test_checks_from_residuals_prefix_and_overrides():
    # a certificate brings its thresholds from the Tolerance: "pentagon" is
    # held to the pentagon threshold, everything else to check
    tol = Tolerance()
    residuals = {"unitary": 1e-12, "pentagon": 5e-8}
    checks = checks_from_residuals(Certificate(residuals, tol),
                                   prefix="state_")
    assert [c.name for c in checks] == ["state_pentagon", "state_unitary"]
    named = {c.name: c for c in checks}
    assert named["state_pentagon"].threshold == tol.pentagon
    assert named["state_pentagon"].passed
    assert named["state_unitary"].threshold == tol.check
    # anchors resolve from the raw name, not the prefixed one
    assert named["state_pentagon"].anchor == "pentagon-identity"
    assert named["state_unitary"].anchor == "unitarity"
    # children follow their parent's own entries, and their names join the
    # prefix at every depth
    cert = Certificate({"verdicts_agree": 0.0}, tol,
                       {"state": Certificate(residuals, tol)})
    checks = checks_from_residuals(cert, prefix="pmu_")
    assert [c.name for c in checks] == [
        "pmu_verdicts_agree", "pmu_state_pentagon", "pmu_state_unitary"]
    named = {c.name: c for c in checks}
    assert named["pmu_state_pentagon"].threshold == tol.pentagon
    assert named["pmu_state_pentagon"].passed
    assert named["pmu_state_unitary"].threshold == tol.check
    assert named["pmu_state_pentagon"].anchor == "pentagon-identity"
    assert named["pmu_verdicts_agree"].anchor == "flavor-agreement"


def test_render_text_marks_failures():
    rep = Report("demo", [Check("good", 0.0, 1e-8), Check("bad", 1.0, 1e-8)],
                 1e-9)
    text = rep.render_text()
    assert "[pass] good" in text
    assert "[FAIL] bad" in text
    assert text.startswith("demo: FAIL")
