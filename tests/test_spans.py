"""Spans that grow by their new rows (linalg.extend_rows) against the
one-shot constructions of kron_reference, and what the growth saves."""
import json

import numpy as np
import pytest

from qgw import cfact, serialize
from qgw.cli import main
from qgw.fixtures import FiniteGroupoid, groupoid_bundle, linked_bundle
from qgw.linalg import dagger, random_unitary, rng, subspace_residual
from qgw.rtensor import insertion_span, insertions, rtp_cstar
from qgw.staralg import algebra_from_generators
from kron_reference import svd_algebra_from_generators, svd_insertion_span, \
    svd_products_span

BUNDLES = {
    "pair2": lambda: groupoid_bundle(FiniteGroupoid.pair(2)),
    "z3": lambda: groupoid_bundle(FiniteGroupoid.cyclic(3)),
    "blocks-3,2,1": lambda: linked_bundle([3, 2, 1], 1, 1, 1),
    "blocks-3,2,1-mult-2": lambda: linked_bundle([3, 2, 1], 2, 2, 2),
    "blocks-4,2,1": lambda: linked_bundle([4, 2, 1], 1, 1, 3),
}


@pytest.fixture(scope="module", params=sorted(BUNDLES))
def bundle(request):
    return BUNDLES[request.param]()


def assert_same_span(grown, reference):
    assert grown.dim == reference.dim
    assert subspace_residual(grown, reference) < 1e-12


def test_algebra_from_generators_matches_one_shot_rounds(bundle):
    for name in ("rho", "sigma"):
        gens = bundle[name]
        n = gens.shape[1]
        assert_same_span(algebra_from_generators(n, gens).subspace,
                         svd_algebra_from_generators(n, gens).subspace)


def test_products_span_matches_one_svd(bundle, monkeypatch):
    seen = []
    real = cfact.subspace_residual

    def spy(a, b):
        seen.append(a)
        return real(a, b)

    monkeypatch.setattr(cfact, "subspace_residual", spy)
    for fact in (bundle["alpha"], bundle["beta"]):
        seen.clear()
        fact.axiom_report()
        assert_same_span(seen[0], svd_products_span(fact))


def test_spatial_and_insertion_spans_match_one_svd(bundle):
    """S on both legs of fiber_spatial (insertions composed with the other
    leg's algebra) and the insertion spans of ket_factorization (composed
    with a factorization)."""
    alpha, beta = bundle["alpha"], bundle["beta"]
    space = rtp_cstar(alpha, beta)
    algs = [algebra_from_generators(r.shape[1], r)
            for r in (bundle["rho"], bundle["sigma"])]
    for leg, fact, partners, tail in ((0, alpha, algs[1], beta),
                                      (1, beta, algs[0], alpha)):
        kets = insertions(space, fact.subspace.stack, leg)
        for tails in (partners.subspace.stack, tail.subspace.stack):
            assert_same_span(insertion_span(kets, tails),
                             svd_insertion_span(kets, tails))


def test_fiber_decomposes_no_large_matrix(tmp_path, monkeypatch):
    """fiber on the 3,2,1 x 2 linked bundle: the one-shot rounds took SVDs
    of (210, 144) and (168, 144) stacks; grown spans decompose at most a
    30 x 30 triangle."""
    path = str(tmp_path / "linked.json")
    assert main(["gen-random-base", "--blocks", "3,2,1", "--mult-left", "2",
                 "--mult-right", "2", "--seed", "2", "--out", path]) == 0
    shapes = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert main(["fiber", "--in", path]) == 0
    assert shapes and max(max(s) for s in shapes) <= 30, shapes


def test_reps_off_the_arrow_algebra_fail_fiber_as_before(tmp_path):
    """fiber_classical solves its *-closed family without the closure check;
    a bundle whose rho is rotated off the arrow algebra still exits 1 and
    fails the transport check alone."""
    path, bent = tmp_path / "pair2.json", tmp_path / "bent.json"
    assert main(["gen-groupoid", "--pair", "2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    rho = serialize.decode_stack(doc["reps"]["rho"], "rho")
    u = random_unitary(rho.shape[1], rng(5))
    doc["reps"]["rho"] = serialize.encode_stack(list(u @ rho @ dagger(u)))
    bent.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["fiber", "--in", str(bent), "--out", str(report)]) == 1
    checks = json.loads(report.read_text())["checks"]
    assert [c["axiom"] for c in checks
            if not c["residual"] <= c["threshold"]] == ["transport"]

