"""Fixture generators: groupoid structure, random bases, linked bundles."""
import numpy as np
import pytest

from qgw.fixtures import (
    FiniteGroupoid,
    groupoid_actions,
    groupoid_algebra,
    groupoid_bundle,
    groupoid_pentagon_unitary,
    linked_bundle,
    random_standard_base,
    unit_triple,
)
from qgw.gns import State, gns
from qgw.linalg import mat_norm, dagger
from qgw.rtensor import phi_unitary, rtp_cstar, rtp_state
from qgw.staralg import rep_report
from small_fixtures import trivial_bundle, two_point_bundle


def test_pair_groupoid_structure():
    g = FiniteGroupoid.pair(3)
    assert g.n_arrows == 9
    assert g.n_units == 3
    idx = lambda i, j: 3 * i + j
    assert g.compose(idx(0, 1), idx(1, 2)) == idx(0, 2)
    assert g.compose(idx(0, 1), idx(2, 0)) == -1
    assert g.inverse[idx(0, 1)] == idx(1, 0)
    assert idx(2, 2) in g.unit_arrows
    assert idx(0, 1) not in g.unit_arrows


def test_cyclic_group_structure():
    g = FiniteGroupoid.cyclic(4)
    assert g.n_arrows == 4
    assert g.compose(1, 3) == 0
    assert g.inverse[3] == 1
    # translations are permutation matrices forming the regular action
    lam = g.lambda_matrix(1)
    assert mat_norm(lam @ lam @ lam @ lam - np.eye(4)) < 1e-12


def test_groupoid_algebra_and_state():
    g = FiniteGroupoid.pair(2)
    alg, norms = groupoid_algebra(g)
    assert alg.dim == 4
    # the state picking out the units, uniformly weighted
    values = np.zeros(g.n_arrows, dtype=complex)
    values[g.unit_arrows] = 0.5 / norms[g.unit_arrows]
    st = State(alg, values)
    assert abs(st.value(np.eye(4)) - 1.0) < 1e-12
    triple = gns(alg, st)
    assert triple.dim == 4


def test_groupoid_translation_relations():
    g = FiniteGroupoid.pair(2)
    idx = lambda i, j: 2 * i + j
    a, b = g.lambda_matrix(idx(0, 1)), g.lambda_matrix(idx(1, 0))
    assert mat_norm(a @ b - g.lambda_matrix(idx(0, 0))) < 1e-12
    assert mat_norm(dagger(a) - b) < 1e-12
    # range functions act as the unit translations
    r0 = g.range_projection(0)
    assert mat_norm(g.lambda_matrix(idx(0, 0)) - r0) < 1e-12


def test_unit_triple_and_actions():
    g = FiniteGroupoid.pair(2)
    triple = unit_triple(g)
    assert triple.dim == 2
    ranges, sources = groupoid_actions(g)
    rep = rep_report(triple.algebra, ranges.astype(complex))
    assert all(v < 1e-10 for v in rep.values())
    rep = rep_report(triple.algebra, sources.astype(complex))
    assert all(v < 1e-10 for v in rep.values())


def test_pentagon_unitary_counts_composables():
    g = FiniteGroupoid.pair(2)
    v = groupoid_pentagon_unitary(g)
    # one output per composable pair
    composable = sum(
        1
        for a in range(g.n_arrows)
        for b in range(g.n_arrows)
        if g.compose(a, b) >= 0
    )
    assert composable == 8
    assert np.sum(v) == composable
    # partial isometry: v* v is the projection onto composable pairs
    p = v.T @ v
    assert mat_norm(p @ p - p) < 1e-12
    assert np.trace(p) == pytest.approx(composable)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_standard_base(seed):
    triple, base = random_standard_base([2, 1], seed)
    assert max(base.standard_report().values()) <= base.tol.check
    assert base.space_dim == triple.dim == 5


def test_linked_bundle_round_trip():
    bundle = linked_bundle([2, 1], 1, 1, seed=7)
    vn = rtp_state(bundle["triple"], bundle["rho"], bundle["sigma"])
    cs = rtp_cstar(bundle["alpha"], bundle["beta"])
    _, result = phi_unitary(vn, cs)
    assert result.ok, result.residuals


def test_trivial_bundle_is_plain_tensor():
    bundle = trivial_bundle(2, 3)
    vn = rtp_state(bundle["triple"], bundle["rho"], bundle["sigma"])
    assert vn.dim == 6
    cs = rtp_cstar(bundle["alpha"], bundle["beta"])
    assert cs.dim == 6
    assert phi_unitary(vn, cs)[1].ok


def test_two_point_bundle_matches_diag_oracle():
    bundle = two_point_bundle()
    vn = rtp_state(bundle["triple"], bundle["rho"], bundle["sigma"])
    assert vn.dim == 2
    cs = rtp_cstar(bundle["alpha"], bundle["beta"])
    _, result = phi_unitary(vn, cs)
    assert result.ok, result.residuals


def test_groupoid_bundle_pair2():
    bundle = groupoid_bundle(FiniteGroupoid.pair(2))
    vn = rtp_state(bundle["triple"], bundle["rho"], bundle["sigma"])
    # matched range pairs survive: sum over units of (arrows into unit)^2
    assert vn.dim == 8
    cs = rtp_cstar(bundle["alpha"], bundle["beta"])
    _, result = phi_unitary(vn, cs)
    assert result.ok, result.residuals
