"""Pseudo-multiplicative unitary checks on groupoid fixtures."""
import numpy as np
import pytest

from qgw.fixtures import FiniteGroupoid, groupoid_pentagon_unitary
from qgw.linalg import (
    DEFAULT_TOL,
    QuotientRealization,
    dagger,
    mat_norm,
    random_unitary,
    rng,
    unitary_residual,
)
from qgw.pmu import (
    EXCHANGES,
    VERTICES,
    PmuCandidate,
    check_pmu_cstar,
    check_pmu_state,
    groupoid_pmu,
    operator_legs,
    pentagon_edge_maps,
    pentagon_vertices,
    phase_perturbed_candidate,
    pmu_equivalence,
    state_legs,
    swap_matrix,
    swapped_candidate,
)
from qgw.rtensor import central_actions
from kron_reference import balanced_gap, kron_nested_factor, \
    kron_nested_gram, svd_quotient


def test_swap_matrix_exchanges_legs():
    rng = np.random.default_rng(3)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    sw = swap_matrix(2, 3)
    assert np.allclose(sw @ np.kron(a, b), np.kron(b, a))
    assert unitary_residual(swap_matrix(4, 4)) < 1e-14


def test_plain_pentagon_identity_of_composition():
    # both ways around the pentagon agree already on the plain cube for a
    # groupoid operator, because each path zeroes exactly the
    # non-composable triples
    for gpd in [FiniteGroupoid.pair(2), FiniteGroupoid.cyclic(3)]:
        n = gpd.n_arrows
        v = groupoid_pentagon_unitary(gpd)
        eye = np.eye(n)
        sw23 = np.kron(eye, swap_matrix(n, n))
        v12 = np.kron(v, eye)
        v23 = np.kron(eye, v)
        top = v23 @ v12
        bottom = v12 @ sw23 @ v12 @ sw23 @ v23
        assert np.allclose(top, bottom)


def test_leg_wise_edges_match_kron_matrices():
    gen = rng(5)
    n = 3
    rows = gen.standard_normal((4, n ** 3)) + 1j * gen.standard_normal((4, n ** 3))
    v = random_unitary(n * n, gen)
    eye = np.eye(n)
    v12, v23, sw23 = pentagon_edge_maps(v, n)
    assert mat_norm(v12(rows) - rows @ np.kron(v, eye)) < 1e-12
    assert mat_norm(v23(rows) - rows @ np.kron(eye, v)) < 1e-12
    assert mat_norm(sw23(rows) - rows @ np.kron(eye, swap_matrix(n, n))) == 0.0


def pentagon_vertex_cases():
    """(flavor, name, space) for the seven vertices of both flavors of the
    canonical candidate on pair(2) and Z/3."""
    cases = []
    for gpd in [FiniteGroupoid.pair(2), FiniteGroupoid.cyclic(3)]:
        pmu = groupoid_pmu(gpd)
        flavors = {
            "state": state_legs(pmu["candidate"]),
            "operator": operator_legs(
                pmu["beta_hat"], pmu["alpha_flipped"], pmu["alpha"],
                pmu["beta"], DEFAULT_TOL),
        }
        for flavor, (squares, _, pair) in flavors.items():
            cases += [(flavor, name, space) for name, space
                      in pentagon_vertices(squares, pair).items()]
    return cases


@pytest.mark.parametrize("gpd, units", [
    (FiniteGroupoid.pair(2), 2), (FiniteGroupoid.pair(3), 3),
    (FiniteGroupoid.cyclic(3), 1)], ids=["pair2", "pair3", "z3"])
def test_pentagon_pair_squares_live_on_the_balanced_support(gpd, units):
    # the base C^units has a central z with units distinct eigenvalues, so
    # 1/units of the plain pairs match (81 of 243 on pair(3)) and carry the
    # whole Gram; a group's base C matches every pair
    pmu = groupoid_pmu(gpd)
    flavors = [state_legs(pmu["candidate"]), operator_legs(
        pmu["beta_hat"], pmu["alpha_flipped"], pmu["alpha"], pmu["beta"],
        DEFAULT_TOL)]
    for _, _, pair in flavors:
        for name, (bracket, leg, kind) in VERTICES.items():
            space = pair(kind, int(bracket == "right"), leg)
            matched, n, gaps = balanced_gap(
                space, central_actions(space.flavor, space.meta))
            assert matched * units == n, (space.flavor, name)
            assert max(gaps) < 1e-12, (space.flavor, name, gaps)


def test_nested_vertices_match_kron_grams():
    cases = pentagon_vertex_cases()
    assert len(cases) == 28
    for flavor, name, space in cases:
        ref = QuotientRealization(kron_nested_gram(space))
        assert space.dim == ref.dim, (flavor, name)
        assert mat_norm(space.gram - ref.gram) < 1e-12, (flavor, name)
        proj = space.section @ space.class_map
        assert mat_norm(proj - ref.section @ ref.class_map) < 1e-10, (flavor, name)


def test_nested_vertices_match_the_thin_svd():
    # the r x r Gram of the factor gives the thin SVD's quotient: the same
    # dimension, inner products and projector, and a section right inverse
    # to the class map
    cases = pentagon_vertex_cases()
    assert len(cases) == 28
    for flavor, name, space in cases:
        factor = kron_nested_factor(space)
        class_map, section = svd_quotient(factor, space.tol)
        assert space.dim == len(class_map), (flavor, name)
        assert mat_norm(dagger(space.class_map) @ space.class_map
                        - dagger(class_map) @ class_map) < 1e-10, (flavor, name)
        assert mat_norm(space.section @ space.class_map
                        - section @ class_map) < 1e-10, (flavor, name)
        assert mat_norm(space.class_map @ space.section
                        - np.eye(space.dim)) < 1e-12, (flavor, name)


def test_pentagon_vertices_keep_a_wide_rank_margin():
    # the r x r Gram route resolves a kept direction only to about
    # r 1e-16 lam_max / lam_k, so a vertex whose smallest kept eigenvalue
    # drifts toward the cut could report a descent residual from round-off
    # alone; every vertex sits above 1e6x the cut today
    for flavor, name, space in pentagon_vertex_cases():
        lam = np.linalg.norm(space.class_map, axis=1) ** 2
        n = space.plain_dim
        cut = space.tol.rank_cut(lam.max(), n, n)
        assert lam.min() >= 1e4 * cut, (flavor, name, lam.min() / cut)


def seeded_unitary_candidate(pmu):
    """The canonical candidate's actions with a seeded unitary on the plain
    square in place of the operator."""
    cand = pmu["candidate"]
    n = cand.space_dim
    return PmuCandidate(cand.triple, cand.sigma_hat, cand.rho, cand.sigma,
                        random_unitary(n * n, rng(6)), cand.tol)


def test_non_descending_operator_fails_both_descent_residuals():
    # a seeded unitary on the plain square sends kernel vectors of the
    # source square off the target's support, and its pentagon edges the
    # same way on the three-factor spaces
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    bad = seeded_unitary_candidate(pmu)
    report = check_pmu_state(bad)
    assert report.residuals["descends_to_quotients"] > 1e3 * DEFAULT_TOL.check
    assert report.residuals["edges_descend"] > 1e3 * DEFAULT_TOL.check
    assert not report.ok
    operator = check_pmu_cstar(bad, pmu["beta_hat"], pmu["alpha_flipped"],
                               pmu["alpha"], pmu["beta"])
    assert operator.residuals["edges_descend"] > 1e3 * DEFAULT_TOL.check


def test_groupoid_candidate_descends_to_unitary():
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    cand = pmu["candidate"]
    assert cand.source_space.dim == 8
    assert cand.target_space.dim == 8
    assert cand.v_residual < 1e-10
    assert unitary_residual(cand.v_matrix) < 1e-10


@pytest.mark.parametrize("make", [
    lambda: FiniteGroupoid.cyclic(2),
    lambda: FiniteGroupoid.cyclic(3),
    lambda: FiniteGroupoid.pair(2),
])
def test_state_flavor_passes(make):
    pmu = groupoid_pmu(make())
    report = check_pmu_state(pmu["candidate"])
    assert report.ok
    assert report.residuals["pentagon"] < 1e-7
    others = {k: v for k, v in report.residuals.items() if k != "pentagon"}
    assert max(others.values()) < 1e-8


def test_exchange_relations_tight():
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    report = check_pmu_state(pmu["candidate"])
    for name in [
        "moves_right_range_action",
        "fixes_first_leg_range_action",
        "turns_second_range_into_source",
        "fixes_second_leg_source_action",
    ]:
        assert report.residuals[name] < 1e-10


@pytest.mark.parametrize("make", [
    lambda: FiniteGroupoid.cyclic(2),
    lambda: FiniteGroupoid.pair(2),
])
def test_operator_flavor_passes_and_agrees(make):
    pmu = groupoid_pmu(make())
    eq = pmu_equivalence(
        pmu["candidate"], pmu["beta_hat"], pmu["alpha_flipped"],
        pmu["alpha"], pmu["beta"],
    )
    assert eq.children["state"].ok
    assert eq.children["operator"].ok
    assert eq.residuals["verdicts_agree"] == 0.0 and eq.ok
    assert eq.children["operator"].residuals["pentagon"] < 1e-7


def test_operator_flavor_transport_relations():
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    report = check_pmu_cstar(
        pmu["candidate"], pmu["beta_hat"], pmu["alpha_flipped"],
        pmu["alpha"], pmu["beta"],
    )
    for name in [
        "swaps_left_insertions",
        "moves_hat_insertions_across",
        "turns_hat_pairs_into_left",
        "fixes_right_insertions",
    ]:
        assert report.residuals[name] < 1e-8
    assert report.residuals["operator_transport_consistent"] < 1e-8


@pytest.mark.parametrize("make,variant,passes", [
    (lambda: FiniteGroupoid.pair(2), None, True),
    (lambda: FiniteGroupoid.cyclic(3), None, True),
    (lambda: FiniteGroupoid.cyclic(3), swapped_candidate, True),
    (lambda: FiniteGroupoid.cyclic(4), phase_perturbed_candidate, True),
    (lambda: FiniteGroupoid.pair(2), seeded_unitary_candidate, False),
], ids=["pair(2)", "z3", "z3-swap", "z4-phase", "pair(2)-seeded"])
def test_exchange_rows_agree_across_flavors(make, variant, passes):
    # each EXCHANGES row is one relation read on two kinds of square: its
    # state and operator residuals pass or fail together (the swap on
    # pair(2) is left out: it is not unitary on the quotients, and there the
    # operator rows also count the dimension the operator loses)
    pmu = groupoid_pmu(make())
    cand = variant(pmu) if variant else pmu["candidate"]
    state = check_pmu_state(cand)
    operator = check_pmu_cstar(cand, pmu["beta_hat"], pmu["alpha_flipped"],
                               pmu["alpha"], pmu["beta"])
    thr = DEFAULT_TOL.check
    for state_name, operator_name in EXCHANGES:
        verdicts = (state.residuals[state_name] <= thr,
                    operator.residuals[operator_name] <= thr)
        assert verdicts == (passes, passes), (state_name, operator_name)


def test_swapped_operator_fails_pentagon_on_group():
    # trivial base, so the swap still descends and stays unitary; only the
    # pentagon tells it apart from the composition operator
    pmu = groupoid_pmu(FiniteGroupoid.cyclic(2))
    report = check_pmu_state(swapped_candidate(pmu))
    assert report.residuals["descends_to_quotients"] < 1e-10
    assert report.residuals["unitary"] < 1e-10
    assert report.residuals["pentagon"] >= 1e-4
    assert not report.ok


def test_swapped_operator_fails_on_groupoid():
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    report = check_pmu_state(swapped_candidate(pmu))
    assert not report.ok


def test_phase_perturbation_detected_by_both_flavors():
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    cand = phase_perturbed_candidate(pmu, angle=1e-3)
    eq = pmu_equivalence(
        cand, pmu["beta_hat"], pmu["alpha_flipped"],
        pmu["alpha"], pmu["beta"],
    )
    assert not eq.children["state"].ok
    assert not eq.children["operator"].ok
    assert eq.residuals["verdicts_agree"] == 0.0 and eq.ok
    assert eq.children["state"].residuals["pentagon"] >= 1e-4
    assert eq.children["operator"].residuals["pentagon"] >= 1e-4


def test_phase_perturbation_keeps_exchange_relations():
    # the phase commutes with the diagonal leg actions, so every axiom
    # except the pentagon still passes; the failure is localized
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    report = check_pmu_state(phase_perturbed_candidate(pmu, angle=1e-3))
    others = {k: v for k, v in report.residuals.items() if k != "pentagon"}
    assert max(others.values()) < 1e-8
    assert report.residuals["pentagon"] >= 1e-4
