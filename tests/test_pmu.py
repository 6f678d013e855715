"""Pseudo-multiplicative unitary checks on groupoid fixtures."""
import tracemalloc

import numpy as np
import pytest

from qgw.fixtures import FiniteGroupoid, groupoid_pentagon_unitary
from qgw.hopf import groupoid_hopf
from qgw.linalg import (
    DEFAULT_TOL,
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
from qgw.rtensor import central_actions, nest_left, nest_right, rtp_state
from kron_reference import GramQuotient, balanced_gap, frame_unitary, \
    kron_nested_factor, kron_nested_gram, plain_class_map, rows_class_map, \
    svd_quotient, unitary_gap


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
    # an edge contracted into the destination's core through the factors of
    # its plain map, in the source's frame, is the destination's class map
    # after the kron matrix, read in that frame
    gen = rng(5)
    n = 4
    v = random_unitary(n * n, gen)
    eye = np.eye(n)
    kron = [np.kron(v, eye), np.kron(eye, v),
            np.kron(eye, swap_matrix(n, n))]
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    squares, _, pair = state_legs(pmu["candidate"])
    vertices = list(pentagon_vertices(squares, pair).values())
    for maps, plain in zip(pentagon_edge_maps(v, n), kron):
        assert mat_norm(np.kron(*maps) - plain) == 0.0
        for src, dst in zip(vertices, vertices[1:] + vertices[:1]):
            top = np.concatenate(list(dst.pulled(maps, src)))
            ref = plain_class_map(dst) @ plain @ frame_unitary(src)
            assert mat_norm(top - ref) < 1e-12 * max(1.0, mat_norm(ref))


def vertex_cases(gpd):
    """(flavor, name, space, nest) for the seven vertices of both flavors
    of the canonical candidate on one groupoid, built as pentagon_vertices
    does; nest = (inner, pair, bracket) holds what the space nests."""
    pmu = groupoid_pmu(gpd)
    flavors = {
        "state": state_legs(pmu["candidate"]),
        "operator": operator_legs(
            pmu["beta_hat"], pmu["alpha_flipped"], pmu["alpha"],
            pmu["beta"], DEFAULT_TOL),
    }
    cases = []
    for flavor, (squares, _, pair) in flavors.items():
        for name, (bracket, leg, kind) in VERTICES.items():
            nest = (squares[leg[0]],
                    pair(kind, int(bracket == "right"), leg), bracket)
            space = (nest_left if bracket == "left" else nest_right)(
                *nest[:2])
            cases.append((flavor, name, space, nest))
    return cases


def pentagon_vertex_cases():
    """vertex_cases on pair(2) and Z/3."""
    return [case for gpd in [FiniteGroupoid.pair(2), FiniteGroupoid.cyclic(3)]
            for case in vertex_cases(gpd)]


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
    for flavor, name, space, nest in cases:
        ref = GramQuotient(kron_nested_gram(*nest))
        cm = plain_class_map(space)
        assert space.dim == ref.dim, (flavor, name)
        assert mat_norm(dagger(cm) @ cm - ref.gram) < 1e-12, (flavor, name)
        proj = dagger(cm) / space.lam @ cm
        assert mat_norm(proj - ref.section @ ref.class_map) < 1e-10, (flavor, name)


def test_nested_vertices_match_the_thin_svd():
    # the r x r Gram of the factor gives the thin SVD's quotient: the same
    # dimension, inner products and projector, and a section right inverse
    # to the class map
    cases = pentagon_vertex_cases()
    assert len(cases) == 28
    for flavor, name, space, nest in cases:
        factor = kron_nested_factor(*nest)
        class_map, section = svd_quotient(factor, space.tol)
        cm = plain_class_map(space)
        assert space.dim == len(class_map), (flavor, name)
        assert mat_norm(dagger(cm) @ cm
                        - dagger(class_map) @ class_map) < 1e-10, (flavor, name)
        assert mat_norm(dagger(cm) / space.lam @ cm
                        - section @ class_map) < 1e-10, (flavor, name)
        assert mat_norm(cm @ dagger(cm) / space.lam
                        - np.eye(space.dim)) < 1e-12, (flavor, name)


def nested_spaces(gpd):
    """(label, space, nest) for the seven vertices of both flavors and
    hopf's three-factor space on one groupoid."""
    out = [(f"{flavor} {name}", space, nest) for flavor, name, space, nest
           in vertex_cases(gpd)]
    space = groupoid_hopf(gpd)["state_space"]
    inner_rho, _ = space.lift([None, space.meta["rho_stack"]])
    pair = rtp_state(space.meta["triple"], inner_rho,
                     space.meta["sigma_stack"])
    return out + [("hopf big", nest_left(space, pair), (space, pair, "left"))]


@pytest.mark.parametrize("gpd, support", [
    (FiniteGroupoid.pair(2), 16), (FiniteGroupoid.pair(3), 81),
    (FiniteGroupoid.cyclic(3), 27)], ids=["pair2", "pair3", "z3"])
def test_nested_core_on_support_matches_the_dense_rows_route(gpd, support):
    # core W* is the class map of the dense route, up to the unitary that
    # eigenspaces of equal lam leave free, on dim of the n^6 plain-cube
    # columns for a groupoid base (all of them for a group)
    for label, space, nest in nested_spaces(gpd):
        ref, lam = rows_class_map(*nest)
        cm = plain_class_map(space)
        assert space.core.shape == (space.dim, support) == ref.shape[:1] \
            + (support,), label
        weights = np.linalg.norm(ref, axis=0)
        assert np.sum(weights > 1e-12 * weights.max()) == support, label
        assert unitary_gap(cm, ref) < 1e-12, label
        assert mat_norm(np.sort(space.lam) - np.sort(lam)) \
            < 1e-12 * lam.max(), label


def test_state_pentagon_holds_under_8_mb_on_pair3():
    # the seven vertices keep dim x dim cores, not dim x n^6 class maps
    # (13.9 MB peak with them)
    cand = groupoid_pmu(FiniteGroupoid.pair(3))["candidate"]
    tracemalloc.start()
    try:
        report = check_pmu_state(cand)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 8e6, peak


def test_pentagon_vertices_keep_a_wide_rank_margin():
    # the r x r Gram route resolves a kept direction only to about
    # r 1e-16 lam_max / lam_k, so a vertex whose smallest kept eigenvalue
    # drifts toward the cut could report a descent residual from round-off
    # alone; every vertex sits above 1e6x the cut today
    for flavor, name, space, _ in pentagon_vertex_cases():
        lam = np.linalg.norm(space.core, axis=1) ** 2
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
