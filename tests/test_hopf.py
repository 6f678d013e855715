import tracemalloc

import numpy as np
import pytest

from qgw import fiber, hopf
from qgw.fixtures import FiniteGroupoid
from qgw.hopf import (
    check_hopf_cstar,
    check_hopf_state,
    groupoid_hopf,
    hopf_equivalence,
    perturbed_hopf,
)
from qgw.linalg import Tolerance, dagger, mat_norm, random_unitary, rng
from qgw.rtensor import ket_factorization, phi_unitary
from kron_reference import stacked_coassociativity_residual


def test_group_z2_state_axioms_tight():
    h = groupoid_hopf(FiniteGroupoid.cyclic(2))
    rep = check_hopf_state(h["state_space"], h["algebra"], h["delta_state"])
    assert rep.ok
    for name, value in rep.residuals.items():
        assert value < 1e-10, f"{name}: {value:.3e}"


def test_group_z2_cstar_axioms_tight():
    h = groupoid_hopf(FiniteGroupoid.cyclic(2))
    rep = check_hopf_cstar(h["cstar_space"], h["algebra"], h["delta_cstar"])
    assert rep.ok
    for name, value in rep.residuals.items():
        assert value < 1e-8, f"{name}: {value:.3e}"


@pytest.mark.parametrize("make", [
    lambda: FiniteGroupoid.cyclic(2),
    lambda: FiniteGroupoid.cyclic(3),
    lambda: FiniteGroupoid.pair(2),
    lambda: FiniteGroupoid.pair(3),
])
def test_diagonal_comultiplication_passes_both_flavors(make):
    h = groupoid_hopf(make())
    eq = hopf_equivalence(h["state_space"], h["cstar_space"], h["algebra"],
                          h["delta_state"], h["delta_cstar"],
                          phi_unitary(h["state_space"], h["cstar_space"])[0])
    assert eq.children["state"].ok
    assert eq.children["operator"].ok
    assert eq.residuals["transport"] < 1e-8
    assert eq.ok


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_perturbed_candidate_fails_both_flavors(seed):
    h = groupoid_hopf(FiniteGroupoid.pair(2))
    bad = perturbed_hopf(h, seed)
    eq = hopf_equivalence(bad["state_space"], bad["cstar_space"],
                          bad["algebra"], bad["delta_state"],
                          bad["delta_cstar"],
                          phi_unitary(bad["state_space"], bad["cstar_space"])[0])
    assert not eq.children["state"].ok
    assert not eq.children["operator"].ok
    assert eq.residuals["verdicts_agree"] == 0.0
    # the defect is transported coherently, so the flavors still match
    assert eq.residuals["transport"] < 1e-8


def test_rotated_candidate_fails_both_flavors():
    # a genuine homomorphism that misses the fiber product entirely
    h = groupoid_hopf(FiniteGroupoid.cyclic(3))
    vn = h["state_space"]
    cs = h["cstar_space"]
    gen = rng(7)
    from qgw.linalg import random_unitary

    u_vn = random_unitary(vn.dim, gen)
    u_cs = random_unitary(cs.dim, gen)
    delta_state = u_vn @ h["delta_state"] @ dagger(u_vn)
    delta_cstar = u_cs @ h["delta_cstar"] @ dagger(u_cs)
    rs = check_hopf_state(vn, h["algebra"], delta_state)
    rc = check_hopf_cstar(cs, h["algebra"], delta_cstar)
    assert not rs.ok
    assert not rc.ok


def test_insertion_factorizations_have_full_dimension():
    h = groupoid_hopf(FiniteGroupoid.pair(2))
    cs = h["cstar_space"]
    alpha = cs.meta["left_fact"]
    beta = cs.meta["right_fact"]
    alpha2 = ket_factorization(cs, alpha, alpha, leg=0, flipped=False)
    beta2 = ket_factorization(cs, beta, beta, leg=1, flipped=True)
    assert alpha2.dim == cs.dim
    assert beta2.dim == cs.dim


def test_coassociativity_residual_is_scale_accurate():
    h = groupoid_hopf(FiniteGroupoid.pair(2))
    rep = check_hopf_state(h["state_space"], h["algebra"], h["delta_state"])
    assert rep.residuals["coassociative"] < 1e-10


def test_perturbed_group_control_fails_coassociativity():
    # the candidate of gen-group --order 3 --hopf-perturb 7 is no *-map,
    # so the *-closure check of its intertwiner solve refuses it (residual
    # 1.1e-2) and coassociativity reads infinity
    h = perturbed_hopf(groupoid_hopf(FiniteGroupoid.cyclic(3)), seed=7)
    rep = check_hopf_state(h["state_space"], h["algebra"], h["delta_state"])
    assert rep.residuals["coassociative"] > rep.thresholds["coassociative"]


def rotated_candidate(gpd, seed=7):
    """The diagonal comultiplication of gpd conjugated by a random unitary
    of its state square: a *-homomorphism off the fiber product."""
    h = groupoid_hopf(gpd)
    u = random_unitary(h["state_space"].dim, rng(seed))
    return {**h, "delta_state": u @ h["delta_state"] @ dagger(u)}


COASSOCIATIVITY_CASES = {
    "pair2": lambda: groupoid_hopf(FiniteGroupoid.pair(2)),
    "pair3": lambda: groupoid_hopf(FiniteGroupoid.pair(3)),
    "z3": lambda: groupoid_hopf(FiniteGroupoid.cyclic(3)),
    "z3-hopf-perturb-7": lambda: perturbed_hopf(
        groupoid_hopf(FiniteGroupoid.cyclic(3)), seed=7),
    "z3-rotated": lambda: rotated_candidate(FiniteGroupoid.cyclic(3)),
}


@pytest.mark.parametrize("case", sorted(COASSOCIATIVITY_CASES))
def test_per_image_coassociativity_matches_the_stacked_comparison(case):
    # the two extensions solved and compared one image at a time give the
    # residual of the comparison on whole image stacks; the perturbed
    # candidate is refused (inf) and the rotated one, a *-homomorphism off
    # the fiber product, reads about 1.4
    h = COASSOCIATIVITY_CASES[case]()
    args = h["state_space"], h["algebra"], h["delta_state"]
    res = hopf._coassociativity_residual(*args)
    ref = stacked_coassociativity_residual(*args)
    assert res == ref or abs(res - ref) <= 1e-12 * max(1.0, ref), (res, ref)
    threshold = h["state_space"].tol.check
    assert (res > threshold) == (case in ("z3-hopf-perturb-7", "z3-rotated"))


def test_coassociativity_holds_under_5_mb_on_pair3():
    # both extensions keep their connectors, re-laid in place into blocks
    # of about q_to x q_to, and solve and compare one image at a time:
    # 3.7 MB traced peak (4.2 MB with each extension's image stack and
    # their difference formed whole)
    h = groupoid_hopf(FiniteGroupoid.pair(3))
    space = h["state_space"]
    tracemalloc.start()
    try:
        res = hopf._coassociativity_residual(space, h["algebra"],
                                             h["delta_state"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res < 1e-10
    assert peak < 3.8e6, peak


def test_intertwiner_solves_follow_the_tolerance(monkeypatch):
    """Both fiber-layer solves of the state check, the coassociativity
    intertwiners included, run at the squares' tolerance."""
    h = groupoid_hopf(FiniteGroupoid.pair(2), tol=Tolerance(eps=1e-6))
    seen = []
    real = fiber.intertwiner_rows

    def spy(*args):
        seen.append(args[3].eps)
        return real(*args)

    monkeypatch.setattr(fiber, "intertwiner_rows", spy)
    check_hopf_state(h["state_space"], h["algebra"], h["delta_state"])
    assert len(seen) == 2 and set(seen) == {1e-6}


def test_coassociative_includes_the_solve_residuals(monkeypatch):
    """The descent and exchange residuals of both extensions count, not
    only the comparison of the extensions themselves: a residual of 0.5 in
    either seam of hopf.fiber_morphism, the connectors' descent or one
    image's exchange relations, reaches coassociative."""
    h = groupoid_hopf(FiniteGroupoid.pair(2))
    real = hopf.fiber_morphism

    def exchange(*args):
        image, worst = real(*args)
        return (lambda s: (image(s)[0], 0.5)), worst

    for seam in (lambda *args: (real(*args)[0], 0.5), exchange):
        monkeypatch.setattr(hopf, "fiber_morphism", seam)
        rep = check_hopf_state(h["state_space"], h["algebra"],
                               h["delta_state"])
        assert rep.residuals["coassociative"] == 0.5
