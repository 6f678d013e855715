import numpy as np
import pytest

from qgw.fixtures import FiniteGroupoid
from qgw.hopf import (
    check_hopf_cstar,
    check_hopf_state,
    groupoid_hopf,
    hopf_equivalence,
    perturbed_hopf,
)
from qgw.linalg import dagger, mat_norm, rng
from qgw.rtensor import ket_factorization, phi_unitary


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
    base_state = h["delta_state"]
    base_cstar = h["delta_cstar"]
    delta_state = lambda a: u_vn @ base_state(a) @ dagger(u_vn)
    delta_cstar = lambda a: u_cs @ base_cstar(a) @ dagger(u_cs)
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
