"""Negative controls for the *-representation, homomorphism, fiber
product and comultiplication residuals.

Every residual that rep_report (both orientations), hom_report,
Factorization.rho_report, phi_unitary and fiber_equivalence (as the fiber
command flattens it) emit, and every hopf_equivalence residual that the image
stacks of a comultiplication drive beyond hom_report's, has a seeded
perturbation here that drives it over threshold.  The coverage test
collects the names the reports emit on valid input and fails if one of
them has no control.
"""
from functools import cache

import numpy as np
import pytest

from qgw.cbase import CStarBase
from qgw.cfact import Factorization
from qgw.fiber import conjugated_algebra, fiber_equivalence, hom_report
from qgw.fixtures import FiniteGroupoid, linked_bundle, random_standard_base
from qgw.hopf import groupoid_hopf, hopf_equivalence, perturbed_hopf
from qgw.linalg import DEFAULT_TOL, dagger, random_unitary, rng, span
from qgw.report import checks_from_residuals
from qgw.rtensor import phi_unitary, rtp_cstar, rtp_state
from qgw.staralg import (
    StarAlgebra,
    algebra_from_generators,
    rep_report,
    rep_value,
)
from small_fixtures import full_matrix_algebra

THRESHOLD = DEFAULT_TOL.check
SEED = 4


def seeded_base():
    """GNS triple and base of a seeded M2 + M1 block algebra."""
    return random_standard_base([2, 1], SEED)


# perturbations of a *-representation stack over the algebra's basis


def non_unital(alg, mats):
    """pi + 0 on one extra dimension: multiplicative and star-preserving,
    but sends 1 to a proper projection."""
    d = mats.shape[1]
    out = np.zeros((len(mats), d + 1, d + 1), dtype=complex)
    out[:, :d, :d] = mats
    return out


def non_star(alg, mats):
    """Conjugation by a seeded invertible, non-unitary g."""
    gen = rng(SEED + 1)
    d = mats.shape[1]
    g = np.eye(d) + 0.5 * gen.standard_normal((d, d))
    return g @ mats @ np.linalg.inv(g)


def non_multiplicative(alg, mats):
    """A seeded mix of pi with the normalized trace: unital and
    star-preserving, not multiplicative."""
    t = rng(SEED + 2).uniform(0.2, 0.8)
    n, d = alg.space_dim, mats.shape[1]
    traces = np.trace(alg.subspace.stack, axis1=1, axis2=2) / n
    return (1 - t) * mats + t * traces[:, None, None] * np.eye(d)


PERTURBATIONS = {
    "unital": non_unital,
    "star": non_star,
    "multiplicative": non_multiplicative,
}


def stack_for(triple, anti):
    """A valid family: the left action, or the right one read anti."""
    return triple.rep_op_stack if anti else triple.rep_stack


def rep_control(name, anti):
    def control():
        triple, _ = seeded_base()
        alg = triple.algebra
        mats = PERTURBATIONS[name](alg, stack_for(triple, anti))
        return rep_report(alg, mats, anti)
    return control


def hom_control(name):
    def control():
        triple, _ = seeded_base()
        alg = triple.algebra
        mats = PERTURBATIONS[name](alg, triple.rep_stack)
        target = full_matrix_algebra(mats.shape[1])
        return hom_report(mats, alg, target)
    return control


def hom_outside_target():
    """The left action into a Haar-rotated copy of its own image."""
    triple, base = seeded_base()
    target = conjugated_algebra(
        random_unitary(triple.dim, rng(SEED + 3)), base.algebra
    )
    return hom_report(triple.rep_stack, triple.algebra, target)


def factorization(base, stack):
    return Factorization(base, stack.shape[1],
                         span(stack, stack.shape[1], base.space_dim),
                         certify=False)


def rho_non_star():
    """Maps f g with g an invertible, non-unitary element of the acting
    algebra: the induced action becomes rho(g) rho(.) rho(g)^-1."""
    _, base = seeded_base()
    partner = base.partner.subspace.stack
    coeffs = rng(SEED + 4).standard_normal(len(partner))
    g = np.eye(base.space_dim) + 0.5 * np.tensordot(coeffs, partner, axes=1)
    return factorization(base, base.algebra.subspace.stack @ g).rho_report()


def rho_wrong_side():
    """Maps taken from the acting algebra itself: the induced action is
    right multiplication, which reverses products."""
    _, base = seeded_base()
    return factorization(base, base.partner.subspace.stack).rho_report()


def rho_rotated():
    """Maps f h with h a seeded Haar unitary: no longer intertwiners."""
    _, base = seeded_base()
    h = random_unitary(base.space_dim, rng(SEED + 5))
    return factorization(base, base.algebra.subspace.stack @ h).rho_report()


def rho_corner():
    """Acting algebra cut down to the corner p B' of a central projection
    p; the induced action sends its unit p to a proper projection."""
    triple, base = seeded_base()
    p = rep_value(triple.algebra, triple.rep_op_stack, np.diag([0.0, 0.0, 1.0]))
    n = base.space_dim
    corner = StarAlgebra(n, span(p @ base.partner.subspace.stack, n, n),
                         certify=False)
    cut = CStarBase(base.algebra, corner, base.cyclic_vector)
    return factorization(cut, base.algebra.subspace.stack).rho_report()


# the phi and fiber commands' residuals, over the squares of the seeded base


def seeded_squares(cstar_seed=SEED, cstar_blocks=(2, 1)):
    """(data, state square, operator square) of the seeded linked bundle;
    cstar_seed or cstar_blocks build the operator square over another
    seeded base instead, on the same plain square."""
    data = linked_bundle([2, 1], 1, 1, SEED)
    other = linked_bundle(list(cstar_blocks), 1, 1, cstar_seed)
    return (data, rtp_state(data["triple"], data["rho"], data["sigma"]),
            rtp_cstar(other["alpha"], other["beta"]))


def phi_residuals(**other):
    """phi_unitary's residuals on seeded_squares(**other)."""
    return phi_unitary(*seeded_squares(**other)[1:])[1].residuals


def fiber_residuals(cstar_seed=SEED, legs=None, rotate=False):
    """The flattened fiber certificate of the seeded linked bundle; legs
    replaces both leg algebras, cstar_seed builds the operator square over
    another seeded base, rotate moves phi by a seeded Haar unitary."""
    data, vn, cs = seeded_squares(cstar_seed)
    phi, _ = phi_unitary(vn, cs)
    if rotate:
        phi = phi @ random_unitary(vn.dim, rng(SEED + 7))
    a, b = legs or (algebra_from_generators(3, data["rho"]),
                    algebra_from_generators(3, data["sigma"]))
    cert = fiber_equivalence(vn, cs, a, b, phi)
    return {c.name: c.residual for c in checks_from_residuals(cert)}


def fiber_scalar_legs():
    """Scalar leg algebras: their commutants, all of M_3 on each leg, do not
    descend to the quotient."""
    scalars = algebra_from_generators(3, [np.eye(3)])
    return fiber_residuals(legs=(scalars, scalars))


# the residuals that a comultiplication's image stacks drive, around the
# diagonal candidates of pair(2) and Z_3


@cache
def pair2_hopf():
    return groupoid_hopf(FiniteGroupoid.pair(2))


def hopf_residuals(delta_state=None, delta_cstar=None, hopf=None):
    """hopf_equivalence with either image stack replaced: the state
    flavor's leg and coassociativity residuals and the parent's own."""
    h = hopf or pair2_hopf()
    vn, cs = h["state_space"], h["cstar_space"]
    eq = hopf_equivalence(
        vn, cs, h["algebra"],
        h["delta_state"] if delta_state is None else delta_state,
        h["delta_cstar"] if delta_cstar is None else delta_cstar,
        phi_unitary(vn, cs)[0],
    )
    state = eq.children["state"].residuals
    return {**{name: state[name] for name in
               ("right_action_leg", "left_action_leg", "coassociative")},
            **eq.residuals}


def hopf_rotated(flavor):
    """One flavor's images conjugated by a seeded Haar unitary: still a
    *-homomorphism, aimed away from its fiber product and from phi."""
    h = pair2_hopf()
    key = "delta_state" if flavor == "state" else "delta_cstar"
    u = random_unitary(h[key].shape[1], rng(SEED + 8))
    return hopf_residuals(**{key: u @ h[key] @ dagger(u)})


def hopf_automorphed():
    """The state images of Z_3 after the automorphism of C[Z_3] that swaps
    the minimal projections of the trivial and one other character: still
    a *-homomorphism into the square that transports both leg actions and
    extends to the three-factor space, but the two extensions differ."""
    h = groupoid_hopf(FiniteGroupoid.cyclic(3))
    alg = h["algebra"]
    chars = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    p = chars[:, [1, 0, 2]] @ dagger(chars)
    moved = p @ alg.subspace.stack @ dagger(p)
    return hopf_residuals(delta_state=rep_value(alg, h["delta_state"], moved),
                          hopf=h)


def hopf_perturbed():
    """perturbed_hopf: a seeded rank-one defect, off the identity, injected
    into both flavors coherently."""
    return hopf_residuals(hopf=perturbed_hopf(pair2_hopf(), SEED))


# (report, residual name) -> a perturbed run of that report
CONTROLS = {
    **{("rep_report", name): rep_control(name, False)
       for name in PERTURBATIONS},
    **{("rep_report_anti", name): rep_control(name, True)
       for name in PERTURBATIONS},
    **{("hom_report", name): hom_control(name) for name in PERTURBATIONS},
    ("hom_report", "lands_in_target"): hom_outside_target,
    ("rho_report", "unital"): rho_corner,
    ("rho_report", "star"): rho_non_star,
    ("rho_report", "multiplicative"): rho_wrong_side,
    ("rho_report", "exchange_identity"): rho_rotated,
    # the operator square linked to another seed's actions
    **{("phi", name): lambda: phi_residuals(cstar_seed=SEED + 6)
       for name in ("unitary", "transports_classes", "gram_match")},
    # an operator square over M1 + M1 + M1: three classes against two
    ("phi", "dimension_defect"): lambda: phi_residuals(cstar_blocks=(1, 1, 1)),
    ("fiber", "classical_lift_well_defined"): fiber_scalar_legs,
    # the spatial product over another seeded base algebra
    ("fiber", "dimension_defect"): lambda: fiber_residuals(cstar_seed=SEED + 6),
    # the classical product conjugated by a seeded unitary before transport
    ("fiber", "transport"): lambda: fiber_residuals(rotate=True),
    ("hopf", "right_action_leg"): hopf_perturbed,
    ("hopf", "left_action_leg"): hopf_perturbed,
    ("hopf", "coassociative"): hopf_automorphed,
    ("hopf", "transport"): lambda: hopf_rotated("operator"),
    # the state flavor fails, the operator flavor passes
    ("hopf", "verdicts_agree"): lambda: hopf_rotated("state"),
}


def valid_reports():
    """Each report on unperturbed input."""
    triple, base = seeded_base()
    alg = triple.algebra
    return {
        "rep_report": rep_report(alg, triple.rep_stack),
        "rep_report_anti": rep_report(alg, triple.rep_op_stack, anti=True),
        "hom_report": hom_report(triple.rep_stack, alg, base.algebra),
        "rho_report": factorization(
            base, base.algebra.subspace.stack
        ).rho_report(),
        "phi": phi_residuals(),
        "fiber": fiber_residuals(),
        "hopf": hopf_residuals(),
    }


def test_every_emitted_residual_has_a_control():
    emitted = set()
    for report, residuals in valid_reports().items():
        assert all(v <= THRESHOLD for v in residuals.values()), report
        emitted |= {(report, name) for name in residuals}
    assert emitted - set(CONTROLS) == set()
    assert set(CONTROLS) - emitted == set()


@pytest.mark.parametrize("key", sorted(CONTROLS), ids="-".join)
def test_control_drives_its_residual_over_threshold(key):
    _, name = key
    residuals = CONTROLS[key]()
    assert residuals[name] > 1e3 * THRESHOLD, residuals
