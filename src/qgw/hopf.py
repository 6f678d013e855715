"""Comultiplications into relative squares, certified on both flavors.

A candidate pairs two linear maps out of the algebra, each given by its image
stack aligned with the algebra basis: one into the state-flavor square, one
into the operator-flavor square.  The state side is checked against the
commutant-style fiber product: homomorphism property, compatibility with the
two canonical leg actions, and coassociativity through the three-factor
space.  The operator side is checked against the insertion-style fiber
product: homomorphism property plus the morphism conditions for both
insertion factorizations.  The equivalence check asserts that the flavor
unitary carries one candidate onto the other and that the two verdicts
agree.
"""
from __future__ import annotations

import numpy as np

from .errors import NotWellDefinedError, PreconditionError
from .fiber import (
    fiber_classical,
    fiber_morphism,
    fiber_spatial,
    hom_report,
    intertwiner_space,
    is_morphism,
)
from .fixtures import FiniteGroupoid, groupoid_algebra, groupoid_bundle
from .linalg import DEFAULT_TOL, Tolerance, dagger, mat_norm, rng, \
    worst_norm
from .report import Certificate
from .rtensor import (
    RelativeTensorSpace,
    ket_factorization,
    nest_left,
    phi_unitary,
    rtp_cstar,
    rtp_state,
)
from .staralg import StarAlgebra, rep_value


def check_hopf_state(space: RelativeTensorSpace, algebra: StarAlgebra,
                     delta: np.ndarray) -> Certificate:
    """Certify a comultiplication candidate, given by its image stack
    aligned with the algebra basis, on the state-flavor square."""
    rho_stack = space.meta["rho_stack"]
    sigma_stack = space.meta["sigma_stack"]
    res: dict = {}
    fp, _ = fiber_classical(space, algebra, algebra)
    for k, v in hom_report(delta, algebra, fp).items():
        res["hom_" + k] = v
    # the canonical actions must land inside the algebra and transport to
    # single-leg lifts
    lifted_rho, _ = space.lift([None, rho_stack])
    lifted_sigma, _ = space.lift([sigma_stack, None])
    res["actions_inside_algebra"] = max(
        algebra.residual(rho_stack), algebra.residual(sigma_stack)
    )
    res["right_action_leg"] = worst_norm(
        rep_value(algebra, delta, rho_stack) - lifted_rho
    )
    res["left_action_leg"] = worst_norm(
        rep_value(algebra, delta, sigma_stack) - lifted_sigma
    )
    res["coassociative"] = _coassociativity_residual(space, algebra, delta)
    return Certificate(res, space.tol)


def _coassociativity_residual(space, algebra, delta) -> float:
    """Compare the two extensions of the candidate to the three-factor
    space, together with how far their connecting maps fail to descend;
    infinity when no extension exists."""
    meta = space.meta
    inner_rho, _ = space.lift([None, meta["rho_stack"]], require=False)
    try:
        pair = rtp_state(meta["triple"], inner_rho, meta["sigma_stack"])
        # a candidate that is no *-map has no intertwiner solve either
        inter = intertwiner_space(delta, algebra, space.tol)
    except PreconditionError:
        return float("inf")
    if inter.shape[0] == 0:
        return float("inf")
    big = nest_left(space, pair)
    # the intertwiners, read on the plain square, fill the first or the
    # last two legs of the three-factor space
    plain = space.section @ inter
    try:
        (first, r1), (last, r2) = (fiber_morphism(space, big, legs)
                                   for legs in ([plain, None], [None, plain]))
    except NotWellDefinedError:
        return float("inf")
    # image by image: both extensions' Z_m, exchange residuals and gap
    worst = max(r1, r2)
    for image in delta:
        (z1, e1), (z2, e2) = first(image), last(image)
        worst = max(worst, e1, e2, mat_norm(z1 - z2) / max(1.0, mat_norm(z1)))
    return worst


def check_hopf_cstar(space: RelativeTensorSpace, algebra: StarAlgebra,
                     delta: np.ndarray) -> Certificate:
    """Certify a comultiplication candidate, given by its image stack
    aligned with the algebra basis, on the operator-flavor square."""
    alpha = space.meta["left_fact"]
    beta = space.meta["right_fact"]
    res: dict = {}
    fp, _ = fiber_spatial(space, algebra, algebra)
    for k, v in hom_report(delta, algebra, fp).items():
        res["hom_" + k] = v
    alpha2 = ket_factorization(space, alpha, alpha, leg=0, flipped=False)
    beta2 = ket_factorization(space, beta, beta, leg=1, flipped=True)
    for name, src, tgt in (("left_insertions", alpha, alpha2),
                           ("right_insertions", beta, beta2)):
        try:
            verdict = is_morphism(delta, algebra, src, fp, tgt)
            res[name + "_morphism"] = 0.0 if verdict.ok else 1.0
        except PreconditionError:
            res[name + "_morphism"] = 1.0
    return Certificate(res, space.tol)


def hopf_equivalence(state_space: RelativeTensorSpace,
                     cstar_space: RelativeTensorSpace,
                     algebra: StarAlgebra, delta_state: np.ndarray,
                     delta_cstar: np.ndarray,
                     phi: np.ndarray) -> Certificate:
    """Run both checks and certify they describe the same candidate, given
    by its two image stacks aligned with the algebra basis.

    The two checks are the children "state" and "operator"; the parent's own
    residuals are the transport under phi (the squares' flavor unitary) and
    the agreement of the two verdicts, which holds also when both fail.
    """
    state = check_hopf_state(state_space, algebra, delta_state)
    operator = check_hopf_cstar(cstar_space, algebra, delta_cstar)
    moved = phi @ delta_state @ dagger(phi)
    return Certificate(
        {"verdicts_agree": 0.0 if state.ok == operator.ok else 1.0,
         "transport": worst_norm(delta_cstar - moved)},
        state_space.tol, {"state": state, "operator": operator},
    )


def groupoid_hopf(gpd: FiniteGroupoid,
                  tol: Tolerance = DEFAULT_TOL) -> dict:
    """Diagonal comultiplication of a groupoid algebra, on both flavors: the
    image stacks, aligned with the arrow algebra's basis, of the lifted
    normalized arrows."""
    bundle = groupoid_bundle(gpd, tol)
    arrow_alg, norms = groupoid_algebra(gpd, tol)
    vn = rtp_state(bundle["triple"], bundle["rho"], bundle["sigma"])
    cs = rtp_cstar(bundle["alpha"], bundle["beta"])
    lams = arrow_alg.subspace.stack
    return {
        **bundle,
        "algebra": arrow_alg,
        "state_space": vn,
        "cstar_space": cs,
        "delta_state": norms[:, None, None] * vn.lift([lams, lams])[0],
        "delta_cstar": norms[:, None, None] * cs.lift([lams, lams])[0],
    }


def perturbed_hopf(hopf: dict, seed: int, scale: float = 1e-3) -> dict:
    """Same candidate with a rank-one defect injected into both flavors.

    The defect is transported coherently, so the flavor comparison still
    matches while every multiplicativity check fails on both sides.
    """
    algebra = hopf["algebra"]
    vn = hopf["state_space"]
    cs = hopf["cstar_space"]
    gen = rng(seed)
    n = algebra.space_dim
    probe = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    bump_vn = gen.standard_normal((vn.dim, vn.dim)) \
        + 1j * gen.standard_normal((vn.dim, vn.dim))
    phi, _ = phi_unitary(vn, cs)
    bump_cs = phi @ bump_vn @ dagger(phi)
    # tr(probe* a) - tr(a) tr(probe*) / n on each basis element a: it
    # vanishes on the identity, so the defect spares unitality
    basis = algebra.subspace.stack
    w = algebra.subspace.flat() @ probe.conj().reshape(-1) \
        - np.trace(basis, axis1=1, axis2=2) * np.trace(probe).conj() / n
    defect = scale * w[:, None, None]
    out = dict(hopf)
    out["delta_state"] = hopf["delta_state"] + defect * bump_vn
    out["delta_cstar"] = hopf["delta_cstar"] + defect * bump_cs
    return out
