"""Comultiplications into relative squares, certified on both flavors.

A candidate pairs one linear map into the state-flavor square with one into
the operator-flavor square.  The state side is checked against the
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
from .linalg import DEFAULT_TOL, Tolerance, dagger, mat_norm, rng
from .report import Certificate
from .rtensor import (
    RelativeTensorSpace,
    ket_factorization,
    nest_left,
    phi_unitary,
    rtp_cstar,
    rtp_state,
)
from .staralg import StarAlgebra


def check_hopf_state(space: RelativeTensorSpace, algebra: StarAlgebra,
                     delta) -> Certificate:
    """Certify a comultiplication candidate on the state-flavor square."""
    triple = space.meta["triple"]
    rho_stack = space.meta["rho_stack"]
    sigma_stack = space.meta["sigma_stack"]
    res: dict = {}
    fp, _ = fiber_classical(space, algebra, algebra)
    for k, v in hom_report(delta, algebra, fp).items():
        res["hom_" + k] = v
    # the canonical actions must land inside the algebra and transport to
    # single-leg lifts
    worst_in = worst_rho = worst_sigma = 0.0
    for i in range(rho_stack.shape[0]):
        worst_in = max(worst_in, algebra.residual(rho_stack[i]),
                       algebra.residual(sigma_stack[i]))
        lifted_rho, _ = space.lift([None, rho_stack[i]])
        lifted_sigma, _ = space.lift([sigma_stack[i], None])
        worst_rho = max(worst_rho, mat_norm(delta(rho_stack[i]) - lifted_rho))
        worst_sigma = max(
            worst_sigma, mat_norm(delta(sigma_stack[i]) - lifted_sigma)
        )
    res["actions_inside_algebra"] = worst_in
    res["right_action_leg"] = worst_rho
    res["left_action_leg"] = worst_sigma
    res["coassociative"] = _coassociativity_residual(
        space, algebra, delta, triple, rho_stack, sigma_stack
    )
    return Certificate(res, space.tol)


def _coassociativity_residual(space, algebra, delta, triple, rho_stack,
                              sigma_stack) -> float:
    """Compare the two extensions of the candidate to the three-factor
    space; infinity when no extension exists."""
    n = space.plain_dims[0]
    inner_rho, _ = space.lifted_rep(rho_stack, leg=1, require=False)
    try:
        pair = rtp_state(triple, inner_rho, sigma_stack)
    except PreconditionError:
        return float("inf")
    big = nest_left(space, pair)
    inter = intertwiner_space(delta, algebra, n, space.dim)
    if inter.shape[0] == 0:
        return float("inf")
    plain = np.stack([space.section @ x for x in inter])
    eye = np.stack([np.eye(n, dtype=complex)])
    try:
        into_first = fiber_morphism(space, big, plain, eye,
                                    require_descend=False)
        into_last = fiber_morphism(space, big, eye, plain,
                                   require_descend=False)
        worst = 0.0
        for a in algebra.basis():
            s = delta(a)
            z_first, r1 = into_first.apply(s)
            z_last, r2 = into_last.apply(s)
            scale = max(1.0, mat_norm(z_first))
            worst = max(worst, r1, r2, mat_norm(z_first - z_last) / scale)
        return worst
    except NotWellDefinedError:
        return float("inf")


def check_hopf_cstar(space: RelativeTensorSpace, algebra: StarAlgebra,
                     delta) -> Certificate:
    """Certify a comultiplication candidate on the operator-flavor square."""
    alpha = space.meta["left_fact"]
    beta = space.meta["right_fact"]
    res: dict = {}
    fp, _ = fiber_spatial(space, algebra, algebra)
    for k, v in hom_report(delta, algebra, fp).items():
        res["hom_" + k] = v
    alpha2 = ket_factorization(space, alpha, alpha, leg=0, flipped=False)
    beta2 = ket_factorization(space, beta, beta, leg=1, flipped=True)
    for name, src in (("left_insertions", alpha), ("right_insertions", beta)):
        tgt = alpha2 if name == "left_insertions" else beta2
        try:
            verdict = is_morphism(delta, algebra, src, fp, tgt)
            res[name + "_morphism"] = 0.0 if verdict.ok else 1.0
        except PreconditionError:
            res[name + "_morphism"] = 1.0
    return Certificate(res, space.tol)


def hopf_equivalence(state_space: RelativeTensorSpace,
                     cstar_space: RelativeTensorSpace,
                     algebra: StarAlgebra, delta_state, delta_cstar,
                     phi: np.ndarray) -> Certificate:
    """Run both checks and certify they describe the same candidate.

    The two checks are the children "state" and "operator"; the parent's own
    residuals are the transport under phi (the squares' flavor unitary) and
    the agreement of the two verdicts, which holds also when both fail.
    """
    state = check_hopf_state(state_space, algebra, delta_state)
    operator = check_hopf_cstar(cstar_space, algebra, delta_cstar)
    worst = 0.0
    for a in algebra.basis():
        moved = phi @ delta_state(a) @ dagger(phi)
        worst = max(worst, mat_norm(delta_cstar(a) - moved))
    return Certificate(
        {"verdicts_agree": 0.0 if state.ok == operator.ok else 1.0,
         "transport": worst},
        state_space.tol, {"state": state, "operator": operator},
    )


def groupoid_hopf(gpd: FiniteGroupoid, weights=None,
                  tol: Tolerance = DEFAULT_TOL) -> dict:
    """Diagonal comultiplication of a groupoid algebra, on both flavors."""
    bundle = groupoid_bundle(gpd, weights, tol)
    arrow_alg, norms = groupoid_algebra(gpd, tol)
    vn = rtp_state(bundle["triple"], bundle["rho"], bundle["sigma"])
    cs = rtp_cstar(bundle["alpha"], bundle["beta"])
    images_vn = []
    images_cs = []
    for g in range(gpd.n_arrows):
        lam = arrow_alg.basis()[g]
        images_vn.append(norms[g] * vn.lift([lam, lam])[0])
        images_cs.append(norms[g] * cs.lift([lam, lam])[0])
    stack_vn = np.stack(images_vn)
    stack_cs = np.stack(images_cs)

    def delta_state(a):
        return np.tensordot(arrow_alg.coefficients(a), stack_vn, axes=1)

    def delta_cstar(a):
        return np.tensordot(arrow_alg.coefficients(a), stack_cs, axes=1)

    return {
        **bundle,
        "algebra": arrow_alg,
        "state_space": vn,
        "cstar_space": cs,
        "delta_state": delta_state,
        "delta_cstar": delta_cstar,
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
    probe = gen.standard_normal((algebra.space_dim, algebra.space_dim)) \
        + 1j * gen.standard_normal((algebra.space_dim, algebra.space_dim))
    bump_vn = gen.standard_normal((vn.dim, vn.dim)) \
        + 1j * gen.standard_normal((vn.dim, vn.dim))
    phi, _ = phi_unitary(vn, cs)
    bump_cs = phi @ bump_vn @ dagger(phi)
    eye = np.eye(algebra.space_dim)

    def weight(a):
        # vanishes on the identity so the defect spares unitality
        a = np.asarray(a, dtype=complex)
        return np.trace(dagger(probe) @ a) \
            - np.trace(a) * np.trace(dagger(probe) @ eye) / eye.shape[0]

    base_state = hopf["delta_state"]
    base_cstar = hopf["delta_cstar"]
    out = dict(hopf)
    out["delta_state"] = lambda a: base_state(a) + scale * weight(a) * bump_vn
    out["delta_cstar"] = lambda a: base_cstar(a) + scale * weight(a) * bump_cs
    return out
