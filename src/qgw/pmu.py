"""Pseudo-multiplicative unitaries between relative squares of one space.

A candidate is one space carrying three commuting base actions plus a plain
operator on the twofold tensor product.  The operator must descend to a
unitary from the source-type square to the target-type square, exchange the
leg actions the right way, and satisfy the pentagon identity.  The pentagon
is checked on seven differently bracketed three-factor spaces, all realized
over the same plain threefold tensor product, so every edge is a plain map,
applied to class maps leg by leg.  The operator flavor repeats the programme
with insertion factorizations and must reach the same verdict.
"""
from __future__ import annotations

import numpy as np

from .cbase import CStarBase
from .cfact import Factorization
from .errors import DimensionError
from .fixtures import (
    FiniteGroupoid,
    groupoid_bundle,
    groupoid_pentagon_unitary,
    linked_factorizations,
)
from .gns import GnsTriple
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    dagger,
    induced_between,
    mat_norm,
    span,
    subspace_residual,
    unitary_residual,
    worst_norm,
)
from .report import Certificate
from .rtensor import (
    insertion_span,
    ket_factorization,
    nest_left,
    nest_right,
    phi_unitary,
    rtp_cstar,
    rtp_state,
)
from .staralg import commute_residual


def swap_matrix(n: int, m: int) -> np.ndarray:
    """Plain matrix exchanging the two legs of C^n tensor C^m."""
    return np.eye(n * m).reshape(n, m, n, m).transpose(1, 0, 2, 3).reshape(
        m * n, n * m
    )


class PmuCandidate:
    """Three commuting actions on one space plus a plain candidate operator.

    sigma_hat and sigma are representations of the base algebra, rho one of
    its opposite; v_plain acts on the plain twofold tensor product.  The
    source-type square pairs sigma_hat with rho over the opposite base, the
    target-type square pairs rho with sigma.
    """

    def __init__(self, triple: GnsTriple, sigma_hat_stack, rho_stack,
                 sigma_stack, v_plain, tol: Tolerance | None = None):
        self.triple = triple
        self.tol = tol or triple.tol
        self.sigma_hat = np.asarray(sigma_hat_stack, dtype=complex)
        self.rho = np.asarray(rho_stack, dtype=complex)
        self.sigma = np.asarray(sigma_stack, dtype=complex)
        self.v_plain = np.asarray(v_plain, dtype=complex)
        self.space_dim = self.rho.shape[1]
        n2 = self.space_dim ** 2
        if self.v_plain.shape != (n2, n2):
            raise DimensionError("candidate operator must act on the plain square")
        self.source_space = rtp_state(
            triple, self.sigma_hat, self.rho, over_opposite=True, tol=self.tol
        )
        self.target_space = rtp_state(
            triple, self.rho, self.sigma, tol=self.tol
        )
        self.v_matrix, self.v_residual = induced_between(
            self.source_space, self.target_space, self.v_plain)


def _exchange_residuals(cand: PmuCandidate) -> dict:
    """The four leg-exchange relations, evaluated on the quotients."""
    v = cand.v_matrix
    rho, sigma, hat = cand.rho, cand.sigma, cand.sigma_hat
    relations = {
        "moves_right_range_action": ([rho, None], [None, rho]),
        "fixes_first_leg_range_action": ([sigma, None], [sigma, None]),
        "turns_second_range_into_source": ([None, sigma], [hat, None]),
        "fixes_second_leg_source_action": ([None, hat], [None, hat]),
    }
    out = {}
    worst_lift = 0.0
    for name, (src_ops, tgt_ops) in relations.items():
        a, r1 = cand.source_space.lift(src_ops, require=False)
        b, r2 = cand.target_space.lift(tgt_ops, require=False)
        worst_lift = max(worst_lift, r1, r2)
        out[name] = worst_norm(v @ a - b @ v)
    out["leg_operators_descend"] = worst_lift
    return out


def _pentagon_vertices(cand: PmuCandidate):
    """The seven bracketed three-factor spaces, all over the plain cube."""
    triple = cand.triple
    s_space = cand.source_space
    t_space = cand.target_space
    hat, rho, sigma = cand.sigma_hat, cand.rho, cand.sigma
    worst = 0.0

    def lifted(space, ops):
        nonlocal worst
        mats, res = space.lift(ops, require=False)
        worst = max(worst, res)
        return mats

    hat2_s = lifted(s_space, [None, hat])
    sig2_s = lifted(s_space, [None, sigma])
    rho1_s = lifted(s_space, [rho, None])
    hat2_t = lifted(t_space, [None, hat])
    hat1_t = lifted(t_space, [hat, None])
    rho2_t = lifted(t_space, [None, rho])
    vertices = {
        "first_then_source": nest_left(
            s_space, rtp_state(triple, hat2_s, rho, over_opposite=True)
        ),
        "applied_then_source": nest_left(
            t_space, rtp_state(triple, hat2_t, rho, over_opposite=True)
        ),
        "applied_then_target": nest_left(
            t_space, rtp_state(triple, rho2_t, sigma)
        ),
        "outer_source_of_applied": nest_right(
            t_space, rtp_state(triple, hat, rho2_t, over_opposite=True)
        ),
        "first_then_swapped_source": nest_left(
            s_space, rtp_state(triple, sig2_s, rho, over_opposite=True)
        ),
        "applied_then_first_source": nest_left(
            t_space, rtp_state(triple, hat1_t, rho, over_opposite=True)
        ),
        "first_then_target": nest_left(
            s_space, rtp_state(triple, rho1_s, sigma)
        ),
    }
    return vertices, worst


def pentagon_edge_maps(v_plain: np.ndarray, n: int):
    """Right multiplication of plain-cube rows (k, n^3) by the pentagon's
    plain maps kron(v, 1), kron(1, v) and kron(1, swap), applied leg by
    leg; the swap of the last two legs is an axis transpose."""
    def v12(rows):
        moved = np.tensordot(rows.reshape(-1, n * n, n), v_plain, axes=(1, 0))
        return moved.swapaxes(1, 2).reshape(rows.shape)

    def v23(rows):
        return (rows.reshape(-1, n * n) @ v_plain).reshape(rows.shape)

    def sw23(rows):
        return rows.reshape(-1, n, n, n).swapaxes(2, 3).reshape(rows.shape)

    return v12, v23, sw23


def _pentagon_residuals(vertices: dict, v_plain: np.ndarray, n: int) -> dict:
    """Edge maps between the seven vertices and the two-path comparison.

    An edge applies its plain map to the destination's class map and
    descends the result out of the source quotient."""
    v12, v23, sw23 = pentagon_edge_maps(v_plain, n)
    p1 = vertices["first_then_source"]
    p2 = vertices["applied_then_source"]
    p3 = vertices["applied_then_target"]
    p4 = vertices["outer_source_of_applied"]
    p7 = vertices["first_then_swapped_source"]
    p8 = vertices["applied_then_first_source"]
    p6 = vertices["first_then_target"]
    worst = 0.0

    def edge(a, b, plain):
        nonlocal worst
        mat, res = a.descend(plain(b.class_map))
        worst = max(worst, float(res))
        return mat

    e1 = edge(p1, p2, v12)
    e2 = edge(p2, p3, v23)
    e3 = edge(p1, p4, v23)
    e4 = edge(p4, p7, sw23)
    e5 = edge(p7, p8, v12)
    e6 = edge(p8, p6, sw23)
    e7 = edge(p6, p3, v12)
    top = e2 @ e1
    bottom = e7 @ e6 @ e5 @ e4 @ e3
    scale = max(1.0, mat_norm(top))
    return {
        "edges_descend": worst,
        "pentagon": mat_norm(top - bottom) / scale,
    }


def check_pmu_state(cand: PmuCandidate) -> Certificate:
    """Certify the candidate on the state-flavor squares.

    The pentagon residual is held to the looser Tolerance.pentagon because
    it accumulates seven descents.
    """
    res: dict = {}
    res["actions_commute"] = max(
        commute_residual(cand.sigma_hat, cand.rho),
        commute_residual(cand.sigma_hat, cand.sigma),
        commute_residual(cand.rho, cand.sigma),
    )
    res["dimensions_match"] = float(
        abs(cand.source_space.dim - cand.target_space.dim)
    )
    res["descends_to_quotients"] = cand.v_residual
    res["unitary"] = (
        unitary_residual(cand.v_matrix)
        if cand.source_space.dim == cand.target_space.dim
        else 1.0
    )
    res.update(_exchange_residuals(cand))
    vertices, lift_worst = _pentagon_vertices(cand)
    res["vertex_actions_descend"] = lift_worst
    res.update(_pentagon_residuals(vertices, cand.v_plain, cand.space_dim))
    return Certificate(res, cand.tol)


def check_pmu_cstar(cand: PmuCandidate, beta_hat: Factorization,
                    alpha_flipped: Factorization, alpha: Factorization,
                    beta: Factorization) -> Certificate:
    """Certify the candidate on the operator-flavor squares.

    beta_hat and alpha_flipped build the source-type square, alpha and beta
    the target-type one; all four factorize the same space over one base.
    """
    tol = cand.tol
    res: dict = {}
    ds = rtp_cstar(beta_hat, alpha_flipped, tol=tol)
    dt = rtp_cstar(alpha, beta, tol=tol)
    xi_s, cert_s = phi_unitary(cand.source_space, ds)
    xi_t, cert_t = phi_unitary(cand.target_space, dt)
    res["source_flavor_match"] = max(cert_s.residuals.values())
    res["target_flavor_match"] = max(cert_t.residuals.values())
    v_c = xi_t @ cand.v_matrix @ dagger(xi_s)
    direct, direct_res = induced_between(ds, dt, cand.v_plain)
    res["operator_transport_consistent"] = max(
        direct_res, mat_norm(v_c - direct)
    )
    res["unitary"] = unitary_residual(v_c) if ds.dim == dt.dim else 1.0
    relations = [
        ("swaps_left_insertions",
         insertion_span(ds, alpha_flipped, alpha, 1),
         insertion_span(dt, alpha, alpha, 0)),
        ("moves_hat_insertions_across",
         insertion_span(ds, beta_hat, beta, 0),
         insertion_span(dt, beta, beta_hat, 1)),
        ("turns_hat_pairs_into_left",
         insertion_span(ds, beta_hat, beta_hat, 0),
         insertion_span(dt, alpha, beta_hat, 0)),
        ("fixes_right_insertions",
         insertion_span(ds, alpha_flipped, beta, 1),
         insertion_span(dt, beta, beta, 1)),
    ]
    for name, lhs, rhs in relations:
        moved = span(v_c @ lhs.stack, dt.dim, beta_hat.base.space_dim, tol)
        res[name] = subspace_residual(moved, rhs) + abs(moved.dim - rhs.dim)
    vertices = _cstar_pentagon_vertices(
        ds, dt, beta_hat, alpha_flipped, alpha, beta)
    res.update(_pentagon_residuals(vertices, cand.v_plain, cand.space_dim))
    return Certificate(res, tol)


def _cstar_pentagon_vertices(ds, dt, beta_hat, alpha_flipped, alpha, beta):
    """The seven operator-flavor three-factor spaces, built from insertion
    factorizations of the two squares."""
    tol = ds.tol
    hat_hat_s = ket_factorization(ds, beta_hat, beta_hat, 0, False)
    hat_beta_s = ket_factorization(ds, beta_hat, beta, 0, False)
    alpha_alpha_s = ket_factorization(ds, alpha_flipped, alpha, 1, False)
    alpha_hat_t = ket_factorization(dt, alpha, beta_hat, 0, False)
    alpha_alpha_t = ket_factorization(dt, alpha, alpha, 0, False)
    alpha_alpha_t_flip = ket_factorization(dt, alpha, alpha, 0, True)
    beta_hat_t = ket_factorization(dt, beta, beta_hat, 1, False)
    return {
        "first_then_source": nest_left(
            ds, rtp_cstar(hat_hat_s, alpha_flipped, tol=tol)
        ),
        "applied_then_source": nest_left(
            dt, rtp_cstar(alpha_hat_t, alpha_flipped, tol=tol)
        ),
        "applied_then_target": nest_left(
            dt, rtp_cstar(alpha_alpha_t, beta, tol=tol)
        ),
        "outer_source_of_applied": nest_right(
            dt, rtp_cstar(beta_hat, alpha_alpha_t_flip, tol=tol)
        ),
        "first_then_swapped_source": nest_left(
            ds, rtp_cstar(hat_beta_s, alpha_flipped, tol=tol)
        ),
        "applied_then_first_source": nest_left(
            dt, rtp_cstar(beta_hat_t, alpha_flipped, tol=tol)
        ),
        "first_then_target": nest_left(
            ds, rtp_cstar(alpha_alpha_s, beta, tol=tol)
        ),
    }


def pmu_equivalence(cand: PmuCandidate, beta_hat: Factorization,
                    alpha_flipped: Factorization, alpha: Factorization,
                    beta: Factorization) -> Certificate:
    """Both flavor checks as the children "state" and "operator"; the
    parent's one residual is the agreement of their verdicts, which holds
    also when both flavors fail."""
    state = check_pmu_state(cand)
    operator = check_pmu_cstar(cand, beta_hat, alpha_flipped, alpha, beta)
    return Certificate(
        {"verdicts_agree": 0.0 if state.ok == operator.ok else 1.0},
        cand.tol, {"state": state, "operator": operator},
    )


def groupoid_pmu(gpd: FiniteGroupoid, tol: Tolerance = DEFAULT_TOL) -> dict:
    """Canonical candidate of a finite groupoid: composition as operator,
    range actions on both target legs, source action on the extra leg."""
    bundle = groupoid_bundle(gpd, tol=tol)
    triple: GnsTriple = bundle["triple"]
    base: CStarBase = bundle["base"]
    range_stack = bundle["rho"]
    source_stack = bundle["source_stack"]
    beta_hat, alpha_flipped = linked_factorizations(
        triple, base, source_stack, range_stack, tol
    )
    v_plain = groupoid_pentagon_unitary(gpd).astype(complex)
    cand = PmuCandidate(
        triple, source_stack, range_stack, range_stack, v_plain, tol
    )
    return {
        "groupoid": gpd,
        "candidate": cand,
        "beta_hat": beta_hat,
        "alpha_flipped": alpha_flipped,
        "alpha": bundle["alpha"],
        "beta": bundle["beta"],
    }


def swapped_candidate(pmu: dict) -> PmuCandidate:
    """Replace the operator by the plain leg swap; the pentagon separates
    the two."""
    cand = pmu["candidate"]
    n = cand.space_dim
    return PmuCandidate(
        cand.triple, cand.sigma_hat, cand.rho, cand.sigma,
        swap_matrix(n, n), cand.tol,
    )


def phase_perturbed_candidate(pmu: dict, angle: float = 1e-3) -> PmuCandidate:
    """Multiply one nonzero entry of the operator by a small phase.

    Unitarity and the exchange relations survive; only the pentagon
    notices."""
    cand = pmu["candidate"]
    v = cand.v_plain.copy()
    idx = np.argwhere(np.abs(v) > 0.5)
    i, j = idx[0]
    v[i, j] *= np.exp(1j * angle)
    return PmuCandidate(
        cand.triple, cand.sigma_hat, cand.rho, cand.sigma, v, cand.tol
    )
