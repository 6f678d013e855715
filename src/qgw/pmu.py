"""Pseudo-multiplicative unitaries between relative squares of one space.

A candidate is one space carrying three commuting base actions plus a plain
operator on the twofold tensor product.  The operator must descend to a
unitary from the source-type square to the target-type square, exchange the
leg actions the right way, and satisfy the pentagon identity.  The pentagon
is checked on seven differently bracketed three-factor spaces, all realized
over the same plain threefold tensor product, so every edge is a plain map,
applied to class maps leg by leg.  Both flavors read the relations and the
vertices from the tables EXCHANGES and VERTICES: the state flavor reads a
leg as a lifted action, the operator flavor as a span of insertions, and
the two must reach the same verdict.
"""
from __future__ import annotations

import functools

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
from .rtensor import insertion_span, nest_left, nest_right, phi_unitary, \
    rtp_cstar, rtp_state
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


# The four leg-exchange relations, keyed by their (state, operator) names:
# the operator carries the source-square leg to the target-square leg.  A
# leg (square, action, i) is the action (hat, rho or sigma) on plain leg i
# of the source- or target-type square.
EXCHANGES = {
    ("moves_right_range_action", "swaps_left_insertions"):
        (("source", "rho", 0), ("target", "rho", 1)),
    ("fixes_first_leg_range_action", "fixes_right_insertions"):
        (("source", "sigma", 0), ("target", "sigma", 0)),
    ("turns_second_range_into_source", "moves_hat_insertions_across"):
        (("source", "sigma", 1), ("target", "hat", 0)),
    ("fixes_second_leg_source_action", "turns_hat_pairs_into_left"):
        (("source", "hat", 1), ("target", "hat", 1)),
}

# The seven bracketed three-factor spaces of the pentagon: vertex ->
# (bracket, leg, type of the pair square).  The leg's quotient takes the
# first factor of a pair square of that type for a left bracket, the second
# for a right one, and the pair square is nested over the leg's square.
VERTICES = {
    "first_then_source": ("left", ("source", "hat", 1), "source"),
    "applied_then_source": ("left", ("target", "hat", 1), "source"),
    "applied_then_target": ("left", ("target", "rho", 1), "target"),
    "outer_source_of_applied": ("right", ("target", "rho", 1), "source"),
    "first_then_swapped_source": ("left", ("source", "sigma", 1), "source"),
    "applied_then_first_source": ("left", ("target", "hat", 0), "source"),
    "first_then_target": ("left", ("source", "rho", 0), "target"),
}


def state_legs(cand: PmuCandidate):
    """The state flavor: (squares, leg, pair).  leg(square, action, i) is
    the lift (stack, residual) of the action on that leg, built once;
    pair(kind, slot, leg) is the pair square of that type with the leg's
    lift as factor 0 or 1."""
    squares = {"source": cand.source_space, "target": cand.target_space}
    actions = {"hat": cand.sigma_hat, "rho": cand.rho, "sigma": cand.sigma}
    factors = {"source": (cand.sigma_hat, cand.rho),
               "target": (cand.rho, cand.sigma)}

    @functools.cache
    def leg(square, action, i):
        ops = [None, None]
        ops[i] = actions[action]
        return squares[square].lift(ops, require=False)

    def pair(kind, slot, lg):
        stacks = list(factors[kind])
        stacks[slot] = leg(*lg)[0]
        return rtp_state(cand.triple, *stacks, tol=cand.tol,
                         over_opposite=kind == "source")

    return squares, leg, pair


def operator_legs(beta_hat: Factorization, alpha_flipped: Factorization,
                  alpha: Factorization, beta: Factorization, tol: Tolerance):
    """The operator flavor: (squares, leg, pair).  leg(square, action, i)
    is the span of the insertions into leg 1 - i of the square's
    factorization there composed with the action's tail, built once;
    pair(kind, slot, leg) is the pair square of that type with the leg's
    factorization as factor 0, or flipped as factor 1."""
    factors = {"source": (beta_hat, alpha_flipped), "target": (alpha, beta)}
    squares = {kind: rtp_cstar(*facts, tol=tol)
               for kind, facts in factors.items()}
    tails = {"hat": beta_hat, "rho": alpha, "sigma": beta}

    @functools.cache
    def leg(square, action, i):
        return insertion_span(squares[square], factors[square][1 - i],
                              tails[action], 1 - i)

    def pair(kind, slot, lg):
        facts, space = list(factors[kind]), squares[lg[0]]
        facts[slot] = Factorization(space.meta["base"], space.dim, leg(*lg),
                                    flipped=slot == 1, tol=tol)
        return rtp_cstar(*facts, tol=tol)

    return squares, leg, pair


def pentagon_vertices(squares: dict, pair) -> dict:
    """The seven vertices of one flavor, all over the plain cube."""
    return {name: (nest_left if bracket == "left" else nest_right)(
                squares[leg[0]], pair(kind, int(bracket == "right"), leg))
            for name, (bracket, leg, kind) in VERTICES.items()}


def pentagon_edge_maps(v_plain: np.ndarray, n: int):
    """The pentagon's plain maps kron(v, 1), kron(1, v) and kron(1, swap),
    each as its factors on two groups of consecutive legs: legs 1-2 and 3,
    or 1 and 2-3."""
    eye = np.eye(n)
    return (v_plain, eye), (eye, v_plain), (eye, swap_matrix(n, n))


def _pentagon_residuals(vertices: dict, v_plain: np.ndarray, n: int) -> dict:
    """Edge maps between the seven vertices and the two-path comparison.

    An edge's plain map X is contracted into the destination's core in the
    source's frame (pulled) and descended, one block of core rows at a
    time: core_dst (W_dst* X W_src) core_src* / lam, with a gap that holds
    every column off W_src."""
    v12, v23, sw23 = pentagon_edge_maps(v_plain, n)
    worst = 0.0

    def path(*hops):
        """Composite of the edges from first_then_source along the hops
        (plain map, next vertex)."""
        nonlocal worst
        here, mats = vertices["first_then_source"], []
        for maps, name in hops:
            mat, res = here.descend(vertices[name].pulled(maps, here))
            worst, here = max(worst, float(res)), vertices[name]
            mats.insert(0, mat)
        return functools.reduce(np.matmul, mats)

    top = path((v12, "applied_then_source"), (v23, "applied_then_target"))
    bottom = path((v23, "outer_source_of_applied"),
                  (sw23, "first_then_swapped_source"),
                  (v12, "applied_then_first_source"),
                  (sw23, "first_then_target"), (v12, "applied_then_target"))
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
    squares, leg, pair = state_legs(cand)
    v = cand.v_matrix
    for (name, _), (src, tgt) in EXCHANGES.items():
        res[name] = worst_norm(v @ leg(*src)[0] - leg(*tgt)[0] @ v)
    res["leg_operators_descend"] = max(
        leg(*lg)[1] for legs in EXCHANGES.values() for lg in legs)
    res["vertex_actions_descend"] = max(
        leg(*lg)[1] for _, lg, _ in VERTICES.values())
    res.update(_pentagon_residuals(pentagon_vertices(squares, pair),
                                   cand.v_plain, cand.space_dim))
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
    squares, leg, pair = operator_legs(beta_hat, alpha_flipped, alpha, beta,
                                       tol)
    ds, dt = squares["source"], squares["target"]
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
    for (_, name), (src, tgt) in EXCHANGES.items():
        lhs, rhs = leg(*src), leg(*tgt)
        moved = span(v_c @ lhs.stack, dt.dim, lhs.domain_dim, tol)
        res[name] = subspace_residual(moved, rhs) + abs(moved.dim - rhs.dim)
    res.update(_pentagon_residuals(pentagon_vertices(squares, pair),
                                   cand.v_plain, cand.space_dim))
    return Certificate(res, tol)


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
