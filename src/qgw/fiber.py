"""Fiber products of represented algebras over a base, and their morphisms.

The classical construction relativizes the commutation-theorem description of
a tensor product: it takes the commutant of the lifted leg commutants on the
state-flavor quotient.  The spatial construction never mentions the
commutants: it carves the same algebra out of the operator space of the
operator-flavor quotient by insertion-operator conditions alone.  Per leg, S
is the span of the insertions composed with the other leg's algebra, built
one ket at a time, and an operator belongs iff it keeps every insertion
inside S.  Both are solved in the eigenbasis of one seeded Hermitian element
the solutions commute with (linalg.eigen_match), the spatial one built from
the frame operators F_X = sum s_j X s_j* of both legs' S (s_j orthonormal),
each through the closed-form Gram of its conditions, so no condition row is
formed.  Morphisms are certified two independent ways and the package
refuses to return an answer when the two disagree.

The adjoint conditions of the C*-definitions (T* keeps S; V* carries the
target factorization back) follow from the forward ones, since a Hilbert
module over a finite-dimensional C*-algebra is self-dual.  Lemma: let E, a
space of maps into H, be closed under right multiplication by such a C,
with E*E in C and its ranges spanning H; then T E in E gives T* E in E.
Proof: for y in E, x -> y* T x is a module map E -> C, so it is x -> z* x
for some z in E, and (T* y - z)* vanishes on H.  With y in a second such
module F, V E in F gives V* F in E.  Criterion two meets the premises
(certified factorizations over one base and side); the spatial product does
when the other factorization's base action lies in the partner algebra,
and its StarAlgebra certification refuses a result that is not *-closed.
"""
from __future__ import annotations

import numpy as np

from .cfact import Factorization
from .errors import (
    DimensionError,
    InternalInconsistencyError,
    NotWellDefinedError,
    PreconditionError,
)
from .linalg import (
    DEFAULT_TOL,
    OperatorSubspace,
    Tolerance,
    dagger,
    eigen_match,
    from_pairs,
    intertwiner_rows,
    intertwiner_solve,
    null_rows,
    span,
    subspace_residual,
    worst_norm,
)
from .report import Certificate
from .rtensor import RelativeTensorSpace, insertion_span, insertions
from .staralg import StarAlgebra, rep_report, rep_value


def fiber_classical(space: RelativeTensorSpace, left_alg: StarAlgebra,
                    right_alg: StarAlgebra):
    """Commutant of the lifted leg commutants on the state-flavor quotient;
    returns (algebra, Certificate).

    Lifting is multiplicative on operators that descend, so the lifts of
    s (x) 1 and 1 (x) t generate the relative commutant.  With their
    adjoints they are *-closed whatever the lifts' residual: solved unchecked.
    """
    nh, nk = space.plain_dims
    if left_alg.space_dim != nh or right_alg.space_dim != nk:
        raise DimensionError("algebras must act on the two plain factors")
    left, worst_left = space.lift(
        [left_alg.commutant().subspace.stack, None], require=False)
    right, worst_right = space.lift(
        [None, right_alg.commutant().subspace.stack], require=False)
    m, q = len(left) + len(right), space.dim
    family = np.concatenate([left, right, left, right])
    del left, right
    np.conjugate(family[:m].swapaxes(1, 2), out=family[m:])
    swap = np.roll(np.eye(2 * m), m, axis=0)
    rows = intertwiner_solve(family, family, swap, space.tol)
    algebra = StarAlgebra(q, OperatorSubspace(q, q, rows.reshape(-1, q, q)),
                          space.tol, certify=False)
    return algebra, Certificate(
        {"lift_well_defined": max(worst_left, worst_right)}, space.tol)


def fiber_spatial(space: RelativeTensorSpace, left_alg: StarAlgebra,
                  right_alg: StarAlgebra) -> StarAlgebra:
    """Insertion-operator construction on the operator-flavor quotient.
    The forward keep conditions are solved in the eigenbasis of a seeded
    combination of both legs' frame operators, which every member commutes
    with, through their Gram in closed form."""
    if space.flavor != "cstar":
        raise PreconditionError("spatial construction needs the operator flavor")
    nh, nk = space.plain_dims
    if left_alg.space_dim != nh or right_alg.space_dim != nk:
        raise DimensionError("algebras must act on the two plain factors")
    q, tol, legs = space.dim, space.tol, []
    for leg, fact, partners in ((0, space.meta["left_fact"], right_alg),
                                (1, space.meta["right_fact"], left_alg)):
        kets = insertions(space, fact.subspace.stack, leg)
        legs.append((kets, insertion_span(kets, partners.subspace.stack,
                                          tol).stack))

    def frames(draw):
        frame = np.zeros((q, q), dtype=complex)
        for _, basis in legs:
            z = draw((basis.shape[2],) * 2)
            frame += np.sum(basis @ (z + dagger(z)) @ dagger(basis), axis=0)
        return frame, frame

    u, _, a, b, _ = eigen_match(frames, tol)
    # T[a_p, b_p] sends a ket k (in u's frame) to e_(a_p) (x) k[b_p], whose
    # part along s_j is A[p, j] = <s_j[a_p], k[b_p]>.  So the keep rows
    # (1 - P_S) T k have the Gram sum_k d(a_p, a_r) <k[b_p], k[b_r]> -
    # conj(A[p]) . A[r], d the Kronecker delta: a difference of O(1) terms
    gram = np.zeros((a.size, a.size), dtype=complex)
    inner = np.zeros((q, q), dtype=complex)
    for kets, basis in legs:
        picked = (dagger(u) @ basis)[:, a].conj()
        for ket in dagger(u) @ kets:
            along = np.einsum("jpn,pn->pj", picked, ket[b])
            gram -= along.conj() @ along.T
            inner += ket.conj() @ ket.T
    gram += (a[:, None] == a[None]) * inner[b[:, None], b[None]]
    stack = from_pairs(null_rows(gram, tol), u, u, a, b)
    return StarAlgebra(q, OperatorSubspace(q, q, stack), tol)


def conjugated_algebra(u: np.ndarray, algebra: StarAlgebra,
                       tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Image of an algebra under conjugation by a (co)isometry."""
    n = u.shape[0]
    mats = u @ algebra.subspace.stack @ dagger(u)
    return StarAlgebra(n, span(mats, n, n, tol), tol, certify=False)


def transported_match(phi: np.ndarray, classical: StarAlgebra,
                      spatial: StarAlgebra,
                      threshold: float) -> tuple[bool, float]:
    """Does conjugation by the flavor unitary carry the classical fiber
    product onto the spatial one?"""
    moved = conjugated_algebra(phi, classical)
    res = subspace_residual(moved.subspace, spatial.subspace)
    same_dim = moved.dim == spatial.dim
    return (same_dim and res <= threshold), res


def fiber_equivalence(state_space: RelativeTensorSpace,
                      cstar_space: RelativeTensorSpace,
                      left_alg: StarAlgebra, right_alg: StarAlgebra,
                      phi: np.ndarray) -> Certificate:
    """Both fiber products of the leg algebras; the residuals are their
    dimension defect and the transport of one onto the other under phi (the
    squares' flavor unitary), and the child "classical" is the classical
    product's certificate."""
    tol = state_space.tol
    classical, classical_cert = fiber_classical(state_space, left_alg,
                                                right_alg)
    spatial = fiber_spatial(cstar_space, left_alg, right_alg)
    _, transport = transported_match(phi, classical, spatial, tol.check)
    return Certificate(
        {"dimension_defect": float(abs(classical.dim - spatial.dim)),
         "transport": transport},
        tol, {"classical": classical_cert},
    )


def hom_report(images: np.ndarray, source: StarAlgebra,
               target: StarAlgebra) -> dict:
    """Residuals for the linear map with the given image stack, aligned
    with the source basis, being a unital *-homomorphism between the two
    algebras."""
    return {**rep_report(source, images),
            "lands_in_target": target.residual(images)}


def intertwiner_space(images: np.ndarray, source: StarAlgebra,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Stack of maps V with V a = pi(a) V for every a in the source, pi the
    linear map with the given image stack (aligned with the basis)."""
    rows = intertwiner_rows(images, source.subspace.stack,
                            source.star_matrix(), tol)
    return rows.reshape(-1, images.shape[1], source.space_dim)


def _kept(sub: OperatorSubspace, mats: np.ndarray, thr: float) -> np.ndarray:
    """Which members of the stack (k, l, m, n) have all l matrices in sub,
    each within thr times its own scale."""
    gap = np.linalg.norm(mats - sub.reconstruct(sub.coefficients(mats)),
                         axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(mats, axis=(-2, -1)))
    return np.all(gap <= thr * scale, axis=-1)


def is_morphism(images: np.ndarray, source_alg: StarAlgebra,
                source_fact: Factorization, target_alg: StarAlgebra,
                target_fact: Factorization) -> Certificate:
    """Does the homomorphism with the given image stack (aligned with the
    source basis) respect the factorizations?

    Criterion one transports the induced base action elementwise; criterion
    two asks the full intertwiner space to carry one factorization onto the
    other.  Both are computed, so the certificate is ok exactly when both
    hold; disagreement raises InternalInconsistencyError.  A base action
    outside the source algebra raises PreconditionError.
    """
    tol = source_alg.tol
    thr = tol.check
    hom = hom_report(images, source_alg, target_alg)
    bad = {k: v for k, v in hom.items() if v > thr}
    if bad:
        raise PreconditionError(f"not a homomorphism into the target: {bad}")
    if source_fact.base is not target_fact.base and not (
        source_fact.base.space_dim == target_fact.base.space_dim
        and source_fact.base.algebra.equal(target_fact.base.algebra)
    ):
        raise PreconditionError("factorizations live over different bases")
    if source_fact.flipped != target_fact.flipped:
        raise PreconditionError("factorizations pair with different sides")
    # the question presupposes that the base acts inside the source
    acting = source_fact.acting_algebra().subspace.stack
    moved = source_fact.rho(acting)
    res = {"base_action_inside_source": source_alg.residual(moved)}
    if res["base_action_inside_source"] > thr:
        raise PreconditionError(
            f"base action leaves the source algebra: {res}")
    # criterion one: pi carries the induced action to the induced action
    res["transports_base_action"] = worst_norm(
        rep_value(source_alg, images, moved) - target_fact.rho(acting)
    )
    verdict_one = res["transports_base_action"] <= thr
    # criterion two: intertwiners carrying the source factorization into
    # the target one (their adjoints carry it back) span the target one
    inter = intertwiner_space(images, source_alg, tol)
    carried = inter[:, None] @ source_fact.subspace.stack[None]
    good = _kept(target_fact.subspace, carried, thr)
    if good.any():
        # the whole stack is released before span decomposes the kept part
        carried = carried[good].reshape(-1, *carried.shape[2:])
        carried = span(carried, tol=tol)
        res["intertwiners_carry_factorization"] = subspace_residual(
            carried, target_fact.subspace
        ) + abs(carried.dim - target_fact.dim)
    else:
        res["intertwiners_carry_factorization"] = float(target_fact.dim)
    verdict_two = res["intertwiners_carry_factorization"] <= thr
    if verdict_one != verdict_two:
        raise InternalInconsistencyError(
            f"morphism criteria disagree: {res}"
        )
    return Certificate(res, tol)


def fiber_morphism(source_space: RelativeTensorSpace,
                   target_space: RelativeTensorSpace, legs):
    """The map between fiber products induced by leg maps, applied to
    source-quotient operators S one at a time.

    legs are zipped leg stacks, lifted into the target as connecting maps
    W_k (RelativeTensorSpace.lift with into; one leg may fan out into
    several).  Z W_k = W_k S for every k pins Z row by row: Z = (sum_k W_k
    S W_k*) H^-1, against one eigh of H = sum_k W_k W_k* cut at the square
    of the stack's singular-value cut.  The connectors are re-laid inside
    the lifted stack's memory side by side, in blocks of about q_to /
    q_from, each about q_to x q_to, so no product spans the whole stack.
    Returns (image, worst): image(S) is (Z, residual of its exchange
    relations), worst the connectors' descent residual;
    NotWellDefinedError when the stacked connectors lack full row rank, so
    they do not determine the image uniquely.
    """
    conn, worst = source_space.lift(legs, require=False, into=target_space)
    k, q_to, q_from = conn.shape
    step = -(-q_to // q_from)
    for i in range(0, k, step):  # [W_k]_k side by side, in place
        conn[i:i + step].flat = conn[i:i + step].transpose(1, 0, 2).copy()
    blocks = [conn[i:i + step].reshape(q_to, -1) for i in range(0, k, step)]
    lam, u = np.linalg.eigh(sum((c @ dagger(c) for c in blocks),
                                np.zeros((q_to, q_to), dtype=complex)))
    cut = source_space.tol.rank_cut(np.sqrt(np.max(lam, initial=0.0)),
                                    q_to, k * q_from) ** 2
    if np.sum(lam > cut) != q_to:
        raise NotWellDefinedError(
            "connecting maps do not determine the image uniquely"
        )
    h_inv = (u / lam) @ dagger(u)

    def moved(c, s):
        """The block's [W_k S]_k, in the layout of the block."""
        return (c.reshape(-1, q_from) @ s).reshape(q_to, -1)

    def image(s):
        # sum_k W_k S W_k* = (sum over blocks of c conj([W_k S]_k)^T)*
        acc = np.zeros((q_to, q_to), dtype=complex)
        for c in blocks:
            x = moved(c, s)
            acc += c @ np.conjugate(x, out=x).T
        z = dagger(acc) @ h_inv
        # the norm of the difference, block by block: a difference of
        # squared norms would resolve it only to about sqrt(eps)
        gap = scale = 0.0
        for c in blocks:
            x = moved(c, s)
            scale += np.vdot(x, x).real
            x -= z @ c
            gap += np.vdot(x, x).real
        return z, float(np.sqrt(gap) / max(1.0, np.sqrt(scale)))

    return image, worst
