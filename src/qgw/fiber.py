"""Fiber products of represented algebras over a base, and their morphisms.

The classical construction relativizes the commutation-theorem description of
a tensor product: descend everything that commutes with either factor, then
take the commutant on the quotient.  The spatial construction never mentions
the commutants: it carves the same algebra out of the operator space of the
operator-flavor quotient by insertion-operator conditions alone.  Morphisms
are certified two independent ways and the package refuses to return an
answer when the two disagree.
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
    intersect_null_spaces,
    intertwiner_rows,
    mat_norm,
    mul_operator,
    orthonormal_rows,
    rank,
    span,
    subspace_residual,
    vec,
)
from .report import Certificate
from .rtensor import RelativeTensorSpace, descend, ket_left, ket_right
from .staralg import StarAlgebra


def fiber_classical(space: RelativeTensorSpace, left_alg: StarAlgebra,
                    right_alg: StarAlgebra):
    """Commutant-of-descended-commutants construction on the state-flavor
    quotient; returns (algebra, Certificate)."""
    nh, nk = space.plain_dims
    if left_alg.space_dim != nh or right_alg.space_dim != nk:
        raise DimensionError("algebras must act on the two plain factors")
    left_comm = left_alg.commutant()
    right_comm = right_alg.commutant()
    lifted = []
    worst = 0.0
    for s in left_comm.basis():
        for t in right_comm.basis():
            m, res = space.lift([s, t])
            worst = max(worst, res)
            lifted.append(m)
    relative_commutant = span(lifted, space.dim, space.dim, space.tol)
    envelope = StarAlgebra(
        space.dim, relative_commutant, space.tol, certify=False
    )
    algebra = envelope.commutant()
    return algebra, Certificate({"lift_well_defined": worst}, space.tol)


def _complement_rows(flat_basis: np.ndarray, total: int,
                     tol: Tolerance) -> np.ndarray:
    """Orthonormal basis (rows) of the orthogonal complement of a row span."""
    if flat_basis.shape[0] == 0:
        return np.eye(total, dtype=complex)
    if flat_basis.shape[0] >= total:
        # the rows are orthonormal, so a full set leaves no complement;
        # eye - proj is then numerically zero and a rank cut relative to
        # its largest singular value would keep pure noise directions
        return np.zeros((0, total), dtype=complex)
    # projector onto the row span of an orthonormal flat basis; the
    # conjugate sits on the right because rows pair sesquilinearly
    proj = flat_basis.T @ np.conj(flat_basis)
    return orthonormal_rows(np.eye(total, dtype=complex) - proj, tol)


def _membership_blocks(kets, partners, out_dim, in_dim, tol: Tolerance):
    """Constraint blocks forcing T . ket to stay inside span{ket' . partner}.

    kets are (out_dim x in_dim) insertions, partners square matrices on the
    in_dim space.  Returns the forward blocks and the row space data needed
    for the adjoint conditions.
    """
    family = [k @ p for k in kets for p in partners]
    sub = span(family, out_dim, in_dim, tol)
    flat = sub.flat()
    d = out_dim * in_dim
    perp = np.eye(d, dtype=complex) - flat.T @ np.conj(flat)
    forward = [perp @ mul_operator(np.eye(out_dim), k) for k in kets]
    return forward, sub


def _adjoint_rows(kets, sub, out_dim, in_dim, tol: Tolerance) -> np.ndarray:
    """Rows in vec(T) expressing that T* applied to each ket lands in the
    given span; linear thanks to taking inner products against the
    complement."""
    comp = _complement_rows(sub.flat(), out_dim * in_dim, tol)
    rows = []
    for k in kets:
        for c_flat in comp:
            # orthonormal_rows spans the row space, which is the conjugate
            # of the range; undo that to land in the actual complement
            c = np.conj(c_flat).reshape(out_dim, in_dim)
            rows.append(vec((c @ dagger(k)).T))
    if not rows:
        return np.zeros((0, out_dim * out_dim), dtype=complex)
    return np.stack(rows)


def fiber_spatial(space: RelativeTensorSpace, left_alg: StarAlgebra,
                  right_alg: StarAlgebra):
    """Insertion-operator construction on the operator-flavor quotient;
    returns (algebra, Certificate).

    An operator belongs iff it and its adjoint send left insertions into
    left insertions composed with the right algebra, and symmetrically.
    """
    if space.flavor != "cstar":
        raise PreconditionError("spatial construction needs the operator flavor")
    left_fact: Factorization = space.meta["left_fact"]
    right_fact: Factorization = space.meta["right_fact"]
    nh, nk = space.plain_dims
    if left_alg.space_dim != nh or right_alg.space_dim != nk:
        raise DimensionError("algebras must act on the two plain factors")
    q = space.dim
    kets1 = [ket_left(space, xi) for xi in left_fact.basis()]
    kets2 = [ket_right(space, eta) for eta in right_fact.basis()]
    blocks = []
    fwd1, sub1 = _membership_blocks(kets1, right_alg.basis(), q, nk, space.tol)
    blocks.extend(fwd1)
    blocks.append(_adjoint_rows(kets1, sub1, q, nk, space.tol))
    fwd2, sub2 = _membership_blocks(kets2, left_alg.basis(), q, nh, space.tol)
    blocks.extend(fwd2)
    blocks.append(_adjoint_rows(kets2, sub2, q, nh, space.tol))
    rows = intersect_null_spaces(blocks, q * q, space.tol)
    stack = rows.reshape(-1, q, q)
    algebra = StarAlgebra(q, span(stack, q, q, space.tol), space.tol)
    return algebra, Certificate({}, space.tol)


def conjugated_algebra(u: np.ndarray, algebra: StarAlgebra,
                       tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Image of an algebra under conjugation by a (co)isometry."""
    mats = [u @ a @ dagger(u) for a in algebra.basis()]
    n = u.shape[0]
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


def hom_report(pi, source: StarAlgebra, target: StarAlgebra) -> dict:
    """Residuals for pi being a unital *-homomorphism between the two
    algebras (as a callable on matrices)."""
    out = {}
    eye_s = np.eye(source.space_dim)
    eye_t = np.eye(target.space_dim)
    out["unital"] = mat_norm(pi(eye_s) - eye_t)
    worst_m = worst_s = worst_t = 0.0
    for a in source.basis():
        pa = pi(a)
        worst_t = max(worst_t, target.residual(pa))
        worst_s = max(worst_s, mat_norm(dagger(pa) - pi(dagger(a))))
        for b in source.basis():
            worst_m = max(worst_m, mat_norm(pa @ pi(b) - pi(a @ b)))
    out["lands_in_target"] = worst_t
    out["star"] = worst_s
    out["multiplicative"] = worst_m
    return out


def intertwiner_space(pi, source: StarAlgebra, n_from: int, n_to: int,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Stack of maps V with V a = pi(a) V for every a in the source."""
    images = np.stack([pi(a) for a in source.basis()])
    rows = intertwiner_rows(images, source.subspace.stack, tol)
    return rows.reshape(-1, n_to, n_from)


def is_morphism(pi, source_alg: StarAlgebra, source_fact: Factorization,
                target_alg: StarAlgebra,
                target_fact: Factorization) -> Certificate:
    """Does the homomorphism respect the factorizations?

    Criterion one transports the induced base action elementwise; criterion
    two asks the full intertwiner space to carry one factorization onto the
    other.  Both are computed, so the certificate is ok exactly when both
    hold; disagreement raises InternalInconsistencyError.
    """
    tol = source_alg.tol
    thr = tol.check
    hom = hom_report(pi, source_alg, target_alg)
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
    res: dict = {}
    # criterion one: pi carries the induced action to the induced action
    worst_in = worst_map = 0.0
    for b in source_fact.acting_algebra().basis():
        x = source_fact.rho(b)
        worst_in = max(worst_in, source_alg.residual(x))
        worst_map = max(worst_map, mat_norm(pi(x) - target_fact.rho(b)))
    res["base_action_inside_source"] = worst_in
    res["transports_base_action"] = worst_map
    verdict_one = worst_in <= thr and worst_map <= thr
    # criterion two: intertwiners exchanging the factorizations span the
    # target factorization
    inter = intertwiner_space(
        pi, source_alg, source_alg.space_dim, target_alg.space_dim, tol
    )
    good = []
    for v in inter:
        keep = all(
            target_fact.subspace.residual(v @ xi) <= thr * max(1.0, mat_norm(v @ xi))
            for xi in source_fact.basis()
        ) and all(
            source_fact.subspace.residual(dagger(v) @ eta)
            <= thr * max(1.0, mat_norm(dagger(v) @ eta))
            for eta in target_fact.basis()
        )
        if keep:
            good.append(v)
    if good:
        carried = span(
            [v @ xi for v in good for xi in source_fact.basis()],
            target_fact.target_dim, target_fact.base.space_dim, tol,
        )
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


class FiberMorphism:
    """Map between fiber products induced by a pair of morphisms.

    apply solves Z W_k = W_k S over the connecting maps W_k; existence and
    uniqueness are certified per element.
    """

    def __init__(self, connectors: np.ndarray, source_dim: int,
                 target_dim: int, tol: Tolerance, wd_residual: float):
        self.connectors = connectors
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.tol = tol
        self.wd_residual = wd_residual
        # Z . hstack(W_k) = hstack(W_k S) pins Z row by row; uniqueness is
        # full row rank of the stacked connectors
        self._columns = np.concatenate(list(connectors), axis=1)
        self._columns_pinv = np.linalg.pinv(self._columns)
        self._unique = rank(self._columns, tol) == target_dim

    def apply(self, s: np.ndarray, require: bool = True):
        """Image of a source-quotient operator; returns (matrix, residual)."""
        s = np.asarray(s, dtype=complex)
        if s.shape != (self.source_dim, self.source_dim):
            raise DimensionError("operator must act on the source quotient")
        if not self._unique:
            raise NotWellDefinedError(
                "connecting maps do not determine the image uniquely"
            )
        moved = np.concatenate([w @ s for w in self.connectors], axis=1)
        z = moved @ self._columns_pinv
        residual = float(
            np.linalg.norm(z @ self._columns - moved)
        ) / max(1.0, float(np.linalg.norm(moved)))
        if require and residual > self.tol.check:
            raise NotWellDefinedError(
                f"no operator satisfies the exchange relations: {residual:.3e}"
            )
        return z, residual


def fiber_morphism(source_space: RelativeTensorSpace,
                   target_space: RelativeTensorSpace,
                   left_intertwiners: np.ndarray,
                   right_intertwiners: np.ndarray,
                   require_descend: bool = True) -> FiberMorphism:
    """Connect two quotients by all products of leg intertwiners.

    left/right intertwiners are stacks of maps between leg groups of the two
    plain spaces (possibly rectangular, so one leg may fan out into several);
    each product descends between the quotients and the family defines the
    induced map on fiber products.
    """
    connectors = []
    worst = 0.0
    for x in left_intertwiners:
        for y in right_intertwiners:
            plain = np.kron(x, y)
            if plain.shape != (target_space.plain_dim, source_space.plain_dim):
                raise DimensionError(
                    "leg intertwiners do not connect the two plain spaces"
                )
            w, res = descend(source_space, target_space, plain)
            worst = max(worst, res)
            connectors.append(w)
    if require_descend and worst > source_space.tol.check:
        raise NotWellDefinedError(
            f"leg intertwiners do not descend: residual {worst:.3e}"
        )
    return FiberMorphism(
        np.stack(connectors), source_space.dim, target_space.dim,
        source_space.tol, worst,
    )
