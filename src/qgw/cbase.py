"""Commuting algebra pairs with a joint cyclic vector.

A base is a Hilbert space carrying two commuting unital *-algebras.  The
standard ones admit a vector cyclic for both algebras at once, with the
partner algebra equal to the commutant of the first; those reproduce, up to a
canonical unitary, the cyclic representation of the vector state.  All
comparisons here return residuals; throwing is reserved for malformed input.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, PreconditionError
from .linalg import (
    DEFAULT_TOL,
    AntilinearMap,
    Tolerance,
    dagger,
    rank,
    span,
    subspace_residual,
    unitary_residual,
    worst_norm,
)
from .gns import GnsTriple, State, gns
from .report import Certificate
from .staralg import StarAlgebra, commute_residual, rep_report


class CStarBase:
    """Space with two commuting unital *-algebras and an optional joint
    cyclic vector."""

    def __init__(self, algebra: StarAlgebra, partner: StarAlgebra,
                 cyclic_vector: np.ndarray | None = None,
                 tol: Tolerance = DEFAULT_TOL):
        if algebra.space_dim != partner.space_dim:
            raise DimensionError("the two algebras must act on the same space")
        res = commute_residual(algebra.subspace.stack, partner.subspace.stack)
        if res > tol.check:
            raise PreconditionError(
                f"algebras do not commute: residual {res:.3e}"
            )
        self.space_dim = algebra.space_dim
        self.algebra = algebra
        self.partner = partner
        self.tol = tol
        if cyclic_vector is not None:
            cyclic_vector = np.asarray(cyclic_vector, dtype=complex).reshape(-1)
            if cyclic_vector.shape != (self.space_dim,):
                raise DimensionError("cyclic vector has wrong length")
        self.cyclic_vector = cyclic_vector

    def orbit_rank(self, alg: StarAlgebra, v: np.ndarray) -> int:
        return rank(alg.subspace.stack @ v, self.tol)

    def standard_report(self) -> dict:
        """Residuals and rank defects for the standardness properties."""
        out = {}
        if self.cyclic_vector is None:
            out["has_cyclic_vector"] = 1.0
            return out
        out["has_cyclic_vector"] = 0.0
        v = self.cyclic_vector
        out["cyclic_defect"] = float(
            self.space_dim - self.orbit_rank(self.algebra, v)
        )
        out["partner_cyclic_defect"] = float(
            self.space_dim - self.orbit_rank(self.partner, v)
        )
        com = self.algebra.commutant()
        out["partner_is_commutant"] = subspace_residual(
            com.subspace, self.partner.subspace
        ) + abs(com.dim - self.partner.dim)
        return out


def cbase_from_state(triple: GnsTriple) -> CStarBase:
    """The base carried by a cyclic representation: left algebra, right
    algebra, cyclic vector."""
    n = triple.dim
    left = StarAlgebra(
        n, span(triple.rep_stack, n, n, triple.tol), triple.tol, certify=False
    )
    right = StarAlgebra(
        n, span(triple.rep_op_stack, n, n, triple.tol), triple.tol,
        certify=False,
    )
    return CStarBase(left, right, triple.cyclic_vector, triple.tol)


def base_equivalence(base: CStarBase):
    """Rebuild the cyclic representation from the vector state and link it
    back to the base by a unitary; returns (unitary, Certificate).

    The unitary sends b zeta to rep(b) applied to the new cyclic vector; both
    families have the same Gram matrix, so the map is well defined and
    unitary whenever the base is standard.
    """
    if base.cyclic_vector is None:
        raise PreconditionError("base has no cyclic vector")
    zeta = base.cyclic_vector
    state = State.from_vector(base.algebra, zeta)
    triple = gns(base.algebra, state, base.tol)
    stack = base.algebra.subspace.stack
    cols_base = (stack @ zeta).T
    cols_rep = (triple.rep_stack @ triple.cyclic_vector).T
    u = cols_rep @ np.linalg.pinv(cols_base)
    res = {
        "unitary": unitary_residual(u),
        "maps_cyclic_vector": float(
            np.linalg.norm(u @ zeta - triple.cyclic_vector)
        ),
        "conjugates_algebra": worst_norm(
            u @ stack @ dagger(u) - triple.rep_stack
        ),
    }
    moved_partner = span(
        u @ base.partner.subspace.stack @ dagger(u),
        triple.dim, triple.dim, base.tol,
    )
    op_span = span(triple.rep_op_stack, triple.dim, triple.dim, base.tol)
    res["partner_matches_opposite"] = subspace_residual(moved_partner, op_span)
    return u, Certificate(res, base.tol)


def modular_conjugation_of_base(base: CStarBase):
    """Polar part of b zeta -> b* zeta; conjugation exchanges the algebra
    with its partner, reversing products.  Returns the antiunitary
    (AntilinearMap) and its Certificate."""
    if base.cyclic_vector is None:
        raise PreconditionError("base has no cyclic vector")
    zeta = base.cyclic_vector
    stack = base.algebra.subspace.stack
    cols, cols_star = (stack @ zeta).T, (dagger(stack) @ zeta).T
    k = cols_star @ np.conj(np.linalg.pinv(cols))
    j = AntilinearMap(k).polar_part()
    res = {
        "involution": j.involution_residual(),
        "antiunitary": j.antiunitary_residual(),
        "fixes_cyclic_vector": float(np.linalg.norm(j.apply(zeta) - zeta)),
    }
    # b -> j b* j is linear; it should be an antihomomorphism into the partner
    mapped = j.sandwich(dagger(stack))
    res["lands_in_partner"] = base.partner.residual(mapped)
    mapped_span = span(mapped, base.space_dim, base.space_dim, base.tol)
    res["onto_partner"] = subspace_residual(mapped_span, base.partner.subspace)
    res["reverses_products"] = rep_report(
        base.algebra, mapped, anti=True
    )["multiplicative"]
    return j, Certificate(res, base.tol)
