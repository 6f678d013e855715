"""Factorizations of a Hilbert space over a base.

A factorization is a space of maps from the base space into a target space,
closed under right multiplication by one of the base algebras, whose inner
products fill out that algebra and whose ranges fill the target.  Evaluation
at the base cyclic vector is then a linear bijection onto the target, which
yields both the reconstruction operators and the induced action of the other
base algebra on the target.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
    InternalInconsistencyError,
    InvalidFactorizationError,
    PreconditionError,
)
from .cbase import CStarBase
from .linalg import (
    DEFAULT_TOL,
    OperatorSubspace,
    Tolerance,
    canonical_rows,
    dagger,
    intertwiner_rows,
    rank,
    span,
    subspace_residual,
    worst_norm,
)
from .report import Certificate
from .staralg import StarAlgebra, commute_residual, rep_report


class Factorization:
    """HS-orthonormal basis of maps base-space -> target with the module,
    product and span properties over one of the two base algebras.

    flipped = False: products land in base.algebra, the partner acts on the
    target.  flipped = True swaps the roles.
    """

    def __init__(self, base: CStarBase, target_dim: int,
                 subspace: OperatorSubspace, flipped: bool = False,
                 tol: Tolerance = DEFAULT_TOL, certify: bool = True):
        if (subspace.codomain_dim, subspace.domain_dim) != (
            target_dim, base.space_dim
        ):
            raise DimensionError("factorization maps base space to target")
        self.base = base
        self.target_dim = int(target_dim)
        self.subspace = subspace
        self.flipped = bool(flipped)
        self.tol = tol
        self._eval = None
        self._eval_inv = None
        if certify:
            rep = self.axiom_report()
            bad = {k: v for k, v in rep.items() if v > tol.check}
            if bad:
                raise InvalidFactorizationError(f"axioms violated: {bad}")

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def basis(self):
        return self.subspace.matrices()

    def product_algebra(self) -> StarAlgebra:
        return self.base.partner if self.flipped else self.base.algebra

    def acting_algebra(self) -> StarAlgebra:
        return self.base.algebra if self.flipped else self.base.partner

    def axiom_report(self) -> dict:
        out = {}
        prod = self.product_algebra()
        xs = self.subspace.stack
        n = self.base.space_dim
        # inner products x_i* x_j land in and span the product algebra, and
        # the module products x_i b stay in the span: formed for blocks of
        # rows i that hold no more entries than xs (x_i is target x n)
        in_algebra = closed = 0.0
        prods = span([], n, n, self.tol)
        step = max(1, self.target_dim // n)
        for rows in (xs[i:i + step] for i in range(0, self.dim, step)):
            block = (dagger(rows)[:, None] @ xs[None]).reshape(-1, n, n)
            in_algebra = max(in_algebra, prod.residual(block))
            prods = span(np.concatenate([prods.stack, block]), n, n, self.tol)
            closed = max(closed, self.subspace.residual(
                rows[:, None] @ prod.subspace.stack[None]))
        out["products_in_algebra"] = in_algebra
        out["products_span_algebra"] = subspace_residual(
            prods, prod.subspace) if self.dim else float(prod.dim)
        out["module_closed"] = closed
        # ranges fill the target
        cols = xs.transpose(1, 0, 2).reshape(self.target_dim, -1)
        out["spans_target_defect"] = float(
            self.target_dim - rank(cols, self.tol)
        )
        out["dimension_defect"] = float(self.dim - self.target_dim)
        return out

    def eval_matrix(self) -> np.ndarray:
        """Columns are basis elements applied to the base cyclic vector."""
        if self._eval is None:
            if self.base.cyclic_vector is None:
                raise PreconditionError("base has no cyclic vector")
            self._eval = (self.subspace.stack @ self.base.cyclic_vector).T
        return self._eval

    def _eval_inverse(self) -> np.ndarray:
        if self._eval_inv is None:
            e = self.eval_matrix()
            if e.shape[0] != e.shape[1] or rank(e, self.tol) < e.shape[0]:
                raise PreconditionError(
                    "evaluation at the cyclic vector is not a bijection"
                )
            self._eval_inv = np.linalg.inv(e)
        return self._eval_inv

    def rho(self, x: np.ndarray) -> np.ndarray:
        """Action of an acting-algebra element on the target space; of each
        element for a stack."""
        inverse = self._eval_inverse()
        moved = np.asarray(x, dtype=complex) @ self.base.cyclic_vector
        cols = np.einsum("fdn,...n->...df", self.subspace.stack, moved)
        return cols @ inverse

    def rho_stack(self) -> np.ndarray:
        return self.rho(self.acting_algebra().subspace.stack)

    def rho_report(self) -> dict:
        """Residuals for the induced action being a unital *-homomorphism
        satisfying the defining exchange identity rho(a) f = f a."""
        acting = self.acting_algebra()
        rhos, fs = self.rho_stack(), self.subspace.stack
        rep = rep_report(acting, rhos)
        return {
            "unital": rep["unital"],
            "multiplicative": rep["multiplicative"],
            "star": rep["star"],
            "exchange_identity": max(
                (worst_norm(r @ fs - fs @ a) for r, a in
                 zip(rhos, acting.subspace.stack)), default=0.0),
        }

    def r_operator(self, h: np.ndarray) -> np.ndarray:
        """The unique element sending the cyclic vector to h."""
        h = np.asarray(h, dtype=complex).reshape(-1)
        if h.shape != (self.target_dim,):
            raise DimensionError("vector must live in the target space")
        coeffs = self._eval_inverse() @ h
        return self.subspace.reconstruct(coeffs)


def factorization_from_rep(base: CStarBase, rho, target_dim: int,
                           flipped: bool = False,
                           tol: Tolerance = DEFAULT_TOL) -> Factorization:
    """Intertwiner space of a representation of the acting algebra.

    rho maps an acting-algebra element to its matrix on the target; the
    resulting space is all T with T b = rho(b) T, certified as a
    factorization.  Its basis is canonical_rows of the solution, so it
    depends on the space alone and not on the solver's choice inside it.
    """
    acting = base.algebra if flipped else base.partner
    n = base.space_dim
    images = np.stack([rho(b) for b in acting.basis()])
    rows = intertwiner_rows(images, acting.subspace.stack,
                            acting.star_matrix(), tol)
    stack = canonical_rows(rows, tol).reshape(-1, target_dim, n)
    return Factorization(base, target_dim,
                         OperatorSubspace(target_dim, n, stack),
                         flipped=flipped, tol=tol)


def compatible(first: Factorization, second: Factorization) -> Certificate:
    """Do the two factorizations of the same target coexist?

    Two criteria, computed independently and cross-checked: each induced
    action preserves the other factorization, and the two induced actions
    commute.  The certificate is ok exactly when both hold; disagreement
    raises InternalInconsistencyError.
    """
    if first.target_dim != second.target_dim:
        raise DimensionError("factorizations of different targets")
    thr = first.tol.check
    r1, r2 = first.rho_stack(), second.rho_stack()
    res = {
        "first_action_preserves_second": second.subspace.residual(
            r1[:, None] @ second.subspace.stack[None]
        ),
        "second_action_preserves_first": first.subspace.residual(
            r2[:, None] @ first.subspace.stack[None]
        ),
        "actions_commute": commute_residual(r1, r2),
    }
    by_modules = (
        res["first_action_preserves_second"] <= thr
        and res["second_action_preserves_first"] <= thr
    )
    by_commutation = res["actions_commute"] <= thr
    if by_modules != by_commutation:
        raise InternalInconsistencyError(
            f"module and commutation criteria disagree: {res}"
        )
    return Certificate(res, first.tol)
