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
    dagger,
    intertwiner_rows,
    mat_norm,
    rank,
    span,
    subspace_residual,
)
from .report import Certificate
from .staralg import StarAlgebra, commute_residual


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

    def contains(self, x: np.ndarray, threshold: float | None = None) -> bool:
        thr = self.tol.check if threshold is None else threshold
        return self.subspace.contains(x, thr)

    def axiom_report(self) -> dict:
        out = {}
        prod = self.product_algebra()
        xs = self.basis()
        # inner products land in and span the product algebra
        prods = [dagger(x) @ y for x in xs for y in xs]
        worst = max((prod.residual(p) for p in prods), default=0.0)
        out["products_in_algebra"] = worst
        out["products_span_algebra"] = subspace_residual(
            span(prods, self.base.space_dim, self.base.space_dim, self.tol),
            prod.subspace,
        ) if prods else float(prod.dim)
        # right module over the product algebra
        worst = 0.0
        for x in xs:
            for b in prod.basis():
                worst = max(worst, self.subspace.residual(x @ b))
        out["module_closed"] = worst
        # ranges fill the target
        cols = np.concatenate([x for x in xs], axis=1) if xs else np.zeros(
            (self.target_dim, 0)
        )
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
            self._eval = np.stack(
                [x @ self.base.cyclic_vector for x in self.basis()], axis=1
            )
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
        """Action of an acting-algebra element on the target space."""
        cols = np.stack(
            [f @ x @ self.base.cyclic_vector for f in self.basis()], axis=1
        )
        return cols @ self._eval_inverse()

    def rho_stack(self) -> np.ndarray:
        return np.stack([self.rho(b) for b in self.acting_algebra().basis()])

    def rho_report(self) -> dict:
        """Residuals for the induced action being a unital *-homomorphism
        satisfying the defining exchange identity."""
        acting = self.acting_algebra()
        out = {}
        out["unital"] = mat_norm(
            self.rho(np.eye(self.base.space_dim)) - np.eye(self.target_dim)
        )
        worst_m = worst_s = worst_x = 0.0
        for a in acting.basis():
            ra = self.rho(a)
            worst_s = max(worst_s, mat_norm(dagger(ra) - self.rho(dagger(a))))
            for b in acting.basis():
                worst_m = max(
                    worst_m, mat_norm(ra @ self.rho(b) - self.rho(a @ b))
                )
            for f in self.basis():
                worst_x = max(worst_x, mat_norm(ra @ f - f @ a))
        out["multiplicative"] = worst_m
        out["star"] = worst_s
        out["exchange_identity"] = worst_x
        return out

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
    factorization.
    """
    acting = base.algebra if flipped else base.partner
    n = base.space_dim
    images = np.stack([rho(b) for b in acting.basis()])
    rows = intertwiner_rows(images, acting.subspace.stack, tol)
    stack = rows.reshape(-1, target_dim, n)
    sub = span(stack, target_dim, n, tol)
    return Factorization(base, target_dim, sub, flipped=flipped, tol=tol)


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
    res = {}
    worst = 0.0
    for x in first.acting_algebra().basis():
        rx = first.rho(x)
        for eta in second.basis():
            worst = max(worst, second.subspace.residual(rx @ eta))
    res["first_action_preserves_second"] = worst
    worst = 0.0
    for y in second.acting_algebra().basis():
        ry = second.rho(y)
        for xi in first.basis():
            worst = max(worst, first.subspace.residual(ry @ xi))
    res["second_action_preserves_first"] = worst
    res["actions_commute"] = commute_residual(
        list(first.rho_stack()), list(second.rho_stack())
    )
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
