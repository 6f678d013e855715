"""Concrete *-algebras of matrices.

A StarAlgebra is a unital *-subalgebra of M_n carrying an HS-orthonormal
basis.  Construction certifies closure under products and adjoints and the
presence of the identity; commutants and centers are null spaces of one
closed-form Gram on vectorized operators (linalg.exchange_gram).
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, MembershipError
from .linalg import (
    DEFAULT_TOL,
    OperatorSubspace,
    Tolerance,
    dagger,
    exchange_gram,
    intertwiner_rows,
    mat_norm,
    null_rows,
    span,
    subspace_equal,
)


class StarAlgebra:
    """Unital *-subalgebra of M_n with an orthonormal operator basis."""

    def __init__(self, space_dim: int, subspace: OperatorSubspace,
                 tol: Tolerance = DEFAULT_TOL, certify: bool = True):
        if (subspace.codomain_dim, subspace.domain_dim) != (space_dim, space_dim):
            raise DimensionError("algebra basis must consist of square matrices")
        self.space_dim = int(space_dim)
        self.subspace = subspace
        self.tol = tol
        if certify:
            self._certify()

    def _certify(self):
        thr = self.tol.check
        eye = np.eye(self.space_dim)
        res = self.subspace.residual(eye)
        if res > thr:
            raise MembershipError(f"identity not in algebra: residual {res:.3e}")
        for a in self.subspace.matrices():
            res = self.subspace.residual(dagger(a))
            if res > thr:
                raise MembershipError(f"not star-closed: residual {res:.3e}")
            for b in self.subspace.matrices():
                res = self.subspace.residual(a @ b)
                if res > thr:
                    raise MembershipError(
                        f"not closed under products: residual {res:.3e}"
                    )

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def basis(self):
        return self.subspace.matrices()

    def contains(self, x: np.ndarray, threshold: float | None = None) -> bool:
        thr = self.tol.check if threshold is None else threshold
        return self.subspace.contains(x, thr)

    def residual(self, x: np.ndarray) -> float:
        return self.subspace.residual(x)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        return self.subspace.coefficients(x)

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        return self.subspace.reconstruct(coeffs)

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Coordinates of x -> a x on the orthonormal algebra basis."""
        cols = [self.coefficients(a @ b) for b in self.basis()]
        return np.stack(cols, axis=1)

    def star_matrix(self) -> np.ndarray:
        """Coordinate matrix of the antilinear star map: coords(x*) = S conj(coords(x))."""
        cols = [self.coefficients(dagger(b)) for b in self.basis()]
        return np.stack(cols, axis=1)

    def identity_coefficients(self) -> np.ndarray:
        return self.coefficients(np.eye(self.space_dim))

    def is_commutative(self) -> bool:
        thr = self.tol.check
        bs = self.basis()
        return all(mat_norm(a @ b - b @ a) <= thr for a in bs for b in bs)

    def commutant(self) -> "StarAlgebra":
        n = self.space_dim
        stack = self.subspace.stack
        rows = intertwiner_rows(stack, stack, self.tol).reshape(-1, n, n)
        return StarAlgebra(n, span(rows, n, n, self.tol), self.tol, certify=False)

    def center(self) -> "StarAlgebra":
        n = self.space_dim
        stack, flat = self.subspace.stack, self.subspace.flat()
        # the commutant's Gram restricted to the algebra's coefficient space
        gram = flat.conj() @ exchange_gram(stack, stack) @ flat.T
        mats = (null_rows(gram, self.tol) @ flat).reshape(-1, n, n)
        return StarAlgebra(n, span(mats, n, n, self.tol), self.tol, certify=False)

    def equal(self, other: "StarAlgebra", threshold: float | None = None) -> bool:
        thr = self.tol.check if threshold is None else threshold
        return subspace_equal(self.subspace, other.subspace, thr)


def algebra_from_generators(space_dim: int, generators,
                            tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Smallest unital *-algebra containing the generators."""
    mats = [np.eye(space_dim, dtype=complex)]
    for g in generators:
        g = np.asarray(g, dtype=complex)
        if g.shape != (space_dim, space_dim):
            raise DimensionError("generator has wrong shape")
        mats.append(g)
        mats.append(dagger(g))
    current = span(mats, space_dim, space_dim, tol)
    while True:
        grown = list(current.matrices())
        for a in current.matrices():
            for b in current.matrices():
                grown.append(a @ b)
        nxt = span(grown, space_dim, space_dim, tol)
        if nxt.dim == current.dim:
            return StarAlgebra(space_dim, nxt, tol)
        current = nxt


def full_matrix_algebra(n: int, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    units = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            units[i * n + j, i, j] = 1.0
    return StarAlgebra(n, span(units, n, n, tol), tol, certify=False)


def scalars(n: int, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    return StarAlgebra(n, span([np.eye(n)], n, n, tol), tol, certify=False)


def rep_value(algebra: StarAlgebra, mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Value at x of the linear map sending basis element i to mats[i]."""
    return np.tensordot(algebra.coefficients(x), np.asarray(mats), axes=1)


def rep_report(algebra: StarAlgebra, mats, anti: bool = False) -> dict:
    """Residuals for mats (aligned with the basis) being a unital *-rep.

    anti = False checks a representation of the algebra itself; anti = True a
    representation of the opposite algebra read on underlying elements, so
    products reverse.
    """
    mats = np.asarray(mats, dtype=complex)
    k = algebra.dim
    if mats.shape[0] != k:
        raise DimensionError("one matrix per basis element required")
    d = mats.shape[1]
    out = {}
    out["unital"] = mat_norm(
        rep_value(algebra, mats, np.eye(algebra.space_dim)) - np.eye(d)
    )
    worst_s = worst_m = 0.0
    bs = algebra.basis()
    for i, a in enumerate(bs):
        worst_s = max(
            worst_s, mat_norm(dagger(mats[i]) - rep_value(algebra, mats, dagger(a)))
        )
        for j, b in enumerate(bs):
            prod = b @ a if anti else a @ b
            worst_m = max(
                worst_m,
                mat_norm(mats[i] @ mats[j] - rep_value(algebra, mats, prod)),
            )
    out["star"] = worst_s
    out["multiplicative"] = worst_m
    return out


def commute_residual(a_mats, b_mats) -> float:
    """Largest commutator norm between the two families."""
    worst = 0.0
    for x in a_mats:
        for y in b_mats:
            worst = max(worst, mat_norm(x @ y - y @ x))
    return worst
