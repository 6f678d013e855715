"""Concrete *-algebras of matrices.

A StarAlgebra is a unital *-subalgebra of M_n carrying an HS-orthonormal
basis.  Products are read in one place: the structure tensor
c[i, j] = coefficients(b_i b_j), built lazily in one batched pass together
with the star matrix.  Construction certifies closure from that pass, and
left multiplication and the one *-representation check (rep_report)
contract it.  A basis is *-closed under its star matrix, the precondition of
the restricted solve (linalg.intertwiner_rows) that gives commutants; the
center is read from the structure tensor alone.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionError, MembershipError
from .linalg import (
    DEFAULT_TOL,
    OperatorSubspace,
    Tolerance,
    dagger,
    intertwiner_rows,
    mat_norm,
    null_rows,
    span,
    stack_norms,
    subspace_equal,
    worst_norm,
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
        _, _, star_gap, product_gap = self._products
        for what, res in (
            ("identity not in algebra", self.residual(np.eye(self.space_dim))),
            ("not star-closed", star_gap),
            ("not closed under products", product_gap),
        ):
            if res > self.tol.check:
                raise MembershipError(f"{what}: residual {res:.3e}")

    @cached_property
    def _products(self):
        """One batched pass over the basis: the structure tensor, the star
        matrix, and how far adjoints and products leave the span."""
        stack, to_coeffs = self.subspace.stack, self.subspace.flat().conj().T
        k = self.dim
        c = np.empty((k, k, k), dtype=complex)
        gaps = [0.0]
        for i in range(k):
            # one basis row at a time keeps the peak at k n^2 entries
            prods = stack[i] @ stack
            c[i] = prods.reshape(k, -1) @ to_coeffs
            gaps.append(worst_norm(prods - self.element(c[i])))
        adjoints = dagger(stack)
        star = (adjoints.reshape(k, -1) @ to_coeffs).T
        # every caller shares the kept tables
        c.flags.writeable = star.flags.writeable = False
        star_gap = worst_norm(adjoints - self.element(star.T))
        return c, star, star_gap, max(gaps)

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def basis(self):
        return self.subspace.matrices()

    def residual(self, x: np.ndarray) -> float:
        return self.subspace.residual(x)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        return self.subspace.coefficients(x)

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        return self.subspace.reconstruct(coeffs)

    def structure(self) -> np.ndarray:
        """Structure tensor: c[i, j] = coefficients(b_i b_j)."""
        return self._products[0]

    def star_matrix(self) -> np.ndarray:
        """Coordinate matrix of the antilinear star map: coords(x*) = S conj(coords(x))."""
        return self._products[1]

    def identity_coefficients(self) -> np.ndarray:
        return self.coefficients(np.eye(self.space_dim))

    def commutant(self) -> "StarAlgebra":
        n, stack = self.space_dim, self.subspace.stack
        rows = intertwiner_rows(stack, stack, self.star_matrix(), self.tol)
        return StarAlgebra(n, OperatorSubspace(n, n, rows.reshape(-1, n, n)),
                           self.tol, certify=False)

    def center(self) -> "StarAlgebra":
        return self._center

    @cached_property
    def _center(self) -> "StarAlgebra":
        """The elements sum_i x_i b_i that commute with every b_j: the null
        space of the antisymmetrized structure tensor,
        sum_i x_i (c[i, j, l] - c[j, i, l]) = 0 for all j and l."""
        n, c = self.space_dim, self.structure()
        d = (c - c.transpose(1, 0, 2)).reshape(self.dim, -1)
        rows = null_rows(d.conj() @ d.T, self.tol) @ self.subspace.flat()
        return StarAlgebra(n, OperatorSubspace(n, n, rows.reshape(-1, n, n)),
                           self.tol, certify=False)

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
        stack = current.stack
        products = (stack[:, None] @ stack[None]).reshape(-1, *stack.shape[1:])
        grown = np.concatenate([stack, products])
        nxt = span(grown, space_dim, space_dim, tol)
        if nxt.dim == current.dim:
            return StarAlgebra(space_dim, nxt, tol)
        current = nxt


def rep_value(algebra: StarAlgebra, mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Value at x (each matrix of a stack x) of the linear map whose image
    stack is mats: basis element i goes to mats[i]."""
    return np.tensordot(algebra.coefficients(x), np.asarray(mats), axes=1)


def rep_report(algebra: StarAlgebra, mats, anti: bool = False) -> dict:
    """Residuals for mats (aligned with the basis) being a unital *-rep.

    anti = False checks a representation of the algebra itself; anti = True a
    representation of the opposite algebra read on underlying elements, so
    products reverse.  Images of products and adjoints are read from the
    structure tensor and the star matrix, pi(b_i b_j) = sum_l c[i, j, l]
    pi(b_l), one basis row i at a time, so products are held for k
    matrices at once, not k^2.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim != 3 or mats.shape[0] != algebra.dim \
            or mats.shape[1] != mats.shape[2]:
        raise DimensionError("one square matrix per basis element required")
    c, star = algebra.structure(), algebra.star_matrix()
    if anti:
        c = c.transpose(1, 0, 2)
    unit = rep_value(algebra, mats, np.eye(algebra.space_dim))
    star_gap = product_gap = 0.0
    for i, m in enumerate(mats):
        star_gap = max(star_gap, mat_norm(
            dagger(m) - np.tensordot(star[:, i], mats, axes=1)))
        prods = m @ mats
        prods -= np.tensordot(c[i], mats, axes=1)
        product_gap = max(product_gap, np.max(stack_norms(prods)))
    return {
        "unital": mat_norm(unit - np.eye(mats.shape[1])),
        "star": star_gap,
        "multiplicative": float(product_gap),
    }


def commute_residual(a_mats, b_mats) -> float:
    """Largest commutator norm between the two families, one member of the
    first at a time."""
    b = np.asarray(b_mats, dtype=complex)
    worst = 0.0
    for a in np.asarray(a_mats, dtype=complex):
        comm = a @ b
        comm -= b @ a
        worst = max(worst, float(np.max(stack_norms(comm), initial=0.0)))
    return worst
