"""States on matrix *-algebras and their cyclic representations.

A faithful state mu on an algebra N yields a Hilbert space carrying N itself,
with inner product mu(x* y).  Coordinates come from the Cholesky factor of the
basis Gram matrix, so the algebra's orthonormal basis doubles as the plain
coordinate system.  Alongside the left representation the construction exposes
the modular conjugation, the modular operator, and the commuting right action
of the opposite algebra.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, FaithfulnessError, NumericError
from .linalg import (
    DEFAULT_TOL,
    AntilinearMap,
    Tolerance,
    dagger,
    mat_norm,
    rank,
)
from .staralg import StarAlgebra


class State:
    """Linear functional on a StarAlgebra, unital and hermitian.

    Stored as its values on the algebra's orthonormal basis.  Positivity and
    faithfulness are properties of the induced Gram matrix and are certified
    when a representation is built.
    """

    def __init__(self, algebra: StarAlgebra, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != (algebra.dim,):
            raise DimensionError("one value per basis element required")
        self.algebra = algebra
        self.values = values
        tol = algebra.tol
        unit_defect = abs(self.value(np.eye(algebra.space_dim)) - 1.0)
        if unit_defect > tol.check:
            raise NumericError(f"state not unital: defect {unit_defect:.3e}")
        worst = 0.0
        for b in algebra.basis():
            worst = max(
                worst, abs(self.value(dagger(b)) - np.conj(self.value(b)))
            )
        if worst > tol.check:
            raise NumericError(f"state not hermitian: defect {worst:.3e}")

    @classmethod
    def from_density(cls, algebra: StarAlgebra, density: np.ndarray) -> "State":
        density = np.asarray(density, dtype=complex)
        n = algebra.space_dim
        if density.shape != (n, n):
            raise DimensionError("density must act on the algebra's space")
        tol = algebra.tol
        if mat_norm(density - dagger(density)) > tol.check * max(1.0, mat_norm(density)):
            raise NumericError("density not Hermitian")
        evs = np.linalg.eigvalsh(0.5 * (density + dagger(density)))
        if evs.min() < -tol.eps / 10 * max(1.0, evs.max()):
            raise NumericError(f"density not PSD: min eigenvalue {evs.min():.3e}")
        values = np.array([np.trace(density @ b) for b in algebra.basis()])
        return cls(algebra, values)

    @classmethod
    def from_vector(cls, algebra: StarAlgebra, xi: np.ndarray) -> "State":
        xi = np.asarray(xi, dtype=complex).reshape(-1)
        values = np.array([np.vdot(xi, b @ xi) for b in algebra.basis()])
        return cls(algebra, values)

    def value(self, x: np.ndarray) -> complex:
        return complex(self.values @ self.algebra.coefficients(x))

    def gram(self) -> np.ndarray:
        """Matrix of mu(b_i* b_j) over the orthonormal algebra basis."""
        bs = self.algebra.basis()
        k = len(bs)
        g = np.empty((k, k), dtype=complex)
        for i, bi in enumerate(bs):
            bi_dag = dagger(bi)
            for j, bj in enumerate(bs):
                g[i, j] = self.value(bi_dag @ bj)
        return 0.5 * (g + dagger(g))

    def opposite_values(self) -> np.ndarray:
        """Values of the same functional read on the opposite algebra.

        The opposite algebra shares the underlying vector space, so the value
        vector is unchanged; this exists to make call sites explicit.
        """
        return self.values.copy()


class GnsTriple:
    """Cyclic representation of a faithful state: space, left action, vector.

    Also carries the modular data: the antiunitary conjugation j, the positive
    modular operator delta, and the right action rep_op of the opposite
    algebra, rep_op(b) = j rep(b)* j.
    """

    def __init__(self, algebra: StarAlgebra, state: State, w: np.ndarray,
                 tol: Tolerance):
        self.algebra = algebra
        self.state = state
        self.dim = w.shape[0]
        self.w = w
        self.w_inv = np.linalg.inv(w)
        self.cyclic_vector = w @ algebra.identity_coefficients()
        self.tol = tol
        star = algebra.star_matrix()
        # closure of x zeta -> x* zeta in coordinates
        k_s = w @ star @ np.conj(self.w_inv)
        self.s_map = AntilinearMap(k_s)
        self.j = self.s_map.polar_part()
        self.delta = self.s_map.positive_part()

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Image of the algebra element x as a vector of the space."""
        return self.w @ self.algebra.coefficients(x)

    def rep(self, x: np.ndarray) -> np.ndarray:
        return self.w @ self.algebra.left_mult_matrix(x) @ self.w_inv

    def rep_op(self, x: np.ndarray) -> np.ndarray:
        """Right action: the opposite algebra element with underlying x."""
        return self.j.sandwich(dagger(self.rep(x)))

    def rep_stack(self) -> np.ndarray:
        return np.stack([self.rep(b) for b in self.algebra.basis()])

    def rep_op_stack(self) -> np.ndarray:
        return np.stack([self.rep_op(b) for b in self.algebra.basis()])

    def certificates(self) -> dict:
        """Residuals of everything this construction promises."""
        out = {}
        bs = self.algebra.basis()
        zeta = self.cyclic_vector
        worst_mult = worst_star = worst_vec = 0.0
        for a in bs:
            pa = self.rep(a)
            worst_star = max(worst_star, mat_norm(dagger(pa) - self.rep(dagger(a))))
            worst_vec = max(
                worst_vec,
                abs(np.vdot(zeta, pa @ zeta) - self.state.value(a)),
            )
            for b in bs:
                worst_mult = max(
                    worst_mult, mat_norm(pa @ self.rep(b) - self.rep(a @ b))
                )
        out["rep_multiplicative"] = worst_mult
        out["rep_star"] = worst_star
        out["vector_state"] = worst_vec
        orbit = np.stack([self.rep(b) @ zeta for b in bs])
        out["cyclic_defect"] = float(self.dim - rank(orbit, self.tol))
        out["conjugation_involution"] = self.j.involution_residual()
        out["conjugation_antiunitary"] = self.j.antiunitary_residual()
        out["closure_involution"] = self.s_map.involution_residual()
        # polar reconstruction s = j delta^(1/2)
        w, v = np.linalg.eigh(self.delta)
        root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
        out["polar_reconstruction"] = mat_norm(
            self.s_map.matrix - self.j.matrix @ np.conj(root)
        )
        out["modular_positive"] = float(max(0.0, -np.linalg.eigvalsh(
            0.5 * (self.delta + dagger(self.delta))).min()))
        delta_inv = np.linalg.inv(self.delta)
        out["modular_flip"] = mat_norm(self.j.sandwich(self.delta) - delta_inv)
        worst_comm = worst_anti = worst_opvec = 0.0
        for a in bs:
            pa = self.rep(a)
            for b in bs:
                ob = self.rep_op(b)
                worst_comm = max(worst_comm, mat_norm(pa @ ob - ob @ pa))
                worst_anti = max(
                    worst_anti,
                    mat_norm(self.rep_op(a @ b) - self.rep_op(b) @ self.rep_op(a)),
                )
            worst_opvec = max(
                worst_opvec,
                abs(np.vdot(zeta, self.rep_op(a) @ zeta) - self.state.value(a)),
            )
        out["op_commutes"] = worst_comm
        out["op_antimultiplicative"] = worst_anti
        out["op_vector_state"] = worst_opvec
        return out


def gns(algebra: StarAlgebra, state: State,
        tol: Tolerance = DEFAULT_TOL) -> GnsTriple:
    """Build the cyclic representation; the state must be faithful.

    Raises NumericError if the state is not positive, FaithfulnessError if it
    is positive but degenerate.
    """
    g = state.gram()
    evs = np.linalg.eigvalsh(g)
    lam_max = float(evs[-1]) if evs.size else 0.0
    if evs.size and float(evs[0]) < -tol.eps / 10 * max(1.0, lam_max):
        raise NumericError(f"state not positive: min Gram eigenvalue {evs[0]:.3e}")
    cut = tol.rank_cut(max(lam_max, 0.0), g.shape[0], g.shape[1])
    if evs.size and float(evs[0]) <= cut:
        raise FaithfulnessError(
            f"state not faithful: min Gram eigenvalue {evs[0]:.3e} "
            f"(cut {cut:.3e})"
        )
    lower = np.linalg.cholesky(g)
    return GnsTriple(algebra, state, dagger(lower), tol)
