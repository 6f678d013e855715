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
from .staralg import StarAlgebra, commute_residual, rep_report


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
        # value(b_i*) = values . S[:, i]
        worst = float(np.max(np.abs(
            values @ algebra.star_matrix() - np.conj(values)
        )))
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
        """Matrix of mu(b_i* b_j) over the orthonormal algebra basis; b_i* is
        sum_l S[l, i] b_l, so the products come from the structure tensor."""
        g = np.einsum("li,ljm,m->ij", self.algebra.star_matrix(),
                      self.algebra.structure(), self.values)
        return 0.5 * (g + dagger(g))


class GnsTriple:
    """Cyclic representation of a faithful state: space, left action, vector.

    Also carries the modular data: the antiunitary conjugation j, the positive
    modular operator delta, and the right action rep_op of the opposite
    algebra, rep_op(b) = j rep(b)* j.  Both actions are kept as stacks over
    the algebra basis and are linear in b.
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
        # left multiplication by b_i has coordinate matrix c[i].T
        left_mult = algebra.structure().transpose(0, 2, 1)
        self.rep_stack = w @ left_mult @ self.w_inv
        self.rep_op_stack = self.j.sandwich(dagger(self.rep_stack))
        self.rep_stack.flags.writeable = False
        self.rep_op_stack.flags.writeable = False

    def certificates(self) -> dict:
        """Residuals of everything this construction promises."""
        zeta = self.cyclic_vector

        def state_defect(stack):
            """Largest |<zeta, x_i zeta> - mu(b_i)| over the stack."""
            return float(np.max(np.abs(
                stack @ zeta @ np.conj(zeta) - self.state.values
            )))

        rep = rep_report(self.algebra, self.rep_stack)
        out = {
            "rep_multiplicative": rep["multiplicative"],
            "rep_star": rep["star"],
            "vector_state": state_defect(self.rep_stack),
            "cyclic_defect": float(
                self.dim - rank(self.rep_stack @ zeta, self.tol)
            ),
        }
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
        out["op_commutes"] = commute_residual(
            self.rep_stack, self.rep_op_stack
        )
        out["op_antimultiplicative"] = rep_report(
            self.algebra, self.rep_op_stack, anti=True
        )["multiplicative"]
        out["op_vector_state"] = state_defect(self.rep_op_stack)
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
