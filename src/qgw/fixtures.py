"""Concrete inputs: finite groupoids and randomized matrix data.

Groupoids supply the exactly solvable cases: the arrow space carries the
regular action of the groupoid algebra, the unit space carries the commutative
base, and composition writes down the multiplicative unitary by hand.  The
random generators supply block matrix algebras with faithful states and linked
action/factorization pairs for the flavor-comparison checks.
"""
from __future__ import annotations

import numpy as np

from .cbase import CStarBase, cbase_from_state
from .cfact import factorization_from_rep
from .gns import GnsTriple, State, gns
from .linalg import (
    DEFAULT_TOL,
    OperatorSubspace,
    Tolerance,
    dagger,
    random_unitary,
    rng,
)
from .staralg import StarAlgebra


class FiniteGroupoid:
    """Arrows with source, range, partial composition, inverse."""

    def __init__(self, n_units: int, source, range_, compose_table, inverse,
                 unit_arrows):
        self.n_units = int(n_units)
        self.source = np.asarray(source, dtype=int)
        self.range = np.asarray(range_, dtype=int)
        self.compose_table = np.asarray(compose_table, dtype=int)
        self.inverse = np.asarray(inverse, dtype=int)
        self.unit_arrows = np.asarray(unit_arrows, dtype=int)
        self.n_arrows = len(self.source)

    @classmethod
    def pair(cls, n: int) -> "FiniteGroupoid":
        """Arrows (i, j) between n units; (i, j) after (j, k) is (i, k)."""
        idx = lambda i, j: i * n + j
        m = n * n
        source = [j for i in range(n) for j in range(n)]
        range_ = [i for i in range(n) for j in range(n)]
        table = -np.ones((m, m), dtype=int)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    table[idx(i, j), idx(j, k)] = idx(i, k)
        inverse = [idx(j, i) for i in range(n) for j in range(n)]
        units = [idx(u, u) for u in range(n)]
        return cls(n, source, range_, table, inverse, units)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupoid":
        """The cyclic group of order n as a one-unit groupoid."""
        source = [0] * n
        range_ = [0] * n
        table = np.array([[(g + h) % n for h in range(n)] for g in range(n)])
        inverse = [(-g) % n for g in range(n)]
        return cls(1, source, range_, table, inverse, [0])

    def compose(self, g: int, h: int) -> int:
        """Index of gh, or -1 when not composable."""
        if self.source[g] != self.range[h]:
            return -1
        return int(self.compose_table[g, h])

    def lambda_matrix(self, g: int) -> np.ndarray:
        """Left translation on the arrow space."""
        m = np.zeros((self.n_arrows, self.n_arrows))
        for h in range(self.n_arrows):
            gh = self.compose(g, h)
            if gh >= 0:
                m[gh, h] = 1.0
        return m

    def range_projection(self, u: int) -> np.ndarray:
        return np.diag((self.range == u).astype(float))

    def source_projection(self, u: int) -> np.ndarray:
        return np.diag((self.source == u).astype(float))


def groupoid_algebra(gpd: FiniteGroupoid,
                     tol: Tolerance = DEFAULT_TOL):
    """The translation algebra on the arrow space.

    Returns (algebra, norms): the stored orthonormal basis is the arrow-order
    stack of translations scaled by their norms, so basis index i is the
    arrow i throughout.
    """
    mats = [gpd.lambda_matrix(g) for g in range(gpd.n_arrows)]
    norms = np.array([np.linalg.norm(m) for m in mats])
    stack = np.stack([m / s for m, s in zip(mats, norms)])
    alg = StarAlgebra(
        gpd.n_arrows,
        OperatorSubspace(gpd.n_arrows, gpd.n_arrows, stack),
        tol,
    )
    return alg, norms


def unit_algebra(gpd: FiniteGroupoid, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    """Functions on the unit space."""
    n = gpd.n_units
    stack = np.stack([np.diag(np.eye(n)[u]) for u in range(n)])
    return StarAlgebra(n, OperatorSubspace(n, n, stack), tol)


def unit_triple(gpd: FiniteGroupoid,
                tol: Tolerance = DEFAULT_TOL) -> GnsTriple:
    """The uniform state on the unit algebra and its cyclic representation."""
    alg = unit_algebra(gpd, tol)
    w = np.full(gpd.n_units, 1.0 / gpd.n_units)
    return gns(alg, State(alg, w.astype(complex)), tol)


def groupoid_actions(gpd: FiniteGroupoid):
    """Unit-function actions on the arrow space: (range stack, source stack).

    Both are representations of the commutative unit algebra, aligned with
    its basis.
    """
    range_stack = np.stack(
        [gpd.range_projection(u) for u in range(gpd.n_units)]
    )
    source_stack = np.stack(
        [gpd.source_projection(u) for u in range(gpd.n_units)]
    )
    return range_stack, source_stack


def groupoid_pentagon_unitary(gpd: FiniteGroupoid) -> np.ndarray:
    """Plain matrix of (g, h) -> (g, gh) on the arrow-pair space."""
    n = gpd.n_arrows
    v = np.zeros((n * n, n * n))
    for g in range(n):
        for h in range(n):
            gh = gpd.compose(g, h)
            if gh >= 0:
                v[g * n + gh, g * n + h] = 1.0
    return v


def random_standard_base(block_sizes, seed: int,
                         tol: Tolerance = DEFAULT_TOL):
    """Block matrix algebra with a random faithful state; returns
    (triple, base)."""
    n = int(sum(block_sizes))
    mats = []
    off = 0
    for s in block_sizes:
        for i in range(s):
            for j in range(s):
                m = np.zeros((n, n), dtype=complex)
                m[off + i, off + j] = 1.0
                mats.append(m)
        off += s
    stack = np.stack(mats)
    alg = StarAlgebra(n, OperatorSubspace(n, n, stack), tol)
    gen = rng(seed)
    b = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    density = b @ dagger(b) + 0.1 * np.eye(n)
    density /= np.trace(density).real
    triple = gns(alg, State.from_density(alg, density), tol)
    return triple, cbase_from_state(triple)


def random_action_pair(triple: GnsTriple, mult_left: int, mult_right: int,
                       seed: int):
    """Random linked actions: an opposite-algebra action on a left space and
    a plain action on a right space, via transposes and Haar rotations."""
    alg = triple.algebra
    n = alg.space_dim
    gen = rng(seed)
    wl = random_unitary(n * mult_left, gen)
    wr = random_unitary(n * mult_right, gen)
    rho = np.stack(
        [wl @ np.kron(b.T, np.eye(mult_left)) @ dagger(wl) for b in alg.basis()]
    )
    sigma = np.stack(
        [wr @ np.kron(b, np.eye(mult_right)) @ dagger(wr) for b in alg.basis()]
    )
    return rho, sigma


def span_solver(stack):
    """Given a stack spanning a space of matrices, return a function taking a
    member to its coefficient vector."""
    stack = np.asarray(stack, dtype=complex)
    flat = stack.reshape(stack.shape[0], -1)
    pinv = np.linalg.pinv(flat)
    def solve(x):
        return np.asarray(x, dtype=complex).reshape(-1) @ pinv
    return solve


def linked_factorizations(triple: GnsTriple, base: CStarBase, rho_stack,
                          sigma_stack, tol: Tolerance = DEFAULT_TOL):
    """Factorizations inducing the given actions through the base built from
    the same cyclic representation (identity linking unitary)."""
    alg = triple.algebra
    rho_stack = np.asarray(rho_stack, dtype=complex)
    sigma_stack = np.asarray(sigma_stack, dtype=complex)
    solve_op = span_solver(triple.rep_op_stack)
    solve_rep = span_solver(triple.rep_stack)
    def alpha_action(x):
        return np.tensordot(solve_op(x), rho_stack, axes=1)
    def beta_action(x):
        return np.tensordot(solve_rep(x), sigma_stack, axes=1)
    alpha = factorization_from_rep(
        base, alpha_action, rho_stack.shape[1], flipped=False, tol=tol
    )
    beta = factorization_from_rep(
        base, beta_action, sigma_stack.shape[1], flipped=True, tol=tol
    )
    return alpha, beta


def linked_data(triple: GnsTriple, rho, sigma, tol: Tolerance = DEFAULT_TOL,
                base: CStarBase | None = None, **extra) -> dict:
    """Triple, its standard base (built unless given), the two actions and
    the factorizations linked to them through the base, plus extra."""
    base = base or cbase_from_state(triple)
    alpha, beta = linked_factorizations(triple, base, rho, sigma, tol)
    return {"triple": triple, "base": base, "rho": rho, "sigma": sigma,
            "alpha": alpha, "beta": beta, **extra}


def linked_bundle(block_sizes, mult_left, mult_right, seed,
                  tol: Tolerance = DEFAULT_TOL) -> dict:
    """Everything the flavor comparison needs, randomly generated."""
    triple, base = random_standard_base(block_sizes, seed, tol)
    rho, sigma = random_action_pair(triple, mult_left, mult_right, seed + 1)
    return linked_data(triple, rho, sigma, tol, base)


def groupoid_bundle(gpd: FiniteGroupoid,
                    tol: Tolerance = DEFAULT_TOL) -> dict:
    """Groupoid base data: unit algebra triple plus the arrow space carrying
    the range action on both sides."""
    triple = unit_triple(gpd, tol)
    range_stack, source_stack = groupoid_actions(gpd)
    rho = range_stack.astype(complex)
    return linked_data(triple, rho, rho, tol, groupoid=gpd,
                       source_stack=source_stack.astype(complex))
