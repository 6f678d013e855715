"""Fixtures only tests use: the full matrix algebra in its matrix-unit
basis, and hand-sized linked bundles over a scalar and a two-point base,
small enough that tests can state their relative products outright."""
import numpy as np

from qgw.fixtures import linked_data
from qgw.gns import State, gns
from qgw.linalg import DEFAULT_TOL, OperatorSubspace, Tolerance, span
from qgw.staralg import StarAlgebra


def full_matrix_algebra(n: int, tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    units = np.zeros((n * n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            units[i * n + j, i, j] = 1.0
    return StarAlgebra(n, span(units, n, n, tol), tol, certify=False)


def trivial_bundle(dim_left: int = 2, dim_right: int = 2,
                   tol: Tolerance = DEFAULT_TOL) -> dict:
    """Scalar base: the relative product degenerates to the plain tensor."""
    alg = full_matrix_algebra(1, tol)
    triple = gns(alg, State(alg, np.array([1.0])), tol)
    return linked_data(triple, np.stack([np.eye(dim_left)]),
                       np.stack([np.eye(dim_right)]), tol)


def two_point_bundle(tol: Tolerance = DEFAULT_TOL) -> dict:
    """Two-point commutative base acting diagonally on two qubit spaces."""
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    alg = StarAlgebra(2, OperatorSubspace(2, 2, stack), tol)
    triple = gns(alg, State(alg, np.array([0.5, 0.5])), tol)
    return linked_data(triple, stack, stack, tol)
