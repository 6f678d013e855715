"""Bases: standardness, the vector-state equivalence, base conjugation."""
import numpy as np
import pytest

from qgw.cbase import (
    CStarBase,
    base_equivalence,
    cbase_from_state,
    modular_conjugation_of_base,
)
from qgw.errors import PreconditionError
from qgw.gns import State, gns
from qgw.linalg import mat_norm, span
from qgw.staralg import StarAlgebra, algebra_from_generators
from small_fixtures import full_matrix_algebra


def diag_algebra(n):
    return StarAlgebra(n, span([np.diag(np.eye(n)[i]) for i in range(n)]))


def is_standard(base):
    return max(base.standard_report().values()) <= base.tol.check


def gns_base(sizes=None, diag=(0.3, 0.7)):
    alg = full_matrix_algebra(2)
    st = State.from_density(alg, np.diag(np.asarray(diag, dtype=complex)))
    triple = gns(alg, st)
    return triple, cbase_from_state(triple)


def test_noncommuting_pair_rejected():
    full = full_matrix_algebra(2)
    with pytest.raises(PreconditionError):
        CStarBase(full, full)


def test_gns_base_is_standard():
    triple, base = gns_base()
    assert base.space_dim == 4
    assert is_standard(base)
    rep = base.standard_report()
    assert rep["cyclic_defect"] == 0.0
    assert rep["partner_cyclic_defect"] == 0.0
    assert rep["partner_is_commutant"] < 1e-8


def test_diagonal_base_with_generic_vector_is_standard():
    alg = diag_algebra(3)
    v = np.array([0.5, 0.6, 0.624]) / np.linalg.norm([0.5, 0.6, 0.624])
    base = CStarBase(alg, alg, v)
    assert is_standard(base)


def test_nonstandard_cases_detected():
    alg = diag_algebra(2)
    # vector supported on one coordinate is not cyclic
    base = CStarBase(alg, alg, np.array([1.0, 0.0]))
    assert not is_standard(base)
    assert base.standard_report()["cyclic_defect"] >= 1.0
    # partner smaller than the commutant
    base2 = CStarBase(alg, algebra_from_generators(2, []), np.array([0.6, 0.8]))
    assert not is_standard(base2)
    assert base2.standard_report()["partner_is_commutant"] > 0.5
    # no cyclic vector supplied
    base3 = CStarBase(alg, alg)
    assert not is_standard(base3)


def test_base_equivalence_on_gns_base():
    _, base = gns_base()
    u, eq = base_equivalence(base)
    assert eq.ok, eq.residuals
    assert u.shape == (4, 4)
    # the unitary carries the base data onto the rebuilt representation
    rebuilt = gns(base.algebra,
                  State.from_vector(base.algebra, base.cyclic_vector))
    assert np.linalg.norm(u @ base.cyclic_vector - rebuilt.cyclic_vector) < 1e-8


def test_base_equivalence_diagonal():
    alg = diag_algebra(3)
    v = np.array([0.2, 0.5, np.sqrt(1 - 0.04 - 0.25)])
    base = CStarBase(alg, alg, v)
    u, eq = base_equivalence(base)
    assert eq.ok, eq.residuals
    assert eq.residuals["maps_cyclic_vector"] < 1e-8
    assert eq.residuals["conjugates_algebra"] < 1e-8
    # the unitary carries the vector state onto the rebuilt representation
    zeta = u @ v
    for b in alg.basis():
        assert abs(np.vdot(zeta, u @ b @ v) - np.vdot(v, b @ v)) < 1e-12
    rebuilt = gns(alg, State.from_vector(alg, v))
    assert np.linalg.norm(zeta - rebuilt.cyclic_vector) < 1e-8


def test_base_conjugation_matches_gns_conjugation():
    triple, base = gns_base(diag=(0.25, 0.75))
    j, conj = modular_conjugation_of_base(base)
    assert all(v < 1e-8 for v in conj.residuals.values()), conj.residuals
    assert mat_norm(j.matrix - triple.j.matrix) < 1e-8


def test_base_conjugation_exchanges_algebras():
    _, base = gns_base(diag=(0.4, 0.6))
    _, conj = modular_conjugation_of_base(base)
    # image of the algebra under b -> J b* J spans the partner exactly
    assert conj.residuals["onto_partner"] < 1e-8
    assert conj.residuals["reverses_products"] < 1e-8


def test_base_conjugation_requires_cyclic_vector():
    alg = diag_algebra(2)
    base = CStarBase(alg, alg)
    with pytest.raises(PreconditionError):
        modular_conjugation_of_base(base)
    with pytest.raises(PreconditionError):
        base_equivalence(base)
