"""Cyclic representations: coordinates, modular data, opposite action."""
import numpy as np
import pytest

from qgw.errors import FaithfulnessError, NumericError
from qgw.gns import GnsTriple, State, gns
from qgw.linalg import (
    QuotientRealization,
    Tolerance,
    dagger,
    mat_norm,
    rng,
)
from qgw.staralg import StarAlgebra, full_matrix_algebra
from qgw.linalg import span


def diag_algebra(n):
    return StarAlgebra(n, span([np.diag(np.eye(n)[i]) for i in range(n)]))


def density_state(alg, diag):
    return State.from_density(alg, np.diag(np.asarray(diag, dtype=complex)))


def test_state_value_linear_and_unital():
    alg = full_matrix_algebra(2)
    st = density_state(alg, [0.3, 0.7])
    assert st.value(np.eye(2)) == pytest.approx(1.0)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert st.value(x) == pytest.approx(np.trace(np.diag([0.3, 0.7]) @ x))


def test_state_rejects_bad_inputs():
    alg = full_matrix_algebra(2)
    with pytest.raises(NumericError):
        State.from_density(alg, np.diag([0.5, -0.5]))
    with pytest.raises(NumericError):
        State.from_density(alg, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(NumericError):
        density_state(alg, [0.4, 0.4])  # trace not 1


def test_gns_requires_faithfulness():
    alg = diag_algebra(2)
    with pytest.raises(FaithfulnessError):
        gns(alg, density_state(alg, [1.0, 0.0]))


def test_input_guards_follow_the_tolerance():
    """The Hermitian and PSD guards on densities, state Grams and quotient
    Grams reject round-off at the default eps and move with it."""
    loose = Tolerance(eps=1e-6)
    skew = np.array([[0.5, 1e-7], [0.0, 0.5]])  # Hermitian defect 1e-7
    negative = np.diag([1.0 + 1e-9, -1e-9])     # min eigenvalue -1e-9
    strict_alg = full_matrix_algebra(2)
    loose_alg = full_matrix_algebra(2, loose)
    values = np.array([np.trace(negative @ b) for b in strict_alg.basis()])
    for density in (skew, negative):
        with pytest.raises(NumericError):
            State.from_density(strict_alg, density)
        State.from_density(loose_alg, density)
    with pytest.raises(NumericError):
        gns(strict_alg, State(strict_alg, values))
    # positivity now passes, so the state fails as degenerate instead
    with pytest.raises(FaithfulnessError):
        gns(loose_alg, State.from_density(loose_alg, negative), loose)
    gram_skew = np.array([[1.0, 1e-5], [0.0, 1.0]])  # defect 1e-5
    gram_negative = np.diag([1.0, -1e-7])
    for gram in (gram_skew, gram_negative):
        with pytest.raises(NumericError):
            QuotientRealization(gram)
        assert QuotientRealization(gram, loose).dim >= 1


def test_gns_dimension_and_certificates_full_m2():
    alg = full_matrix_algebra(2)
    triple = gns(alg, density_state(alg, [0.3, 0.7]))
    assert triple.dim == 4
    certs = triple.certificates()
    for name, res in certs.items():
        assert res < 1e-8, (name, res)


def test_gns_vector_state_identity():
    alg = full_matrix_algebra(2)
    st = density_state(alg, [0.25, 0.75])
    triple = gns(alg, st)
    z = triple.cyclic_vector
    for b in alg.basis():
        assert abs(np.vdot(z, triple.rep(b) @ z) - st.value(b)) < 1e-10


def test_modular_operator_matches_density_conjugation():
    # for a full matrix algebra with density D, the modular operator acts as
    # x -> D x D^(-1) and the conjugation as x -> D^(1/2) x* D^(-1/2)
    alg = full_matrix_algebra(3)
    d = np.diag([0.2, 0.3, 0.5])
    st = State.from_density(alg, d)
    triple = gns(alg, st)
    gen = rng(21)
    x = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    lhs = triple.delta @ triple.coords(x)
    rhs = triple.coords(d @ x @ np.linalg.inv(d))
    assert np.linalg.norm(lhs - rhs) < 1e-9
    d_half = np.diag(np.sqrt(np.diag(d)))
    lhs_j = triple.j.apply(triple.coords(x))
    rhs_j = triple.coords(d_half @ dagger(x) @ np.linalg.inv(d_half))
    assert np.linalg.norm(lhs_j - rhs_j) < 1e-9


def test_tracial_state_has_trivial_modular_operator():
    alg = full_matrix_algebra(2)
    triple = gns(alg, density_state(alg, [0.5, 0.5]))
    assert mat_norm(triple.delta - np.eye(4)) < 1e-10
    # conjugation sends coords(x) to coords(x*)
    x = np.array([[1.0, 2.0j], [0.0, -1.0]])
    assert np.linalg.norm(
        triple.j.apply(triple.coords(x)) - triple.coords(dagger(x))
    ) < 1e-10


def test_commutative_algebra_modular_operator_trivial():
    alg = diag_algebra(3)
    triple = gns(alg, density_state(alg, [0.2, 0.3, 0.5]))
    assert triple.dim == 3
    assert mat_norm(triple.delta - np.eye(3)) < 1e-10
    certs = triple.certificates()
    assert all(v < 1e-9 for v in certs.values())


def test_opposite_action_commutes_and_reverses_products():
    alg = full_matrix_algebra(2)
    triple = gns(alg, density_state(alg, [0.4, 0.6]))
    gen = rng(22)
    a = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    b = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
    oa, ob = triple.rep_op(a), triple.rep_op(b)
    assert mat_norm(triple.rep_op(a @ b) - ob @ oa) < 1e-9
    assert mat_norm(triple.rep(a) @ ob - ob @ triple.rep(a)) < 1e-9


def test_opposite_action_is_gns_of_same_values():
    # the cyclic vector implements the same state through the right action
    alg = full_matrix_algebra(2)
    st = density_state(alg, [0.35, 0.65])
    triple = gns(alg, st)
    z = triple.cyclic_vector
    for b in alg.basis():
        assert abs(np.vdot(z, triple.rep_op(b) @ z) - st.value(b)) < 1e-9
    # cyclic for the right action too
    orbit = np.stack([triple.rep_op(b) @ z for b in alg.basis()])
    assert np.linalg.matrix_rank(orbit) == triple.dim


def test_state_from_vector():
    alg = full_matrix_algebra(2)
    xi = np.array([0.6, 0.8])
    st = State.from_vector(alg, xi)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert st.value(x) == pytest.approx(np.vdot(xi, x @ xi))
