"""Factorizations: axioms, induced actions, reconstruction, compatibility."""
import numpy as np
import pytest

from qgw import cfact
from qgw.cbase import CStarBase, cbase_from_state
from qgw.cfact import (
    Factorization,
    compatible,
    factorization_from_rep,
)
from qgw.errors import InvalidFactorizationError, PreconditionError
from qgw.fixtures import linked_bundle
from qgw.gns import State, gns
from qgw.linalg import dagger, mat_norm, random_unitary, rng, span, subspace_equal
from small_fixtures import full_matrix_algebra


def m2_base(diag=(0.3, 0.7)):
    alg = full_matrix_algebra(2)
    st = State.from_density(alg, np.diag(np.asarray(diag, dtype=complex)))
    triple = gns(alg, st)
    return triple, cbase_from_state(triple)


def identity_factorization(base, flipped=False):
    alg = base.partner if flipped else base.algebra
    return Factorization(base, base.space_dim, alg.subspace, flipped=flipped)


def amplified_factorization(base, copies=2, flipped=False):
    """Maps v -> e_k (x) (b v) into C^copies (x) base-space."""
    alg = base.partner if flipped else base.algebra
    n = base.space_dim
    mats = []
    for k in range(copies):
        e = np.zeros((copies, 1))
        e[k, 0] = 1.0
        for b in alg.basis():
            mats.append(np.kron(e, b))
    return Factorization(
        base, copies * n, span(mats, copies * n, n), flipped=flipped
    )


def test_identity_factorization_axioms_and_action():
    _, base = m2_base()
    fact = identity_factorization(base)
    rep = fact.axiom_report()
    assert all(v < 1e-8 for v in rep.values()), rep
    # the induced action of the partner is the partner itself
    for x in base.partner.basis():
        assert mat_norm(fact.rho(x) - x) < 1e-8
    assert all(v < 1e-8 for v in fact.rho_report().values())


def test_flipped_identity_factorization():
    _, base = m2_base()
    fact = identity_factorization(base, flipped=True)
    assert all(v < 1e-8 for v in fact.axiom_report().values())
    for x in base.algebra.basis():
        assert mat_norm(fact.rho(x) - x) < 1e-8


def test_amplified_factorization():
    _, base = m2_base()
    fact = amplified_factorization(base, copies=2)
    assert fact.dim == 2 * base.space_dim
    assert all(v < 1e-8 for v in fact.axiom_report().values())
    # partner acts on the base-space leg
    for x in base.partner.basis():
        assert mat_norm(fact.rho(x) - np.kron(np.eye(2), x)) < 1e-8
    assert all(v < 1e-8 for v in fact.rho_report().values())


def test_axiom_violations_rejected():
    _, base = m2_base()
    n = base.space_dim
    # half the amplified family misses most of the target
    mats = [np.kron(np.array([[1.0], [0.0]]), b) for b in base.algebra.basis()]
    with pytest.raises(InvalidFactorizationError):
        Factorization(base, 2 * n, span(mats, 2 * n, n))
    # mislabelled side: products land in the algebra, not the partner
    with pytest.raises(InvalidFactorizationError):
        Factorization(base, n, base.algebra.subspace, flipped=True)


def test_r_operator_reconstruction():
    _, base = m2_base()
    fact = amplified_factorization(base, copies=2)
    gen = rng(31)
    h = gen.standard_normal(fact.target_dim) + 1j * gen.standard_normal(
        fact.target_dim
    )
    r = fact.r_operator(h)
    assert np.linalg.norm(r @ base.cyclic_vector - h) < 1e-8
    assert fact.subspace.residual(r) <= fact.tol.check
    # uniqueness: reconstructing an element's own evaluation returns it
    xi = fact.basis()[3]
    back = fact.r_operator(xi @ base.cyclic_vector)
    assert mat_norm(back - xi) < 1e-8


def test_factorization_from_rep_round_trip():
    _, base = m2_base()
    fact = amplified_factorization(base, copies=2)
    rebuilt = factorization_from_rep(
        base, fact.rho, fact.target_dim, flipped=False
    )
    assert rebuilt.dim == fact.dim
    assert subspace_equal(rebuilt.subspace, fact.subspace, 1e-8)


def test_factorization_from_explicit_rep():
    _, base = m2_base()
    n = base.space_dim
    rho = lambda b: np.kron(np.eye(2), b)
    fact = factorization_from_rep(base, rho, 2 * n, flipped=False)
    assert fact.dim == 2 * n
    for x in base.partner.basis():
        assert mat_norm(fact.rho(x) - rho(x)) < 1e-8


def test_compatible_pair_on_same_space():
    _, base = m2_base()
    first = identity_factorization(base)
    second = identity_factorization(base, flipped=True)
    result = compatible(first, second)
    assert result.ok, result.residuals
    assert result.residuals["actions_commute"] < 1e-8


def test_compatible_pair_amplified():
    _, base = m2_base()
    first = amplified_factorization(base, copies=2)
    second = amplified_factorization(base, copies=2, flipped=True)
    result = compatible(first, second)
    assert result.ok, result.residuals


def test_incompatible_after_generic_rotation():
    _, base = m2_base()
    first = identity_factorization(base)
    second = identity_factorization(base, flipped=True)
    u = random_unitary(base.space_dim, rng(32))
    moved = Factorization(
        base,
        base.space_dim,
        span([u @ b for b in second.basis()], base.space_dim, base.space_dim),
        flipped=True,
    )
    result = compatible(first, moved)
    assert not result.ok
    assert result.residuals["actions_commute"] > 1e-3


def test_eval_needs_cyclic_vector():
    _, base = m2_base()
    stripped = CStarBase(base.algebra, base.partner, None)
    fact = Factorization(
        stripped, base.space_dim, base.algebra.subspace, certify=False
    )
    with pytest.raises(PreconditionError):
        fact.r_operator(np.zeros(base.space_dim))


def test_factorization_basis_depends_on_the_space_alone(monkeypatch):
    """The basis gen-random-base writes is read off the intertwiner space:
    rotating the solver's rows by a Haar unitary leaves it in place."""
    first = linked_bundle([3, 2, 1], 2, 2, 5)
    solve = cfact.intertwiner_rows

    def rotated(*args):
        rows = solve(*args)
        return random_unitary(len(rows), rng(len(rows))) @ rows

    monkeypatch.setattr(cfact, "intertwiner_rows", rotated)
    again = linked_bundle([3, 2, 1], 2, 2, 5)
    for name in ("alpha", "beta"):
        moved = again[name].subspace.stack - first[name].subspace.stack
        assert np.abs(moved).max() <= 1e-12
