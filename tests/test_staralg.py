"""Algebra layer: closure certification, commutants, centers."""
import numpy as np
import pytest

from qgw.cfact import factorization_from_rep
from qgw.errors import MembershipError
from qgw.fiber import intertwiner_space
from qgw.fixtures import random_standard_base
from qgw.linalg import (
    commutator_operator,
    dagger,
    intersect_null_spaces,
    mat_norm,
    mul_operator,
    random_unitary,
    rng,
    span,
    subspace_equal,
)
from qgw.staralg import (
    StarAlgebra,
    algebra_from_generators,
    commute_residual,
    full_matrix_algebra,
    scalars,
)


def diag_algebra(n):
    mats = [np.diag(np.eye(n)[i]) for i in range(n)]
    return StarAlgebra(n, span(mats), certify=True)


def block_algebra(sizes):
    """Block-diagonal sum of full matrix algebras, embedded in M_(sum sizes)."""
    n = sum(sizes)
    mats = []
    off = 0
    for s in sizes:
        for i in range(s):
            for j in range(s):
                m = np.zeros((n, n), dtype=complex)
                m[off + i, off + j] = 1.0
                mats.append(m)
        off += s
    return StarAlgebra(n, span(mats))


def test_certification_rejects_nonclosed_family():
    # span{1, nilpotent} is not product- or star-closed
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    with pytest.raises(MembershipError):
        StarAlgebra(2, span([np.eye(2), e01]))


def test_certification_requires_identity():
    p = np.diag([1.0, 0.0])
    with pytest.raises(MembershipError):
        StarAlgebra(2, span([p]))


def test_generators_close_pauli_to_full_m2():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    alg = algebra_from_generators(2, [sx, np.diag([1.0, -1.0])])
    assert alg.dim == 4
    assert alg.equal(full_matrix_algebra(2))


def test_commutant_of_full_algebra_is_scalars():
    com = full_matrix_algebra(3).commutant()
    assert com.dim == 1
    assert com.equal(scalars(3))


def test_commutant_of_scalars_is_everything():
    com = scalars(3).commutant()
    assert com.dim == 9


def test_commutant_of_diagonal_is_diagonal():
    com = diag_algebra(4).commutant()
    assert com.dim == 4
    assert com.equal(diag_algebra(4))


def test_block_algebra_commutant_dims():
    # commutant of M2 + M1 inside M3 is 1 + 1 dimensional
    alg = block_algebra([2, 1])
    com = alg.commutant()
    assert com.dim == 2
    # double commutant returns the algebra
    assert com.commutant().equal(alg)


def test_center_of_block_algebra():
    alg = block_algebra([2, 2, 1])
    z = alg.center()
    assert z.dim == 3
    assert z.is_commutative()
    # center elements commute with the whole algebra
    assert commute_residual(z.basis(), alg.basis()) < 1e-10


def kron_block_reference(blocks, rows: int, cols: int):
    """Span of the common null space of per-element constraint blocks."""
    null = intersect_null_spaces(blocks, rows * cols)
    return span(null.reshape(-1, rows, cols), rows, cols)


@pytest.mark.parametrize("sizes, seed", [([2, 1], 0), ([2, 2, 1], 1),
                                         ([3, 1], 2)])
def test_closed_form_solves_match_kron_blocks(sizes, seed):
    """commutant, intertwiner_space and factorization_from_rep span what the
    per-element kron blocks span, for a Haar-conjugated amplification."""
    _, base = random_standard_base(sizes, seed)
    acting = base.partner
    n, copies = acting.space_dim, 2
    big = n * copies
    w = random_unitary(big, rng(seed + 10))

    def rho(b):
        return w @ np.kron(np.eye(copies), b) @ dagger(w)

    image = StarAlgebra(big, span([rho(b) for b in acting.basis()], big, big))
    ref = kron_block_reference(
        [commutator_operator(x) for x in image.basis()], big, big
    )
    # the GNS space carries each block M_d with multiplicity d
    assert ref.dim == sum((copies * d) ** 2 for d in sizes)
    assert subspace_equal(image.commutant().subspace, ref, 1e-8)
    ref = kron_block_reference(
        [mul_operator(np.eye(big), b) - mul_operator(rho(b), np.eye(n))
         for b in acting.basis()], big, n,
    )
    assert ref.dim > 0
    inter = intertwiner_space(rho, acting, n, big)
    assert subspace_equal(span(list(inter), big, n), ref, 1e-8)
    fact = factorization_from_rep(base, rho, big)
    assert subspace_equal(fact.subspace, ref, 1e-8)


def test_left_mult_matrix_is_multiplicative():
    alg = block_algebra([2, 1])
    gen = rng(11)
    c1 = gen.standard_normal(alg.dim) + 1j * gen.standard_normal(alg.dim)
    c2 = gen.standard_normal(alg.dim) + 1j * gen.standard_normal(alg.dim)
    a, b = alg.element(c1), alg.element(c2)
    la, lb = alg.left_mult_matrix(a), alg.left_mult_matrix(b)
    assert mat_norm(alg.left_mult_matrix(a @ b) - la @ lb) < 1e-10
    # reproduces products in coordinates
    assert np.linalg.norm(la @ alg.coefficients(b) - alg.coefficients(a @ b)) < 1e-10


def test_star_matrix_is_antilinear_involution():
    alg = block_algebra([2, 1])
    s = alg.star_matrix()
    gen = rng(12)
    c = gen.standard_normal(alg.dim) + 1j * gen.standard_normal(alg.dim)
    x = alg.element(c)
    assert np.linalg.norm(s @ np.conj(c) - alg.coefficients(dagger(x))) < 1e-10
    # involution: S conj(S conj(c)) = c
    assert np.linalg.norm(s @ np.conj(s @ np.conj(c)) - c) < 1e-10


def test_is_commutative():
    assert diag_algebra(3).is_commutative()
    assert not full_matrix_algebra(2).is_commutative()
