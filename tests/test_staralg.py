"""Algebra layer: closure certification, commutants, centers."""
import tracemalloc

import numpy as np
import pytest

from qgw.cfact import factorization_from_rep
from qgw.errors import MembershipError
from qgw.fiber import intertwiner_space
from qgw.fixtures import random_standard_base
from qgw.gns import State, gns
from qgw.linalg import (
    dagger,
    intersect_null_spaces,
    mat_norm,
    random_unitary,
    rng,
    span,
    subspace_equal,
)
from qgw.staralg import (
    StarAlgebra,
    algebra_from_generators,
    commute_residual,
    rep_report,
    rep_value,
)
from kron_reference import commutator_operator, mul_operator
from small_fixtures import full_matrix_algebra


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
    assert com.equal(algebra_from_generators(3, []))


def test_commutant_of_scalars_is_everything():
    com = algebra_from_generators(3, []).commutant()
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
    assert commute_residual(z.basis(), z.basis()) < 1e-10
    # center elements commute with the whole algebra
    assert commute_residual(z.basis(), alg.basis()) < 1e-10


def commutant_route_center(alg):
    """The center as first read: the part of the algebra inside its
    commutant, through intersect_null_spaces."""
    n, flat = alg.space_dim, alg.subspace.flat()
    com = alg.commutant().subspace.flat()
    outside = flat - (flat @ com.conj().T) @ com
    rows = intersect_null_spaces([outside.T], alg.dim, alg.tol) @ flat
    return span(rows.reshape(-1, n, n), n, n)


@pytest.mark.parametrize("make, dim", [
    (lambda: diag_algebra(3), 3),
    (lambda: full_matrix_algebra(2), 1),
    (lambda: block_algebra([3, 2, 1]), 3),
    (lambda: random_standard_base([2, 2, 1], 7)[1].algebra, 3),
], ids=["C3", "M2", "M3+M2+M1", "random-2,2,1"])
def test_center_from_structure_tensor_matches_commutant_route(make, dim):
    alg = make()
    z = alg.center()
    assert z.dim == dim
    assert subspace_equal(z.subspace, commutant_route_center(alg), 1e-10)
    assert commute_residual(z.basis(), alg.basis()) < 1e-10


def kron_block_reference(blocks, rows: int, cols: int):
    """Span of the common null space of per-element constraint blocks."""
    null = intersect_null_spaces(blocks, rows * cols)
    return span(null.reshape(-1, rows, cols), rows, cols)


@pytest.mark.parametrize("sizes, seed", [([2, 1], 0), ([2, 2, 1], 1),
                                         ([3, 1], 2), ([3, 2, 1], 3)])
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
    inter = intertwiner_space(np.stack([rho(b) for b in acting.basis()]),
                              acting)
    assert subspace_equal(span(list(inter), big, n), ref, 1e-8)
    fact = factorization_from_rep(base, rho, big)
    assert subspace_equal(fact.subspace, ref, 1e-8)


def amplified(alg, copies):
    """alg (x) I_copies."""
    n = alg.space_dim * copies
    return StarAlgebra(n, span([np.kron(b, np.eye(copies))
                                for b in alg.basis()], n, n))


def haar_conjugated(alg, seed):
    n = alg.space_dim
    w = random_unitary(n, rng(seed))
    return StarAlgebra(n, span([w @ b @ dagger(w) for b in alg.basis()], n, n))


# algebras whose seeded Hermitian elements have degenerate spectra, so the
# restricted solve merges eigenvalues (all but the full matrix algebra)
DEGENERATE = {
    "scalars": lambda: algebra_from_generators(4, []),
    "full": lambda: full_matrix_algebra(3),
    "repeated_diagonal": lambda: algebra_from_generators(
        5, [np.diag([1.0, 1.0, 2.0, 2.0, 3.0])]),
    "blocks_321_twice": lambda: amplified(block_algebra([3, 2, 1]), 2),
}


@pytest.mark.parametrize("rotate", [False, True])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_restricted_commutant_matches_kron_blocks(name, rotate):
    alg = DEGENERATE[name]()
    if rotate:
        alg = haar_conjugated(alg, 40)
    n = alg.space_dim
    ref = kron_block_reference(
        [commutator_operator(x) for x in alg.basis()], n, n)
    com = alg.commutant()
    assert com.dim == ref.dim
    assert subspace_equal(com.subspace, ref, 1e-8)
    assert com.commutant().equal(alg)


@pytest.mark.parametrize("rotate", [False, True])
def test_restricted_intertwiners_of_amplified_blocks(rotate):
    """Maps V from M3 + M2 + M1 (x) I_2 to its Haar-rotated copy with
    V a = pi(a) V: every eigenvalue of the seeded elements is doubled."""
    source = amplified(block_algebra([3, 2, 1]), 2)
    n = source.space_dim
    w = random_unitary(n, rng(41)) if rotate else np.eye(n)

    def pi(b):
        return w @ b @ dagger(w)

    ref = kron_block_reference(
        [mul_operator(np.eye(n), b) - mul_operator(pi(b), np.eye(n))
         for b in source.basis()], n, n)
    # four copies of each block's 2 x 2 multiplicity space
    assert ref.dim == 3 * 4
    inter = intertwiner_space(pi(source.subspace.stack), source)
    assert subspace_equal(span(list(inter), n, n), ref, 1e-8)


def test_star_matrix_is_antilinear_involution():
    alg = block_algebra([2, 1])
    s = alg.star_matrix()
    gen = rng(12)
    c = gen.standard_normal(alg.dim) + 1j * gen.standard_normal(alg.dim)
    x = alg.element(c)
    assert np.linalg.norm(s @ np.conj(c) - alg.coefficients(dagger(x))) < 1e-10
    # involution: S conj(S conj(c)) = c
    assert np.linalg.norm(s @ np.conj(s @ np.conj(c)) - c) < 1e-10


def seeded_algebra(sizes, seed, copies):
    """Partner of a seeded random block base; for copies > 1 its image under
    a Haar-conjugated amplification."""
    _, base = random_standard_base(sizes, seed)
    acting = base.partner
    if copies == 1:
        return acting
    big = acting.space_dim * copies
    w = random_unitary(big, rng(seed + 20))
    image = [w @ np.kron(np.eye(copies), b) @ dagger(w) for b in acting.basis()]
    return StarAlgebra(big, span(image, big, big))


def rep_report_reference(alg, mats, anti):
    """rep_report computed one product at a time."""
    bs = alg.basis()

    def value(x):
        return rep_value(alg, mats, x)

    return {
        "unital": mat_norm(
            value(np.eye(alg.space_dim)) - np.eye(mats.shape[1])
        ),
        "star": max(mat_norm(dagger(m) - value(dagger(b)))
                    for m, b in zip(mats, bs)),
        "multiplicative": max(
            mat_norm(mats[i] @ mats[j] - value(b @ a if anti else a @ b))
            for i, a in enumerate(bs) for j, b in enumerate(bs)
        ),
    }


@pytest.mark.parametrize("sizes, seed, copies", [
    ([2, 1], 0, 1), ([2, 2, 1], 1, 1), ([3, 1], 2, 1), ([2, 1], 3, 2),
])
def test_structure_tensor_matches_per_product_reference(sizes, seed, copies):
    """The structure tensor, the GNS stacks and rep_report agree with
    their one-product-at-a-time definitions."""
    alg = seeded_algebra(sizes, seed, copies)
    bs, n = alg.basis(), alg.space_dim
    ref = np.array([[alg.coefficients(a @ b) for b in bs] for a in bs])
    assert np.abs(alg.structure() - ref).max() < 1e-12
    gen = rng(seed + 30)

    def left_mult(x):
        return np.stack([alg.coefficients(x @ b) for b in bs], axis=1)

    g = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    density = g @ dagger(g) + 0.1 * np.eye(n)
    triple = gns(alg, State.from_density(alg, density / np.trace(density)))
    stack = np.stack([triple.w @ left_mult(b) @ triple.w_inv for b in bs])
    assert np.abs(triple.rep_stack - stack).max() < 1e-12
    noise = 1e-3 * gen.standard_normal(stack.shape)
    for anti, mats in ((False, triple.rep_stack), (True, triple.rep_op_stack)):
        for family in (mats, mats + noise):
            got = rep_report(alg, family, anti)
            want = rep_report_reference(alg, family, anti)
            assert list(got) == list(want)
            for name in want:
                assert abs(got[name] - want[name]) < 1e-12, (anti, name)


def test_rep_and_commutator_checks_hold_one_row_of_products():
    """rep_report and commute_residual form one basis row of products at a
    time: their traced peak on a blocks 4,2,1 base stays under three
    stacks of k matrices, where the full k x k table would be k times
    that."""
    _, base = random_standard_base([4, 2, 1], seed=2)
    alg, partner = base.algebra, base.partner
    stack, k, n = alg.subspace.stack, alg.dim, alg.space_dim
    alg.structure(), alg.star_matrix()  # the kept tables, built untraced
    bound = 3 * k * n * n * 16
    for check in (lambda: rep_report(alg, stack),
                  lambda: commute_residual(stack, partner.subspace.stack)):
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
