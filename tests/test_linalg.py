"""Substrate checks: vec conventions, subspaces, quotient normalization."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgw.errors import NumericError
from qgw.linalg import (
    DEFAULT_TOL,
    OperatorSubspace,
    QuotientRealization,
    Tolerance,
    commutator_operator,
    dagger,
    exchange_gram,
    hs_inner,
    induced_between,
    intersect_null_spaces,
    intertwiner_rows,
    mat_norm,
    mul_operator,
    orthonormal_rows,
    polar_unitary,
    random_unitary,
    rank,
    rng,
    span,
    subspace_equal,
    subspace_residual,
    unitary_residual,
    vec,
)


def random_mat(gen, m, n):
    return gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))


def test_mul_operator_matches_direct_product():
    gen = rng(0)
    a = random_mat(gen, 3, 4)
    t = random_mat(gen, 4, 5)
    b = random_mat(gen, 5, 2)
    lhs = mul_operator(a, b) @ vec(t)
    rhs = vec(a @ t @ b)
    assert mat_norm((lhs - rhs).reshape(1, -1)) < 1e-12


def test_commutator_operator_matches_direct():
    gen = rng(1)
    x = random_mat(gen, 4, 4)
    t = random_mat(gen, 4, 4)
    lhs = (commutator_operator(x) @ vec(t)).reshape(4, 4)
    assert mat_norm(lhs - (x @ t - t @ x)) < 1e-12


def test_hs_inner_conjugate_linear_in_first_slot():
    gen = rng(2)
    a, b = random_mat(gen, 3, 3), random_mat(gen, 3, 3)
    assert abs(hs_inner(2j * a, b) - (-2j) * hs_inner(a, b)) < 1e-12
    assert abs(hs_inner(a, b) - np.trace(dagger(a) @ b)) < 1e-12


def test_rank_rule_tolerates_noise():
    gen = rng(3)
    u = random_unitary(5, gen)
    d = np.diag([1.0, 0.5, 1e-3, 0.0, 0.0])
    noisy = u @ d @ dagger(random_unitary(5, gen))
    noisy += 1e-13 * random_mat(gen, 5, 5)
    assert rank(noisy) == 3
    assert rank(np.zeros((4, 6))) == 0


def test_orthonormal_rows_spans_and_is_isometric():
    gen = rng(4)
    a = random_mat(gen, 3, 6)
    stacked = np.vstack([a, a[0:1] + a[1:2]])  # force rank deficiency
    q = orthonormal_rows(stacked)
    assert q.shape[0] == 3
    assert mat_norm(q @ dagger(q) - np.eye(3)) < 1e-12
    # original rows recovered by projection
    proj = (stacked @ dagger(q)) @ q
    assert mat_norm(proj - stacked) < 1e-10


def test_span_projection_and_residual():
    gen = rng(5)
    mats = [random_mat(gen, 3, 3) for _ in range(2)]
    sub = span(mats)
    assert sub.dim == 2
    inside = 1.5 * mats[0] - 0.3j * mats[1]
    assert sub.residual(inside) < 1e-10
    assert sub.contains(inside, 1e-8)
    outside = random_mat(gen, 3, 3)
    assert sub.residual(outside) > 1e-3


def test_subspace_equal_and_residual():
    gen = rng(6)
    mats = [random_mat(gen, 2, 2) for _ in range(2)]
    a = span(mats)
    b = span([mats[0] + mats[1], mats[0] - 1j * mats[1]])
    assert subspace_equal(a, b, 1e-8)
    c = span(mats + [random_mat(gen, 2, 2)])
    assert not subspace_equal(a, c, 1e-8)
    assert subspace_residual(a, c) > 1e-3


def test_intersect_null_spaces_matches_stacked_svd():
    gen = rng(7)
    blocks = [random_mat(gen, 2, 6), random_mat(gen, 3, 6)]
    base = intersect_null_spaces(blocks, 6)
    stacked = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stacked)
    # null vectors are conjugated rows of vh: stacked x = 0 iff x in V's cols
    expect = vh[np.sum(s > 1e-9 * s[0] * 6):].conj()
    assert base.shape == expect.shape == (1, 6)
    # same subspace
    assert subspace_equal(
        span([base.reshape(1, 6)]), span([expect.reshape(1, 6)]), 1e-8
    )
    for b in blocks:
        assert mat_norm(b @ base.T) < 1e-10


def test_exchange_gram_matches_kron_blocks():
    gen = rng(11)
    k, m, n = 4, 3, 5
    t = np.stack([random_mat(gen, m, m) for _ in range(k)])
    s = np.stack([random_mat(gen, n, n) for _ in range(k)])
    ref = np.zeros((m * n, m * n), dtype=complex)
    for ti, si in zip(t, s):
        b = mul_operator(ti, np.eye(n)) - mul_operator(np.eye(m), si)
        ref += dagger(b) @ b
    assert mat_norm(exchange_gram(t, s) - ref) < 1e-12 * mat_norm(ref)
    ref = sum(dagger(c) @ c for c in map(commutator_operator, t))
    assert mat_norm(exchange_gram(t, t) - ref) < 1e-12 * mat_norm(ref)


def test_intertwiner_rows_of_an_amplification():
    # generic s_i generate M_3, so T with (I_2 (x) s_i) T = T s_i are the
    # two-dimensional space of stacked multiples of the identity
    gen = rng(12)
    s = np.stack([random_mat(gen, 3, 3) for _ in range(2)])
    t = np.stack([np.kron(np.eye(2), si) for si in s])
    rows = intertwiner_rows(t, s)
    assert rows.shape == (2, 18)
    for r in rows.reshape(-1, 6, 3):
        assert max(mat_norm(ti @ r - r @ si) for ti, si in zip(t, s)) < 1e-10
    expect = span([np.vstack([np.eye(3), 0 * np.eye(3)]),
                   np.vstack([0 * np.eye(3), np.eye(3)])])
    assert subspace_equal(span(list(rows.reshape(-1, 6, 3))), expect, 1e-8)


def test_intersect_null_spaces_no_constraints_is_everything():
    assert intersect_null_spaces([], 4).shape == (4, 4)


def test_quotient_normalization_invariants():
    gen = rng(8)
    a = random_mat(gen, 6, 4)
    gram = dagger(a) @ a  # PSD, rank 4
    q = QuotientRealization(gram)
    assert q.dim == 4
    # the stored co-isometry satisfies q G q* = 1
    assert mat_norm(q.co_isometry @ gram @ dagger(q.co_isometry) - np.eye(4)) < 1e-9
    # class map preserves the semi-inner product
    w1, w2 = random_mat(gen, 4, 1), random_mat(gen, 4, 1)
    lhs = (dagger(q.to_quotient(w1)) @ q.to_quotient(w2))[0, 0]
    rhs = (dagger(w1) @ gram @ w2)[0, 0]
    assert abs(lhs - rhs) < 1e-9
    # section is a right inverse on classes
    assert mat_norm(q.class_map @ q.section - np.eye(4)) < 1e-10
    # support is the orthogonal projector onto range(gram)
    assert mat_norm(q.support @ q.support - q.support) < 1e-10
    assert mat_norm(q.support - dagger(q.support)) < 1e-10
    assert mat_norm(q.support @ gram - gram) < 1e-8


def test_quotient_degenerate_directions_are_killed():
    gram = np.diag([2.0, 0.0, 1.0, 0.0])
    q = QuotientRealization(gram)
    assert q.dim == 2
    null_vec = np.array([0.0, 3.0, 0.0, -1.0])
    assert np.linalg.norm(q.to_quotient(null_vec)) < 1e-12


def test_quotient_rejects_non_psd_and_non_hermitian():
    with pytest.raises(NumericError):
        QuotientRealization(np.diag([1.0, -1.0]))
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NumericError):
        QuotientRealization(bad)


def test_induced_operator_well_definedness():
    gram = np.diag([1.0, 1.0, 0.0])
    q = QuotientRealization(gram)
    # block-diagonal operator preserves ker(gram): descends
    ok = np.diag([2.0, 3.0, 7.0])
    mat, res = induced_between(q, q, ok)
    assert res < 1e-12
    # action on classes agrees with the plain action, basis-independently
    w = np.array([1.0, 2.0, 0.0])
    assert np.linalg.norm(mat @ q.to_quotient(w) - q.to_quotient(ok @ w)) < 1e-12
    assert sorted(np.linalg.eigvals(mat).real) == pytest.approx([2.0, 3.0])
    # operator mixing the null direction into the support: ill defined
    bad = np.zeros((3, 3))
    bad[0, 2] = 1.0
    _, res_bad = induced_between(q, q, bad)
    assert res_bad > 0.5


def test_induced_between_different_quotients():
    src = QuotientRealization(np.diag([1.0, 0.0]))
    dst = QuotientRealization(np.diag([4.0]))
    plain = np.array([[3.0, 0.0]])
    mat, res = induced_between(src, dst, plain)
    assert res < 1e-12
    assert mat.shape == (1, 1)
    # inner products transported: |class(e0)|^2 = 1 in src, image has gram 4
    # class_dst(3 e0) has squared norm 9*4; src class of e0 is a unit vector
    assert abs(abs(mat[0, 0]) ** 2 - 36.0) < 1e-9


def test_polar_unitary_and_residual():
    gen = rng(9)
    a = random_mat(gen, 4, 4)
    u = polar_unitary(a)
    assert unitary_residual(u) < 1e-12
    # u is the closest unitary: u* a is PSD
    h = dagger(u) @ a
    assert mat_norm(h - dagger(h)) < 1e-10
    assert np.linalg.eigvalsh(0.5 * (h + dagger(h))).min() > -1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(2, 5))
def test_random_unitary_is_unitary(seed, n):
    u = random_unitary(n, rng(seed))
    assert unitary_residual(u) < 1e-10


def test_tolerance_thresholds():
    t = Tolerance(eps=1e-9)
    assert t.check == pytest.approx(1e-8)
    assert t.pentagon == pytest.approx(1e-7)
    assert t.rank_cut(2.0, 3, 7) == pytest.approx(1.4e-8)
    assert DEFAULT_TOL.eps == 1e-9


def test_operator_subspace_coefficient_roundtrip():
    gen = rng(10)
    mats = [random_mat(gen, 2, 3) for _ in range(3)]
    sub = span(mats)
    x = 0.2 * mats[0] + 1j * mats[1] - mats[2]
    back = sub.reconstruct(sub.coefficients(x))
    assert mat_norm(back - x) < 1e-10
    empty = OperatorSubspace(2, 3, np.zeros((0, 2, 3)))
    assert empty.residual(x) == pytest.approx(mat_norm(x))
