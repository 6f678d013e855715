"""Substrate checks: vec conventions, subspaces, quotient normalization."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgw.errors import DimensionError, NumericError, PreconditionError
from qgw.linalg import (
    DEFAULT_TOL,
    OperatorSubspace,
    QuotientRealization,
    Tolerance,
    canonical_rows,
    dagger,
    eigen_match,
    exchange_gram,
    extend_rows,
    induced_between,
    intersect_null_spaces,
    intertwiner_rows,
    mat_norm,
    orthonormal_rows,
    polar_unitary,
    random_unitary,
    rank,
    rng,
    span,
    subspace_equal,
    subspace_residual,
    unitary_residual,
)
from kron_reference import commutator_operator, identity_frame, \
    mul_operator, svd_rows
from small_fixtures import full_matrix_algebra


def random_mat(gen, m, n):
    return gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))


def test_mul_operator_matches_direct_product():
    gen = rng(0)
    a = random_mat(gen, 3, 4)
    t = random_mat(gen, 4, 5)
    b = random_mat(gen, 5, 2)
    lhs = mul_operator(a, b) @ t.reshape(-1)
    rhs = (a @ t @ b).reshape(-1)
    assert mat_norm((lhs - rhs).reshape(1, -1)) < 1e-12


def test_commutator_operator_matches_direct():
    gen = rng(1)
    x = random_mat(gen, 4, 4)
    t = random_mat(gen, 4, 4)
    lhs = (commutator_operator(x) @ t.reshape(-1)).reshape(4, 4)
    assert mat_norm(lhs - (x @ t - t @ x)) < 1e-12


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


def planted_frame():
    """Orthonormal rows of C^24: a basis of 4 rows, then the rest."""
    frame = random_unitary(24, rng(29))
    return frame[:4], frame[4:]


def planted_case(case):
    """(basis, rows) for extend_rows: new rows on the planted frame, each
    case planting what the rank rule must read."""
    gen = rng(30)
    basis, rest = planted_frame()
    if case == "planted-rank":  # rank 3 off the basis, some rows along it
        return basis, random_mat(gen, 6, 3) @ rest[:3] \
            + random_mat(gen, 6, 4) @ basis
    if case == "repeated":
        row = random_mat(gen, 1, 24)
        return basis, np.repeat(row, 6, axis=0)
    if case == "in-basis":
        return basis, random_mat(gen, 6, 4) @ basis
    if case == "sigma-at-2-and-half-the-cut":  # sigma 1, 2 cut, cut / 2
        cut = DEFAULT_TOL.rank_cut(1.0, 4 + 3, 24)
        phases = np.exp(2j * np.pi * gen.random(3))
        return basis, (phases * [1.0, 2.0 * cut, 0.5 * cut])[:, None] \
            * rest[:3]
    if case == "empty-basis":
        return basis[:0], random_mat(gen, 6, 3) @ rest[:3]
    return basis, np.zeros((0, 24), dtype=complex)  # empty rows


@pytest.mark.parametrize("case", ["planted-rank", "repeated", "in-basis",
                                  "sigma-at-2-and-half-the-cut",
                                  "empty-basis", "empty-rows"])
def test_extend_rows_keeps_what_the_one_shot_rule_keeps(case):
    basis, rows = planted_case(case)
    grown = extend_rows(basis, rows)
    stack = np.concatenate([basis, rows])
    reference = svd_rows(stack)
    assert len(grown) == len(reference) == rank(stack)
    assert np.allclose(grown[:len(basis)], basis, atol=0.0, rtol=0.0)
    assert mat_norm(grown.conj() @ grown.T - np.eye(len(grown))) < 1e-12
    if case.startswith("sigma"):
        # one SVD of the whole stack fixes the direction of sigma = 2 cut,
        # 5e-8 of the largest, only to about 1e-16 / 5e-8; the planted span
        # is exact, and the grown one must match it
        reference = np.concatenate([basis, planted_frame()[1][:2]])
    sub = [OperatorSubspace(1, 24, r.reshape(-1, 1, 24))
           for r in (grown, reference)]
    assert subspace_residual(*sub) < 1e-12


def test_a_closing_round_decomposes_nothing(monkeypatch):
    basis, rows = planted_case("in-basis")

    def refuse(*args, **kwargs):
        raise AssertionError("decomposed a closing round")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert extend_rows(basis, rows) is basis
    assert extend_rows(basis, np.zeros((0, 24))) is basis


def test_span_projection_and_residual():
    gen = rng(5)
    mats = [random_mat(gen, 3, 3) for _ in range(2)]
    sub = span(mats)
    assert sub.dim == 2
    inside = 1.5 * mats[0] - 0.3j * mats[1]
    assert sub.residual(inside) < 1e-10
    outside = random_mat(gen, 3, 3)
    assert sub.residual(outside) > 1e-3


def test_span_reads_one_stack():
    gen = rng(5)
    stack = np.stack([random_mat(gen, 3, 2) for _ in range(3)])
    a, b = span(stack), span(list(stack))
    assert (a.dim, a.codomain_dim, a.domain_dim) == (3, 3, 2)
    assert mat_norm(a.stack - b.stack) == 0.0
    assert span([], 3, 2).stack.shape == (0, 3, 2)
    with pytest.raises(DimensionError):
        span([])
    with pytest.raises(DimensionError):
        span([np.eye(2), np.eye(3)])
    with pytest.raises(DimensionError):
        span(np.eye(3))


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
    eye_m, eye_n = np.eye(m), np.eye(n)
    every = np.indices((m, n)).reshape(2, -1)
    assert mat_norm(exchange_gram(t, s, eye_m, eye_n, *every) - ref) \
        < 1e-12 * mat_norm(ref)
    # on a subset of the unknowns it is the reference's principal block
    a, b = np.array([0, 2, 2, 1]), np.array([4, 0, 3, 3])
    part = ref[np.ix_(a * n + b, a * n + b)]
    assert mat_norm(exchange_gram(t, s, eye_m, eye_n, a, b) - part) \
        < 1e-12 * mat_norm(ref)
    # members read in unitary frames are the rotated family's Gram
    u, v = random_unitary(m, gen), random_unitary(n, gen)
    rotated = exchange_gram(dagger(u) @ t @ u, dagger(v) @ s @ v, eye_m,
                            eye_n, a, b)
    assert mat_norm(exchange_gram(t, s, u, v, a, b) - rotated) \
        < 1e-12 * mat_norm(ref)
    ref = sum(dagger(c) @ c for c in map(commutator_operator, t))
    every = np.indices((m, m)).reshape(2, -1)
    assert mat_norm(exchange_gram(t, t, eye_m, eye_m, *every) - ref) \
        < 1e-12 * mat_norm(ref)


def test_intertwiner_rows_of_an_amplification():
    # the s_i span M_3, so T with (I_2 (x) s_i) T = T s_i are the
    # two-dimensional space of stacked multiples of the identity
    alg = full_matrix_algebra(3)
    w = random_unitary(3, rng(12))
    s = w @ alg.subspace.stack @ dagger(w)
    t = np.stack([np.kron(np.eye(2), si) for si in s])
    rows = intertwiner_rows(t, s, alg.star_matrix())
    assert rows.shape == (2, 18)
    for r in rows.reshape(-1, 6, 3):
        assert max(mat_norm(ti @ r - r @ si) for ti, si in zip(t, s)) < 1e-10
    expect = span([np.vstack([np.eye(3), 0 * np.eye(3)]),
                   np.vstack([0 * np.eye(3), np.eye(3)])])
    assert subspace_equal(span(list(rows.reshape(-1, 6, 3))), expect, 1e-8)


def test_intertwiner_rows_rejects_a_family_that_is_not_star_closed():
    alg = full_matrix_algebra(2)
    s, star = alg.subspace.stack, alg.star_matrix()
    # a generic pair with the identity as its star matrix
    gen = rng(13)
    pair = np.stack([random_mat(gen, 2, 2) for _ in range(2)])
    with pytest.raises(PreconditionError):
        intertwiner_rows(pair, pair, np.eye(2))
    # images of a linear map that is no *-map
    bent = s + 1e-3 * random_mat(gen, 2, 2)
    with pytest.raises(PreconditionError):
        intertwiner_rows(bent, s, star)
    assert intertwiner_rows(s, s, star).shape == (1, 4)


def unblocked_star_gap(t, s, star):
    """(gap of each member, scale) of the *-closure check of
    intertwiner_rows formed on the whole family at once: |conj(sum_j
    star[j, i] f_j) - f_i^T| per member i of t and of s, and the largest
    member norm."""
    gaps = [np.linalg.norm(np.conjugate(np.tensordot(star.T, f, axes=1))
                           - np.swapaxes(f, -1, -2), axis=(1, 2))
            for f in (t, s)]
    scale = max(np.max(np.linalg.norm(f, axis=(1, 2))) for f in (t, s))
    return np.maximum(*gaps), scale


@pytest.mark.parametrize("side", ["t", "s"])
def test_star_closure_defect_in_the_last_partial_block_is_caught(side):
    # a Hermitian basis of M_2 + C on C^3 (star the identity) checks in
    # blocks of 3 members, the last of 2; only member 4's adjoint is
    # perturbed, so the defect lies in that partial block alone, on one
    # side; thresholds just above and below the unblocked gap show that
    # the blocked check reads that gap to round-off
    w = random_unitary(3, rng(14))
    units = np.zeros((5, 3, 3), dtype=complex)
    units[0, 0, 0] = units[1, 1, 1] = units[4, 2, 2] = 1.0
    units[2, 0, 1] = units[2, 1, 0] = 1 / np.sqrt(2)
    units[3, 0, 1], units[3, 1, 0] = 1j / np.sqrt(2), -1j / np.sqrt(2)
    good = w @ units @ dagger(w)
    bent = good.copy()
    bent[4] += 1e-3 * random_mat(rng(15), 3, 3)
    t, s = (bent, good) if side == "t" else (good, bent)
    star = np.eye(5)
    gaps, scale = unblocked_star_gap(t, s, star)
    assert np.all(gaps[:4] < 1e-15) and gaps[4] > 1e-4
    check = gaps[4] / (10.0 * max(1.0, scale))
    with pytest.raises(PreconditionError):
        intertwiner_rows(t, s, star, Tolerance(eps=check * (1 - 1e-9)))
    intertwiner_rows(t, s, star, Tolerance(eps=check * (1 + 1e-9)))
    with pytest.raises(PreconditionError):
        intertwiner_rows(t, s, star)


def test_eigen_match_pairs_eigenvalues_within_the_cut():
    def pair(_draw):
        # a doubly degenerate 1 split by round-off, and a 2 only h_s has
        return (np.diag([1.0, 1.0 + 1e-14, 3.0]), np.diag([2.0, 1.0, 3.0]))

    u, v, a, b, margin = eigen_match(pair)
    lam = np.diag(dagger(u) @ pair(None)[0] @ u).real
    mu = np.diag(dagger(v) @ pair(None)[1] @ v).real
    assert sorted(zip(lam[a].round(6), mu[b].round(6))) == [
        (1.0, 1.0), (1.0, 1.0), (3.0, 3.0)]
    # the nearest unpaired eigenvalues are 1 apart; the cut is 3e-6
    assert margin == pytest.approx(1.0 / (1e3 * DEFAULT_TOL.eps * 3.0))


def test_canonical_rows_depend_on_the_span_alone():
    gen = rng(14)
    rows = orthonormal_rows(random_mat(gen, 3, 8))
    # a span with leading zero coordinates, so some unit vectors project to 0
    rows[:, :2] = 0.0
    rows = orthonormal_rows(rows)
    base = canonical_rows(rows)
    assert mat_norm(base @ dagger(base) - np.eye(3)) < 1e-12
    assert subspace_equal(span(base[:, None]), span(rows[:, None]), 1e-10)
    moved = canonical_rows(random_unitary(3, gen) @ rows)
    assert mat_norm(moved - base) < 1e-12


def test_intersect_null_spaces_no_constraints_is_everything():
    assert intersect_null_spaces([], 4).shape == (4, 4)


def as_factor(c):
    """A factor matrix C as QuotientRealization takes it: (C C*, x -> x
    C)."""
    c = np.asarray(c, dtype=complex)
    return c @ dagger(c), c.__rmatmul__


def on_identity(gram=None, factor=None):
    """QuotientRealization of a Gram, or of a factor matrix, over the
    identity frame of C^N with every column in its support."""
    if factor is None:
        return QuotientRealization(gram, **identity_frame(len(gram)))
    return QuotientRealization(factor=as_factor(factor),
                               **identity_frame(factor.shape[1]))


def test_quotient_normalization_invariants():
    gen = rng(8)
    a = random_mat(gen, 6, 4)
    gram = dagger(a) @ a  # PSD, rank 4
    q = on_identity(gram)
    assert q.dim == 4
    # the section's adjoint is a co-isometry: q G q* = 1
    assert mat_norm(dagger(q.section) @ gram @ q.section - np.eye(4)) < 1e-9
    # class map preserves the semi-inner product
    w1, w2 = random_mat(gen, 4, 1), random_mat(gen, 4, 1)
    lhs = (dagger(q.class_map @ w1) @ (q.class_map @ w2))[0, 0]
    rhs = (dagger(w1) @ gram @ w2)[0, 0]
    assert abs(lhs - rhs) < 1e-9
    # section is a right inverse on classes
    assert mat_norm(q.class_map @ q.section - np.eye(4)) < 1e-10
    # section . class_map is the orthogonal projector onto range(gram)
    support = q.section @ q.class_map
    assert mat_norm(support @ support - support) < 1e-10
    assert mat_norm(support - dagger(support)) < 1e-10
    assert mat_norm(support @ gram - gram) < 1e-8


def test_quotient_from_factor_matches_gram():
    # a factor C gives the quotient of C*C with the same kept dimension,
    # the same projector and the same transported inner products
    gen = rng(9)
    c = random_mat(gen, 3, 5) @ random_mat(gen, 5, 7)  # rank 3 of 7
    c = np.vstack([c, c[:1] - 2j * c[1:2]])
    by_factor = on_identity(factor=c)
    by_gram = on_identity(dagger(c) @ c)
    assert by_factor.dim == by_gram.dim == 3
    assert by_factor.plain_dim == 7
    # a quotient keeps no Gram
    assert not hasattr(by_factor, "gram") and not hasattr(by_gram, "gram")
    for q in (by_factor, by_gram):
        assert mat_norm(dagger(q.section) @ (dagger(c) @ c) @ q.section
                        - np.eye(3)) < 1e-9
    proj = [q.section @ q.class_map for q in (by_factor, by_gram)]
    assert mat_norm(proj[0] - proj[1]) < 1e-10
    w = random_mat(gen, 7, 2)
    inner = dagger(by_factor.class_map @ w) @ (by_factor.class_map @ w)
    assert mat_norm(inner - dagger(w) @ dagger(c) @ c @ w) < 1e-8
    with pytest.raises(DimensionError):
        QuotientRealization(**identity_frame(7))
    with pytest.raises(DimensionError):
        QuotientRealization(dagger(c) @ c, factor=as_factor(c),
                            **identity_frame(7))


@pytest.mark.parametrize("scale", [1.0, 1e4])
@pytest.mark.parametrize("times_cut, kept", [(0.1, 3), (10.0, 4)])
def test_factor_rank_flips_at_the_cut_on_sigma_squared(scale, times_cut,
                                                       kept):
    # a factor with singular values scale * (1, 0.7, 0.4, sigma), sigma^2 at
    # 0.1x and 10x the cut eps lam_max N on G = C*C: the smallest direction
    # is dropped and kept exactly there, as by the Gram route (a cut on
    # sigma itself would keep it both times)
    gen, n = rng(12), 9
    cut = DEFAULT_TOL.rank_cut(1.0, n, n)
    s = scale * np.array([1.0, 0.7, 0.4, np.sqrt(times_cut * cut)])
    vh = random_unitary(n, gen)[:4]
    c = random_unitary(4, gen) @ (s[:, None] * vh)
    by_factor = on_identity(factor=c)
    by_gram = on_identity(dagger(c) @ c)
    assert by_factor.dim == by_gram.dim == kept
    # a kept direction at 10x the cut is resolved to about 4e-16 lam_max /
    # lam_k, 5e-9 here, by either eigh
    proj = [q.section @ q.class_map for q in (by_factor, by_gram)]
    assert mat_norm(proj[0] - proj[1]) < 1e-8
    assert mat_norm(by_factor.class_map @ by_factor.section
                    - np.eye(kept)) < 1e-8


def test_quotient_degenerate_directions_are_killed():
    gram = np.diag([2.0, 0.0, 1.0, 0.0])
    q = on_identity(gram)
    assert q.dim == 2
    null_vec = np.array([0.0, 3.0, 0.0, -1.0])
    assert np.linalg.norm(q.class_map @ null_vec) < 1e-12


def test_quotient_rejects_non_psd_and_non_hermitian():
    with pytest.raises(NumericError):
        on_identity(np.diag([1.0, -1.0]))
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NumericError):
        on_identity(bad)


def test_quotient_keeps_the_guard_readings():
    # a Hermitian defect of 1e-7 passes the 1e-6 guard, but reads over the
    # 1e-8 check threshold that rtp holds it to
    gram = np.diag([2.0, 1.0, 0.0]).astype(complex)
    gram[0, 1] += 1e-7 / np.sqrt(2)
    q = on_identity(gram)
    assert q.hermitian_defect == pytest.approx(1e-7)
    assert q.hermitian_defect > DEFAULT_TOL.check
    # a PSD Gram reads +0.0, which reports print as such
    assert q.psd_defect == 0.0 and not np.signbit(q.psd_defect)
    # a slightly negative eigenvalue inside the PSD guard reads as its ratio
    # to the largest one
    q = on_identity(np.diag([4.0, -2e-9]))
    assert q.psd_defect == pytest.approx(5e-10)
    assert q.hermitian_defect == 0.0
    c = np.array([[1.0, 2.0, 0.0]])
    q = on_identity(factor=c)
    assert q.hermitian_defect == 0.0 and q.psd_defect == 0.0


def test_induced_operator_well_definedness():
    gram = np.diag([1.0, 1.0, 0.0])
    q = on_identity(gram)
    # block-diagonal operator preserves ker(gram): descends
    ok = np.diag([2.0, 3.0, 7.0])
    mat, res = induced_between(q, q, ok)
    assert res < 1e-12
    # action on classes agrees with the plain action, basis-independently
    w = np.array([1.0, 2.0, 0.0])
    assert np.linalg.norm(mat @ (q.class_map @ w) - q.class_map @ (ok @ w)) < 1e-12
    assert sorted(np.linalg.eigvals(mat).real) == pytest.approx([2.0, 3.0])
    # operator mixing the null direction into the support: ill defined
    bad = np.zeros((3, 3))
    bad[0, 2] = 1.0
    _, res_bad = induced_between(q, q, bad)
    assert res_bad > 0.5


def test_induced_between_different_quotients():
    src = on_identity(np.diag([1.0, 0.0]))
    dst = on_identity(np.diag([4.0]))
    plain = np.array([[3.0, 0.0]])
    mat, res = induced_between(src, dst, plain)
    assert res < 1e-12
    assert mat.shape == (1, 1)
    # inner products transported: |class(e0)|^2 = 1 in src, image has gram 4
    # class_dst(3 e0) has squared norm 9*4; src class of e0 is a unit vector
    assert abs(abs(mat[0, 0]) ** 2 - 36.0) < 1e-9
    # a plain map of the wrong shape connects neither pair of spaces
    for wrong in (plain.T, np.eye(2)):
        with pytest.raises(DimensionError):
            induced_between(src, dst, wrong)


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
