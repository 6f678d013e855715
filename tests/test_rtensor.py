"""Relative tensor products: frozen small oracles, both flavors, the
flavor-comparison unitary, and iterated brackets."""
import numpy as np
import pytest

from qgw.cbase import cbase_from_state
from qgw.cfact import Factorization
from qgw.errors import DimensionError, NotWellDefinedError, PreconditionError
from qgw.fiber import intertwiner_space
from qgw.gns import State, gns
from qgw.fixtures import FiniteGroupoid, groupoid_bundle, linked_bundle
from qgw.hopf import groupoid_hopf
from qgw.linalg import (
    dagger,
    induced_between,
    mat_norm,
    rng,
    span,
)
from qgw.pmu import groupoid_pmu, pentagon_vertices, state_legs
from qgw.rtensor import (
    RelativeTensorSpace,
    central_actions,
    gram_from_r_stacks,
    insertions,
    nest_left,
    nest_right,
    phi_unitary,
    rtp_cstar,
    rtp_state,
)
from qgw.staralg import (
    StarAlgebra,
    algebra_from_generators,
    rep_value,
)
from qgw.linalg import span as _span
from kron_reference import GramQuotient, balanced_gap, frame_unitary, \
    identity_frame, kron_nested_gram, plain_class_map, rows_class_map, \
    unitary_gap
from small_fixtures import full_matrix_algebra


def diag_algebra(n):
    return StarAlgebra(n, span([np.diag(np.eye(n)[i]) for i in range(n)]))


def trivial_triple():
    alg = full_matrix_algebra(1)
    return gns(alg, State(alg, np.array([1.0])))


def f2_triple():
    alg = diag_algebra(2)
    return gns(alg, State.from_density(alg, np.diag([0.5, 0.5])))


def m2_triple(diag=(0.3, 0.7)):
    alg = full_matrix_algebra(2)
    return gns(alg, State.from_density(alg, np.diag(np.asarray(diag, complex))))


def diag_action_stacks(triple, n):
    """The algebra acting diagonally on C^n for commutative diag algebras."""
    mats = np.stack([b for b in triple.algebra.basis()])
    return mats, mats


def test_trivial_algebra_gives_plain_tensor():
    triple = trivial_triple()
    rho = np.stack([np.eye(3)])
    sigma = np.stack([np.eye(2)])
    space = rtp_state(triple, rho, sigma)
    assert space.plain_dims == (3, 2)
    assert space.dim == 6
    assert mat_norm(space.gram - np.eye(6)) < 1e-10


def test_f2_matching_pairs_survive():
    triple = f2_triple()
    rho, sigma = diag_action_stacks(triple, 2)
    space = rtp_state(triple, rho, sigma)
    assert space.dim == 2
    # matched pairs carry squared norm 1/weight, mismatched pairs vanish
    g = space.gram
    idx = lambda a, b: 2 * a + b
    assert g[idx(0, 0), idx(0, 0)] == pytest.approx(2.0)
    assert g[idx(1, 1), idx(1, 1)] == pytest.approx(2.0)
    assert abs(g[idx(0, 1), idx(0, 1)]) < 1e-12
    assert abs(g[idx(0, 0), idx(1, 1)]) < 1e-12


def test_state_gram_matches_direct_route():
    # independent assembly: extract the algebra element behind each pair of
    # left reconstruction operators, then pair through the right action
    triple = m2_triple()
    alg = triple.algebra
    rho = triple.rep_op_stack
    sigma = triple.rep_stack
    space = rtp_state(triple, rho, sigma)
    zeta = triple.cyclic_vector
    k = alg.dim
    z_op = (rep_value(alg, triple.rep_op_stack, alg.subspace.stack) @ zeta).T
    z_inv = np.linalg.inv(z_op)
    nh = rho.shape[1]
    rh = [
        np.stack([rho[i] @ np.eye(nh)[c] for i in range(k)], axis=1) @ z_inv
        for c in range(nh)
    ]
    nk = sigma.shape[1]
    g = np.zeros((nh * nk, nh * nk), dtype=complex)
    w_inv = np.linalg.inv(triple.w)
    for a in range(nh):
        for ap in range(nh):
            x_coeffs = w_inv @ (dagger(rh[a]) @ rh[ap]) @ zeta
            sig = np.tensordot(x_coeffs, sigma, axes=1)
            for b in range(nk):
                for bp in range(nk):
                    g[a * nk + b, ap * nk + bp] = sig[b, bp]
    assert mat_norm(space.gram - g) < 1e-9


def test_standard_bimodule_squares_to_itself():
    triple = m2_triple()
    space = rtp_state(triple, triple.rep_op_stack, triple.rep_stack)
    assert space.plain_dims == (4, 4)
    assert space.dim == 4
    # tensoring against the cyclic vector reproduces plain inner products
    gen = rng(41)
    v = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    w = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    zeta = triple.cyclic_vector
    for left, right in ((np.kron(zeta, v), np.kron(zeta, w)),
                        (np.kron(v, zeta), np.kron(w, zeta))):
        assert np.vdot(left, space.gram @ right) == pytest.approx(
            np.vdot(v, w))


def test_rejects_wrong_rep_parity():
    triple = m2_triple()
    # the left slot wants the opposite-algebra action; the plain action is
    # not antimultiplicative, so it must be refused
    with pytest.raises(PreconditionError):
        rtp_state(triple, triple.rep_stack, triple.rep_stack)


def test_over_opposite_swaps_roles():
    triple = m2_triple()
    # over the opposite algebra the left slot takes the plain action
    space = rtp_state(
        triple, triple.rep_stack, triple.rep_op_stack, over_opposite=True
    )
    assert space.dim == 4
    with pytest.raises(PreconditionError):
        rtp_state(
            triple, triple.rep_op_stack, triple.rep_stack, over_opposite=True
        )


def test_over_opposite_equals_plain_for_commutative():
    triple = f2_triple()
    rho, sigma = diag_action_stacks(triple, 2)
    a = rtp_state(triple, rho, sigma)
    b = rtp_state(triple, rho, sigma, over_opposite=True)
    assert mat_norm(a.gram - b.gram) < 1e-10


def test_lift_diagonal_descends_offdiagonal_does_not():
    triple = f2_triple()
    rho, sigma = diag_action_stacks(triple, 2)
    space = rtp_state(triple, rho, sigma)
    mat, res = space.lift([np.diag([2.0, 3.0])[None], None])
    assert res < 1e-10
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    with pytest.raises(NotWellDefinedError):
        space.lift([e01[None], None])
    _, res_bad = space.lift([e01[None], None], require=False)
    assert res_bad > 0.1


def test_lifted_rep_commutes_after_lift():
    triple = f2_triple()
    rho, sigma = diag_action_stacks(triple, 2)
    space = rtp_state(triple, rho, sigma)
    left, r1 = space.lift([rho, None])
    right, r2 = space.lift([None, sigma])
    assert max(r1, r2) < 1e-10
    for x in left:
        for y in right:
            assert mat_norm(x @ y - y @ x) < 1e-10


def cstar_pair(diag=(0.3, 0.7)):
    triple = m2_triple(diag)
    base = cbase_from_state(triple)
    alpha = Factorization(base, base.space_dim, base.algebra.subspace)
    beta = Factorization(
        base, base.space_dim, base.partner.subspace, flipped=True
    )
    return triple, base, alpha, beta


def test_cstar_flavor_on_identity_factorizations():
    triple, base, alpha, beta = cstar_pair()
    space = rtp_cstar(alpha, beta)
    assert space.plain_dims == (4, 4)
    assert space.dim == 4


def test_cstar_rejects_wrong_sides():
    _, base, alpha, beta = cstar_pair()
    with pytest.raises(PreconditionError):
        rtp_cstar(beta, alpha)


def test_kets_implement_inner_product_identities():
    _, base, alpha, beta = cstar_pair()
    space = rtp_cstar(alpha, beta)
    gen = rng(42)
    for _ in range(3):
        ca = gen.standard_normal(alpha.dim) + 1j * gen.standard_normal(alpha.dim)
        cb = gen.standard_normal(alpha.dim) + 1j * gen.standard_normal(alpha.dim)
        xi = alpha.subspace.reconstruct(ca)
        xi2 = alpha.subspace.reconstruct(cb)
        lhs = dagger(insertions(space, xi, 0)) @ insertions(space, xi2, 0)
        rhs = beta.rho(dagger(xi) @ xi2)
        assert mat_norm(lhs - rhs) < 1e-8
        eta = beta.subspace.reconstruct(ca)
        eta2 = beta.subspace.reconstruct(cb)
        lhs2 = dagger(insertions(space, eta, 1)) @ insertions(space, eta2, 1)
        rhs2 = alpha.rho(dagger(eta) @ eta2)
        assert mat_norm(lhs2 - rhs2) < 1e-8


def test_ket_isometry_against_action():
    # the left insertion is isometric exactly against the induced action of
    # the products: <ket(xi) k, ket(xi) k'> = <k, rho(xi* xi) k'>
    _, base, alpha, beta = cstar_pair()
    space = rtp_cstar(alpha, beta)
    xi = alpha.basis()[2]
    k1 = np.eye(4)[1]
    k2 = np.eye(4)[3]
    lhs = np.vdot(insertions(space, xi, 0) @ k1, insertions(space, xi, 0) @ k2)
    rhs = np.vdot(k1, beta.rho(dagger(xi) @ xi) @ k2)
    assert abs(lhs - rhs) < 1e-8


def test_phi_unitary_links_the_flavors():
    triple, base, alpha, beta = cstar_pair()
    vn = rtp_state(triple, triple.rep_op_stack, triple.rep_stack)
    cs = rtp_cstar(alpha, beta)
    _, result = phi_unitary(vn, cs)
    assert result.ok, result.residuals
    assert result.residuals["gram_match"] < 1e-9


def test_phi_rejects_flavor_confusion():
    triple, base, alpha, beta = cstar_pair()
    vn = rtp_state(triple, triple.rep_op_stack, triple.rep_stack)
    cs = rtp_cstar(alpha, beta)
    with pytest.raises(PreconditionError):
        phi_unitary(cs, vn)


def test_nested_brackets_agree_for_commutative_case():
    triple = f2_triple()
    rho, sigma = diag_action_stacks(triple, 2)
    inner = rtp_state(triple, rho, sigma)
    # a right action on the inner space lives on its second leg
    inner_rho, r1 = inner.lift([None, rho])
    left_pair = rtp_state(triple, inner_rho, sigma)
    left_space = nest_left(inner, left_pair)
    # a left action on the inner space lives on its first leg
    inner_sigma, r2 = inner.lift([sigma, None])
    right_pair = rtp_state(triple, rho, inner_sigma)
    right_space = nest_right(inner, right_pair)
    assert max(r1, r2) < 1e-10
    assert left_space.plain_dims == right_space.plain_dims == (2, 2, 2)
    assert left_space.dim == right_space.dim == 2
    left_gram, right_gram = (dagger(cm) @ cm for cm in map(
        plain_class_map, (left_space, right_space)))
    assert mat_norm(left_gram - right_gram) < 1e-9
    # only the fully matched plain tensors survive, with weight 1/mu^2
    v = np.kron(np.eye(2)[0], np.kron(np.eye(2)[0], np.eye(2)[0]))
    assert np.vdot(v, left_gram @ v) == pytest.approx(4.0)


def test_descend_identity_between_equal_spaces():
    triple = f2_triple()
    rho, sigma = diag_action_stacks(triple, 2)
    a = rtp_state(triple, rho, sigma)
    b = rtp_state(triple, rho, sigma)
    mat, res = induced_between(a, b, np.eye(4))
    assert res < 1e-10
    assert mat_norm(dagger(mat) @ mat - np.eye(a.dim)) < 1e-10


def test_gram_kernel_shape_and_symmetry():
    gen = rng(43)
    rh = gen.standard_normal((3, 3, 5)) + 1j * gen.standard_normal((3, 3, 5))
    rk = gen.standard_normal((2, 2, 5)) + 1j * gen.standard_normal((2, 2, 5))
    g = gram_from_r_stacks(rh, rk)
    assert g.shape == (6, 6)
    # entry check against the defining sum
    a, b, ap, bp = 1, 0, 2, 1
    expect = sum(
        rh[ap][a, t] * np.conj(rk[b][bp, t]) for t in range(5)
    )
    assert g[a * 2 + b, ap * 2 + bp] == pytest.approx(expect)


def kron_lift(space, ops, into=None):
    """Per-element reference: the plain tensor product of the i-th leg
    operators after into's class map on the plain product, read in space's
    frame and descended out of space."""
    k = max((len(op) for op in ops if op is not None), default=1)
    cm = plain_class_map(space if into is None else into)
    frame = frame_unitary(space)
    mats, worst = [], 0.0
    for i in range(k):
        plain = np.eye(1)
        for op, d in zip(ops, space.plain_dims):
            plain = np.kron(plain, np.eye(d) if op is None else op[i])
        mat, res = space.descend([cm @ plain @ frame])
        mats.append(mat)
        worst = max(worst, res)
    return np.stack(mats), worst


def random_stack(gen, k, d):
    return gen.standard_normal((k, d, d)) + 1j * gen.standard_normal((k, d, d))


def commutant_stack(gen, k, stack):
    """k random elements of the commutant of the algebra a stack generates."""
    comm = algebra_from_generators(stack.shape[1], stack).commutant()
    coeffs = gen.standard_normal((k, comm.dim))
    return np.tensordot(coeffs, comm.subspace.stack, axes=1)


def lift_cases():
    """(space, leg stacks, whether they descend, into) on a one-leg space,
    a two-leg square, from the square into a three-leg nesting of it kept
    on its support (the intertwiners of the diagonal comultiplication on
    the plain square fill two of its legs, as in the coassociativity
    check), and out of that nesting, where commutant elements of the
    actions it is balanced over descend."""
    gen = rng(44)
    x = random_stack(gen, 1, 6)[0][:, :4]
    one = RelativeTensorSpace("state", gram=x @ dagger(x),
                              **identity_frame(6))
    # the range actions of a groupoid: rho also acts on the right leg,
    # where it commutes with sigma, so the square nests
    data = groupoid_hopf(FiniteGroupoid.pair(2))
    triple, rho, sigma = data["triple"], data["rho"], data["sigma"]
    two = data["state_space"]
    inner_rho, _ = two.lift([None, rho])
    three = nest_left(two, rtp_state(triple, inner_rho, sigma))
    plain = two.section @ intertwiner_space(data["delta_state"],
                                            data["algebra"])
    c_rho = commutant_stack(gen, 3, rho)
    c_sigma = commutant_stack(gen, 3, sigma)
    fan_out = gen.standard_normal((2, 16, 4)) + 0j
    return [
        (one, [random_stack(gen, 3, 6)], False, None),
        (one, [np.stack([np.eye(6), 2j * np.eye(6)])], True, None),
        (two, [c_rho, None], True, None),
        (two, [c_rho, c_sigma], True, None),
        (two, [random_stack(gen, 3, 4), random_stack(gen, 3, 4)], False,
         None),
        (two, [None, None], True, None),
        (two, [plain, None], True, three),
        (two, [None, plain], True, three),
        (two, [fan_out, random_stack(gen, 2, 4)], False, three),
        (three, [c_rho, None, c_sigma], True, None),
        (three, [random_stack(gen, 2, 4) for _ in range(3)], False, None),
    ]


@pytest.mark.parametrize("case", range(11))
def test_stacked_lift_matches_kron_per_element(case):
    space, ops, descends, into = lift_cases()[case]
    mats, worst = space.lift(ops, require=False, into=into)
    ref, ref_worst = kron_lift(space, ops, into)
    assert mats.shape == ref.shape
    assert mat_norm(mats - ref) < 1e-10 * max(1.0, mat_norm(ref))
    assert abs(worst - ref_worst) < 1e-10
    if descends:
        assert worst < 1e-10
    else:
        assert worst > 1e-3
        with pytest.raises(NotWellDefinedError):
            space.lift(ops, into=into)


def test_lift_rejects_mismatched_stacks():
    triple = f2_triple()
    rho, sigma = diag_action_stacks(triple, 2)
    space = rtp_state(triple, rho, sigma)
    with pytest.raises(DimensionError):
        space.lift([rho, sigma[:1]])
    with pytest.raises(DimensionError):
        space.lift([rho[0], None])
    with pytest.raises(DimensionError):
        space.lift([rho])


def random_space(gen, plain_dims, rank):
    """A state-flavor space over plain_dims with a random Gram of the given
    rank, so its kernel and support are in general position.  Its Gram is
    given in full: the legs are identities and every column is in the
    support."""
    x = gen.standard_normal((rank, int(np.prod(plain_dims))))
    x = x + 1j * gen.standard_normal(x.shape)
    return RelativeTensorSpace("state", gram=dagger(x) @ x,
                               **identity_frame(*plain_dims))


def random_nestings():
    """(space, (inner, pair, bracket)): one space of each bracket over a
    random rank-deficient inner space, on random pair spaces given their
    Gram in full, so the support is the whole cube in a general frame."""
    gen = rng(45)
    inner = random_space(gen, (3, 4), 7)
    left = random_space(gen, (inner.dim, 3), 10)
    right = random_space(gen, (3, inner.dim), 9)
    return [(nest_left(inner, left), (inner, left, "left")),
            (nest_right(inner, right), (inner, right, "right"))]


@pytest.mark.parametrize("case", range(2))
def test_nesting_factor_matches_kron_gram(case):
    space, nest = random_nestings()[case]
    ref = GramQuotient(kron_nested_gram(*nest))
    cm = plain_class_map(space)
    assert space.plain_dim == ref.plain_dim == 36
    assert space.dim == ref.dim
    assert mat_norm(dagger(cm) @ cm - ref.gram) < 1e-12 * mat_norm(ref.gram)
    proj = dagger(cm) / space.lam @ cm
    assert mat_norm(proj - ref.section @ ref.class_map) < 1e-10
    # core W* is the class map of the dense route, up to the unitary that
    # eigenspaces of equal lam leave free
    rows, lam = rows_class_map(*nest)
    assert unitary_gap(cm, rows) < 1e-12
    assert mat_norm(np.sort(space.lam) - np.sort(lam)) < 1e-12 * lam.max()


def test_induced_gap_matches_complement_of_support():
    # the gap of a top read in the frame equals top (1 - support) with
    # support = section class_map formed on the plain space: on a random
    # nesting (the whole cube), on a pentagon vertex of pair(2), whose
    # support is 16 of the 64 plain columns, and on its source square
    pmu = groupoid_pmu(FiniteGroupoid.pair(2))
    squares, _, pair = state_legs(pmu["candidate"])
    vertex = pentagon_vertices(squares, pair)["first_then_source"]
    gen = rng(46)
    for space in (random_nestings()[0][0], vertex, squares["source"]):
        cm = plain_class_map(space)
        proj = dagger(cm) / space.lam @ cm
        comp = np.eye(space.plain_dim) - proj
        x, y = (gen.standard_normal((space.plain_dim,) * 2)
                for _ in range(2))
        # keeps ker(gram) = range(comp), so it descends; a generic map
        # does not
        keeping = proj @ x @ proj + comp @ y @ comp
        for plain, descends in [(keeping, True), (x + 1j * y, False)]:
            top = cm @ plain
            mat, res = space.descend([top @ frame_unitary(space)])
            old = mat_norm(top @ comp) / max(1.0, mat_norm(top))
            assert abs(res - old) < 1e-12
            assert mat_norm(mat - top @ dagger(cm) / space.lam) < 1e-12
            assert (res < 1e-10) == descends
            if not descends:
                assert res > 1e-3


def test_random_base_square_lives_on_the_balanced_support():
    # base M3 + M2 + M1 under a non-tracial state: a central z balances the
    # relative inner product on both flavors, so 56 of 144 plain pairs carry
    # the Gram; a Hermitian z drawn from the whole algebra does not, and
    # leaves a sizable part of the Gram off the pairs it matches
    data = linked_bundle([3, 2, 1], 2, 2, 5)
    vn = rtp_state(data["triple"], data["rho"], data["sigma"])
    cs = rtp_cstar(data["alpha"], data["beta"])
    for space in (vn, cs):
        matched, n, gaps = balanced_gap(
            space, central_actions(space.flavor, space.meta))
        assert (matched, n) == (56, 144)
        assert max(gaps) < 1e-12, (space.flavor, gaps)
    star = data["triple"].algebra.star_matrix()
    _, _, (off, _) = balanced_gap(vn, (data["rho"], data["sigma"], star))
    assert off > 0.1
