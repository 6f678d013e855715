import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from qgw import cli, fiber, linalg
from qgw.cfact import Factorization
from qgw.errors import (
    InternalInconsistencyError,
    NotWellDefinedError,
    PreconditionError,
)
from qgw.fiber import (
    conjugated_algebra,
    fiber_classical,
    fiber_morphism,
    fiber_spatial,
    hom_report,
    intertwiner_space,
    is_morphism,
    transported_match,
)
from qgw.fixtures import (
    FiniteGroupoid,
    groupoid_bundle,
    linked_bundle,
    linked_data,
)
from qgw.linalg import (
    DEFAULT_TOL,
    dagger,
    intersect_null_spaces,
    mat_norm,
    orthonormal_rows,
    random_unitary,
    rng,
    span,
    subspace_residual,
)
from qgw.hopf import groupoid_hopf
from qgw.serialize import decode_matrix, encode_matrix
from qgw.rtensor import (
    RelativeTensorSpace,
    ket_factorization,
    nest_left,
    phi_unitary,
    rtp_cstar,
    rtp_state,
)
from qgw.staralg import (
    StarAlgebra,
    algebra_from_generators,
    commute_residual,
    rep_value,
)
from kron_reference import _keep_rows, adjoint_fiber_spatial, \
    identity_frame, keep_gaps, kron_connectors, mul_operator, \
    pinv_images, spatial_legs, stacked_fiber_morphism
from small_fixtures import full_matrix_algebra, trivial_bundle, two_point_bundle


def leg_algebras(bundle):
    nh = bundle["rho"].shape[1]
    nk = bundle["sigma"].shape[1]
    a = algebra_from_generators(nh, bundle["rho"])
    b = algebra_from_generators(nk, bundle["sigma"])
    return a, b


def spaces(bundle):
    vn = rtp_state(bundle["triple"], bundle["rho"], bundle["sigma"])
    cs = rtp_cstar(bundle["alpha"], bundle["beta"])
    return vn, cs


def test_classical_two_point_is_diagonal():
    bundle = two_point_bundle()
    vn, _ = spaces(bundle)
    a, b = leg_algebras(bundle)
    fp, cert = fiber_classical(vn, a, b)
    assert cert.residuals["lift_well_defined"] < 1e-10
    # quotient is two dimensional and the product is the full diagonal there
    assert vn.dim == 2
    assert fp.dim == 2
    assert commute_residual(fp.subspace.stack, fp.subspace.stack) < 1e-10
    units = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    lifted, _ = vn.lift([units, units])
    assert fp.residual(lifted) <= fp.tol.check


def test_classical_full_legs_full_product():
    bundle = linked_bundle([2], 1, 1, seed=5)
    vn, _ = spaces(bundle)
    nh = bundle["rho"].shape[1]
    nk = bundle["sigma"].shape[1]
    fp, _ = fiber_classical(vn, full_matrix_algebra(nh),
                            full_matrix_algebra(nk))
    assert fp.dim == vn.dim ** 2


def test_spatial_product_is_unital_algebra():
    bundle = two_point_bundle()
    _, cs = spaces(bundle)
    a, b = leg_algebras(bundle)
    fp = fiber_spatial(cs, a, b)
    # construction self-certifies closure; identity sits inside
    assert fp.residual(np.eye(cs.dim)) <= fp.tol.check


@pytest.mark.parametrize("case", ["trivial", "two_point", "groupoid", "random"])
def test_transport_carries_classical_to_spatial(case):
    if case == "trivial":
        bundle = trivial_bundle(2, 2)
    elif case == "two_point":
        bundle = two_point_bundle()
    elif case == "groupoid":
        bundle = groupoid_bundle(FiniteGroupoid.pair(2))
    else:
        bundle = linked_bundle([2, 1], 1, 1, seed=11)
    vn, cs = spaces(bundle)
    phi, cert = phi_unitary(vn, cs)
    assert cert.ok
    a, b = leg_algebras(bundle)
    classical, _ = fiber_classical(vn, a, b)
    spatial = fiber_spatial(cs, a, b)
    ok, res = transported_match(phi, classical, spatial, 1e-8)
    assert ok, f"transport residual {res:.3e}"


def test_transport_with_full_legs():
    bundle = linked_bundle([2], 1, 1, seed=7)
    vn, cs = spaces(bundle)
    phi, _ = phi_unitary(vn, cs)
    nh = bundle["rho"].shape[1]
    nk = bundle["sigma"].shape[1]
    classical, _ = fiber_classical(vn, full_matrix_algebra(nh),
                                   full_matrix_algebra(nk))
    spatial = fiber_spatial(cs, full_matrix_algebra(nh),
                            full_matrix_algebra(nk))
    ok, res = transported_match(phi, classical, spatial, 1e-8)
    assert ok, f"transport residual {res:.3e}"


@pytest.mark.parametrize("blocks,ml,mr", [([3], 1, 1), ([2], 2, 1)])
def test_transport_over_full_block_base(blocks, ml, mr):
    # over a single full matrix block the quotient collapses to one or two
    # dimensions and a membership span can fill its whole space; the
    # complement of such a span must come out empty, not as noise rows
    bundle = linked_bundle(blocks, ml, mr, seed=1)
    vn, cs = spaces(bundle)
    a, b = leg_algebras(bundle)
    classical, _ = fiber_classical(vn, a, b)
    spatial = fiber_spatial(cs, a, b)
    assert spatial.dim >= 1
    phi, _ = phi_unitary(vn, cs)
    ok, res = transported_match(phi, classical, spatial, 1e-8)
    assert ok, f"transport residual {res:.3e}"


def test_spatial_rejects_state_flavor():
    bundle = two_point_bundle()
    vn, _ = spaces(bundle)
    a, b = leg_algebras(bundle)
    with pytest.raises(PreconditionError):
        fiber_spatial(vn, a, b)


def test_intertwiner_space_extremes():
    full = full_matrix_algebra(3)
    inter = intertwiner_space(full.subspace.stack, full)
    assert inter.shape[0] == 1
    trivial = algebra_from_generators(3, [np.eye(3)])
    inter = intertwiner_space(trivial.subspace.stack, trivial)
    assert inter.shape[0] == 9
    # the trace onto C: t(1) = 2 forces T = 2 T
    diagonal = algebra_from_generators(2, [np.diag([1.0, 0.0])])
    traces = np.trace(diagonal.subspace.stack, axis1=1, axis2=2)
    inter = intertwiner_space(traces[:, None, None], diagonal)
    assert inter.shape == (0, 1, 2)


def test_hom_report_flags_non_homomorphism():
    full = full_matrix_algebra(2)
    # the diagonal part of each basis element
    squash = full.subspace.stack * np.eye(2)
    rep = hom_report(squash, full, full)
    assert rep["multiplicative"] > 1e-3


def test_identity_is_morphism():
    bundle = linked_bundle([2], 1, 1, seed=3)
    nh = bundle["rho"].shape[1]
    a = algebra_from_generators(nh, bundle["rho"])
    verdict = is_morphism(a.subspace.stack, a, bundle["alpha"], a,
                          bundle["alpha"])
    assert verdict.ok
    assert verdict.residuals["transports_base_action"] < 1e-9


def test_conjugation_onto_moved_factorization_is_morphism():
    bundle = linked_bundle([2], 1, 1, seed=13)
    nh = bundle["rho"].shape[1]
    a = algebra_from_generators(nh, bundle["rho"])
    u = random_unitary(nh, rng(99))
    moved_alg = conjugated_algebra(u, a)
    alpha = bundle["alpha"]
    moved_sub = span([u @ xi for xi in alpha.basis()], nh,
                     alpha.base.space_dim, DEFAULT_TOL)
    moved = Factorization(alpha.base, nh, moved_sub, flipped=False)
    verdict = is_morphism(u @ a.subspace.stack @ dagger(u), a, alpha,
                          moved_alg, moved)
    assert verdict.ok


def test_conjugation_onto_unmoved_factorization_is_not_morphism():
    bundle = linked_bundle([2], 1, 1, seed=17)
    nh = bundle["rho"].shape[1]
    a = algebra_from_generators(nh, bundle["rho"])
    u = random_unitary(nh, rng(5))
    moved_alg = conjugated_algebra(u, a)
    verdict = is_morphism(u @ a.subspace.stack @ dagger(u), a,
                          bundle["alpha"], moved_alg, bundle["alpha"])
    assert not verdict.ok


def test_unit_swap_twist_keeps_no_intertwiner():
    """Delta after conjugation by the unit swap s of pair(2) is a
    *-homomorphism into the fiber product that moves the base action.  Its
    8-dimensional intertwiner space carries alpha onto alpha2 composed with
    the swap, never into alpha2, so no intertwiner keeps the
    factorizations: criterion two reports the whole target dimension,
    failing with criterion one."""
    gpd = FiniteGroupoid.pair(2)
    h = groupoid_hopf(gpd)
    cs, arrow, alpha = h["cstar_space"], h["algebra"], h["alpha"]
    fp = fiber_spatial(cs, arrow, arrow)
    alpha2 = ket_factorization(cs, alpha, alpha, leg=0, flipped=False)
    # arrows (0, 1) and (1, 0)
    swap = gpd.lambda_matrix(1) + gpd.lambda_matrix(2)
    images = rep_value(arrow, h["delta_cstar"],
                       swap @ arrow.subspace.stack @ dagger(swap))
    assert len(intertwiner_space(images, arrow)) == 8
    cert = is_morphism(images, arrow, alpha, fp, alpha2)
    assert cert.residuals["transports_base_action"] > 1.0
    assert cert.residuals["intertwiners_carry_factorization"] == alpha2.dim


@pytest.mark.parametrize("starve", ["intertwiner_space", "rep_value"])
def test_disagreeing_morphism_criteria_raise(monkeypatch, starve):
    """The identity with one criterion's input zeroed (no intertwiners for
    criterion two, a vanishing transported action for criterion one): the
    other criterion still holds, and is_morphism refuses to pick a side."""
    bundle = linked_bundle([2], 1, 1, seed=3)
    nh = bundle["rho"].shape[1]
    a = algebra_from_generators(nh, bundle["rho"])
    real = getattr(fiber, starve)
    monkeypatch.setattr(fiber, starve, lambda *args: 0 * real(*args))
    with pytest.raises(InternalInconsistencyError):
        is_morphism(a.subspace.stack, a, bundle["alpha"], a, bundle["alpha"])


def test_base_action_outside_source_is_a_precondition():
    # the scalars on C^2 do not contain the two-point base's diagonal
    # action; criterion two alone would still pass on the identity
    alpha = two_point_bundle()["alpha"]
    scalars = algebra_from_generators(2, [])
    with pytest.raises(PreconditionError, match="base action leaves"):
        is_morphism(scalars.subspace.stack, scalars, alpha, scalars, alpha)
    acting = alpha.acting_algebra().subspace.stack
    a = algebra_from_generators(2, alpha.rho(acting))
    cert = is_morphism(a.subspace.stack, a, alpha, a, alpha)
    assert cert.ok and cert.residuals["base_action_inside_source"] < 1e-12


def fiber_images(src, dst, legs, images):
    """fiber_morphism applied to every image of a stack: (stack of Z_m,
    worst residual over the connectors' descent and every image's exchange
    relations)."""
    image, worst = fiber_morphism(src, dst, legs)
    out = []
    for s in images:
        z, res = image(s)
        out.append(z)
        worst = max(worst, res)
    return np.stack(out), worst


def test_fiber_morphism_identity_connectors():
    bundle = two_point_bundle()
    vn, _ = spaces(bundle)
    gen = rng(0)
    s = gen.standard_normal((vn.dim, vn.dim))
    z, res = fiber_images(vn, vn, [None, None], s[None])
    assert res < 1e-12
    assert mat_norm(z[0] - s) < 1e-10


def test_fiber_morphism_reproduces_flavor_transport():
    bundle = linked_bundle([2], 1, 1, seed=23)
    vn, cs = spaces(bundle)
    phi, _ = phi_unitary(vn, cs)
    connectors, _ = vn.lift([None, None], into=cs)
    assert mat_norm(connectors[0] - phi) < 1e-9
    gen = rng(1)
    s = gen.standard_normal((2, vn.dim, vn.dim)) \
        + 1j * gen.standard_normal((2, vn.dim, vn.dim))
    z, res = fiber_images(vn, cs, [None, None], s)
    assert res < 1e-9
    assert mat_norm(z - phi @ s @ dagger(phi)) < 1e-8


def test_fiber_morphism_degenerate_connectors_raise():
    bundle = two_point_bundle()
    vn, _ = spaces(bundle)
    nh = bundle["rho"].shape[1]
    with pytest.raises(NotWellDefinedError):
        fiber_morphism(vn, vn, [np.zeros((1, nh, nh)), None])


def test_fiber_morphism_rank_deficient_connectors_raise():
    # a rank-one projector on the left leg, alone or twice, lifts to
    # connectors that are not zero but lack full row rank together
    bundle = two_point_bundle()
    vn, _ = spaces(bundle)
    nh = bundle["rho"].shape[1]
    e00 = np.zeros((nh, nh))
    e00[0, 0] = 1.0
    for legs in ([e00[None], None], [np.stack([e00, 2j * e00]), None]):
        conn, _ = vn.lift(legs, require=False)
        assert 0 < np.linalg.matrix_rank(np.concatenate(list(conn), 1)) \
            < vn.dim
        with pytest.raises(NotWellDefinedError):
            fiber_morphism(vn, vn, legs)


def test_fiber_morphism_reports_non_descending_legs():
    """An off-diagonal matrix unit on the left leg does not descend; next
    to the identity connector the image is still unique, and the residual
    reports the connector's descent gap."""
    bundle = two_point_bundle()
    vn, _ = spaces(bundle)
    nh = bundle["rho"].shape[1]
    e01 = np.zeros((nh, nh))
    e01[0, 1] = 1.0
    legs = [np.stack([np.eye(nh), e01]), None]
    _, gap = vn.lift(legs, require=False)
    assert gap > 0.1
    z, res = fiber_images(vn, vn, legs, np.eye(vn.dim)[None])
    assert mat_norm(z[0] - np.eye(vn.dim)) < 1e-10
    assert res == gap


def coassociativity_case(gpd):
    """The state square of a diagonal comultiplication, its three-factor
    space, the intertwiners on the plain square (filling the first or the
    last two legs) and the image stack."""
    h = groupoid_hopf(gpd)
    space = h["state_space"]
    inner_rho, _ = space.lift([None, space.meta["rho_stack"]])
    big = nest_left(space, rtp_state(space.meta["triple"], inner_rho,
                                     space.meta["sigma_stack"]))
    plain = space.section @ intertwiner_space(h["delta_state"], h["algebra"])
    return space, big, plain, plain, h["delta_state"]


def linked_case():
    """A linked square into a random-Gram space over (nh, nh, nk): random
    fan-out leg maps that do not descend, and a random image stack."""
    bundle = linked_bundle([2, 1], 2, 2, seed=5)
    vn, _ = spaces(bundle)
    nh, nk = vn.plain_dims
    gen = rng(31)

    def draw(*shape):
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

    x = draw(nh * nh * nk, 2 * vn.dim)
    big = RelativeTensorSpace("state", gram=x @ dagger(x),
                              **identity_frame(nh, nh, nk))
    return (vn, big, draw(3, nh * nh, nh), draw(3, nh * nk, nk),
            draw(4, vn.dim, vn.dim))


CONNECTOR_CASES = {
    "pair2": lambda: coassociativity_case(FiniteGroupoid.pair(2)),
    "z3": lambda: coassociativity_case(FiniteGroupoid.cyclic(3)),
    "linked": linked_case,
}


@pytest.mark.parametrize("case", sorted(CONNECTOR_CASES))
def test_batched_connectors_and_images_match_kron_reference(case):
    src, dst, left, right, images = CONNECTOR_CASES[case]()
    nh, nk = src.plain_dims
    for legs, pairs in (([left, None], (left, np.eye(nk)[None])),
                        ([None, right], (np.eye(nh)[None], right))):
        conn, worst = src.lift(legs, require=False, into=dst)
        ref, ref_worst = kron_connectors(src, dst, *pairs)
        assert mat_norm(conn - ref) <= 1e-12 * max(1.0, mat_norm(ref))
        assert abs(worst - ref_worst) <= 1e-12
        z, res = fiber_images(src, dst, legs, images)
        ref_z, ref_res = pinv_images(ref, images)
        assert mat_norm(z - ref_z) <= 1e-10 * max(1.0, mat_norm(ref_z))
        assert abs(res - max(ref_worst, ref_res)) <= 1e-10


@pytest.mark.parametrize("case", sorted(CONNECTOR_CASES))
def test_connector_gram_solve_matches_the_svd_pseudo_inverse(case):
    # Z from eigh of the q_to x q_to Gram of the connectors is Z from the
    # SVD pseudo-inverse of their stack
    src, dst, left, right, images = CONNECTOR_CASES[case]()
    for legs in ([left, None], [None, right]):
        conn, _ = src.lift(legs, require=False, into=dst)
        z, _ = fiber_images(src, dst, legs, images)
        ref, _ = pinv_images(conn, images)
        assert mat_norm(z - ref) <= 1e-12 * max(1.0, mat_norm(ref))


BLOCKED_CASES = {**CONNECTOR_CASES,
                 "pair3": lambda: coassociativity_case(FiniteGroupoid.pair(3))}


@pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
def test_blocked_connector_solve_matches_the_stacked_one(case):
    # blocks of about q_to / q_from connectors give the Z_m and the worst
    # residual of the solve on the whole stack [W_k]_k; the linked case's
    # legs do not descend and its images are random, so its residual is
    # far from zero
    src, dst, left, right, images = BLOCKED_CASES[case]()
    for legs in ([left, None], [None, right]):
        z, worst = fiber_images(src, dst, legs, images)
        ref, ref_worst = stacked_fiber_morphism(src, dst, legs, images)
        assert mat_norm(z - ref) <= 1e-12 * max(1.0, mat_norm(ref))
        assert abs(worst - ref_worst) <= 1e-12


def test_classical_product_holds_under_2_mb_on_pair3():
    # the family of lifts and adjoints is built once and rotated member by
    # member in the exchange Gram (2.3 MB traced peak with the lifts, their
    # adjoints and the rotated family held together)
    h = groupoid_hopf(FiniteGroupoid.pair(3))
    space, algebra = h["state_space"], h["algebra"]
    tracemalloc.start()
    try:
        product, _ = fiber_classical(space, algebra, algebra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product.dim == algebra.dim
    assert peak < 2e6, peak


def test_fiber_command_product_holds_under_3_mb_on_pair3():
    # the fiber command's classical product: the algebras generated by the
    # bundle's rho and sigma give a *-closure family of 108 members of 27 x
    # 27, checked a block of 27 members at a time (5.3 MB traced peak with
    # the family's adjoint combinations formed whole; 2.2 MB blocked)
    bundle = groupoid_bundle(FiniteGroupoid.pair(3))
    vn, _ = spaces(bundle)
    left, right = leg_algebras(bundle)
    tracemalloc.start()
    try:
        product, _ = fiber_classical(vn, left, right)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product.dim == 3
    assert peak < 3e6, peak


def kron_block_spatial(space, left_alg, right_alg):
    """The spatial product as first built: kron-built insertion kets k, one
    dense (q n) x q^2 block P_perp (I (x) k^T) per ket for "T keeps k in S",
    plus the rows of "T* does" read against an SVD basis of S's
    complement."""
    q = space.dim
    tol = space.tol

    def families(kets, partners, n):
        sub = span([k @ p for k in kets for p in partners], q, n, tol)
        flat = sub.flat()
        proj = flat.T @ np.conj(flat)
        perp = np.eye(q * n) - proj
        forward = [perp @ mul_operator(np.eye(q), k) for k in kets]
        if sub.dim == 0:
            comp = np.eye(q * n)
        elif sub.dim >= q * n:
            comp = np.zeros((0, q * n))
        else:
            comp = orthonormal_rows(perp, tol)
        adjoint = [
            (np.conj(c).reshape(q, n) @ dagger(k)).T.reshape(-1)
            for k in kets for c in comp
        ]
        return forward + [np.reshape(adjoint, (-1, q * q))]

    nh, nk = space.plain_dims
    zeta = space.meta["base"].cyclic_vector
    cm = space.class_map
    kets1 = [cm @ np.kron((xi @ zeta)[:, None], np.eye(nk))
             for xi in space.meta["left_fact"].basis()]
    kets2 = [cm @ np.kron(np.eye(nh), (eta @ zeta)[:, None])
             for eta in space.meta["right_fact"].basis()]
    blocks = (families(kets1, right_alg.basis(), nk)
              + families(kets2, left_alg.basis(), nh))
    rows = intersect_null_spaces(blocks, q * q, tol)
    return span(rows.reshape(-1, q, q), q, q, tol)


@pytest.mark.parametrize("legs", ["actions", "commutants"])
@pytest.mark.parametrize("blocks,ml,mr,seed", [
    ([2, 1], 1, 1, 11),
    ([2, 1, 1], 1, 1, 3),
    # a Haar-rotated 2x amplification on both legs
    ([2, 1], 2, 2, 5),
])
def test_spatial_matches_kron_block_construction(blocks, ml, mr, seed, legs):
    bundle = linked_bundle(blocks, ml, mr, seed=seed)
    _, cs = spaces(bundle)
    a, b = leg_algebras(bundle)
    if legs == "commutants":
        a, b = a.commutant(), b.commutant()
    spatial = fiber_spatial(cs, a, b)
    reference = kron_block_spatial(cs, a, b)
    assert spatial.dim == reference.dim
    assert subspace_residual(spatial.subspace, reference) < 1e-10


# the bundles on which every restricted solve of fiber, hopf-check and
# morphism-check keeps its nearest unpaired eigenvalues well past the cut,
# and every spatial Gram its eigenvalues well on either side of the rank cut
MARGIN_BUNDLES = {
    "pair2": ["gen-groupoid", "--pair", "2"],
    "pair3": ["gen-groupoid", "--pair", "3"],
    "z3": ["gen-group", "--order", "3"],
    "z4": ["gen-group", "--order", "4"],
    "random_321": ["gen-random-base", "--blocks", "3,2,1", "--seed", "5",
                   "--mult-left", "2", "--mult-right", "2"],
}


@pytest.mark.parametrize("name", sorted(MARGIN_BUNDLES))
def test_eigen_match_margins_are_wide(name, tmp_path, monkeypatch, capsys):
    margins, spectra = [], []
    original = linalg.eigen_match

    def recording(*args, **kwargs):
        match = original(*args, **kwargs)
        margins.append(match[-1])
        return match

    def solving(gram, tol):
        spectra.append((np.linalg.eigvalsh(0.5 * (gram + dagger(gram))), tol))
        return linalg.null_rows(gram, tol)

    for module in (linalg, fiber):
        monkeypatch.setattr(module, "eigen_match", recording)
    monkeypatch.setattr(fiber, "null_rows", solving)
    path = str(tmp_path / "bundle.json")
    assert cli.main(MARGIN_BUNDLES[name] + ["--out", path]) == 0
    ctx = cli.BundleContext(path, DEFAULT_TOL)
    assert cli.certify_fiber(ctx).ok
    if "hopf" in ctx.doc:
        cli.certify_hopf(ctx)
        cli.certify_morphism(ctx)
    assert margins and min(margins) >= 100
    assert spectra
    for w, tol in spectra:
        n = w.size
        if w[-1] <= tol.rank_cut(1.0, n, n):  # carries no constraint
            continue
        cut = tol.rank_cut(w[-1], n, n)
        assert np.max(np.abs(w[w <= cut])) <= 1e-4 * cut
        assert np.min(w[w > cut]) >= 1e4 * cut


def fiber_command_case(bundle):
    """The fiber command's spatial product: the operator square and the
    algebras generated by the two actions."""
    _, cs = spaces(bundle)
    return (cs, *leg_algebras(bundle))


def hopf_case(gpd):
    """hopf-check's and morphism-check's spatial product: the arrow
    algebra on both legs of the operator square."""
    h = groupoid_hopf(gpd)
    return h["cstar_space"], h["algebra"], h["algebra"]


def rotated_case(gpd, seed):
    """A groupoid bundle whose two actions are conjugated by two seeded Haar
    unitaries, with factorizations linked to them: the same bundle up to
    unitaries, without the sparsity of the groupoid's basis."""
    bundle = groupoid_bundle(gpd)
    gen = rng(seed)
    w, v = (random_unitary(bundle["rho"].shape[1], gen) for _ in range(2))
    return fiber_command_case(linked_data(
        bundle["triple"], w @ bundle["rho"] @ dagger(w),
        v @ bundle["sigma"] @ dagger(v)))


def partner_case(bundle, count):
    """The operator square with the algebras generated by the last count
    members of each action."""
    _, cs = spaces(bundle)
    return (cs, *(algebra_from_generators(rep.shape[1], rep[len(rep) - count:])
                  for rep in (bundle["rho"], bundle["sigma"])))


GROUPOIDS = {"pair2": lambda: FiniteGroupoid.pair(2),
             "pair3": lambda: FiniteGroupoid.pair(3),
             "z3": lambda: FiniteGroupoid.cyclic(3),
             "z4": lambda: FiniteGroupoid.cyclic(4)}
LEMMA_CASES = {
    **{f"{name}-fiber": lambda name=name: fiber_command_case(
        groupoid_bundle(GROUPOIDS[name]())) for name in GROUPOIDS},
    **{f"{name}-hopf": lambda name=name: hopf_case(GROUPOIDS[name]())
       for name in GROUPOIDS},
    # the random bases of tools/parity.py
    "blocks-3,2,1-seed-1": lambda: fiber_command_case(
        linked_bundle([3, 2, 1], 1, 1, 1)),
    "blocks-3,2,1-seed-2-mult-2": lambda: fiber_command_case(
        linked_bundle([3, 2, 1], 2, 2, 2)),
    "blocks-4,2,1-seed-3": lambda: fiber_command_case(
        linked_bundle([4, 2, 1], 1, 1, 3)),
    "pair2-rotated": lambda: rotated_case(FiniteGroupoid.pair(2), 41),
    "z3-rotated": lambda: rotated_case(FiniteGroupoid.cyclic(3), 43),
    # partner algebras without the base action break the premise S*S in C
    "pair3-scalar-partners": lambda: partner_case(
        groupoid_bundle(FiniteGroupoid.pair(3)), 0),
    "blocks-2,1-mult-2-one-generator": lambda: partner_case(
        linked_bundle([2, 1], 2, 2, 2), 1),
    **{f"linked-{blocks}-{ml}x{mr}-seed-{seed}": (
        lambda blocks=blocks, ml=ml, mr=mr, seed=seed: fiber_command_case(
            linked_bundle([int(b) for b in blocks.split(",")], ml, mr, seed)))
       for blocks, ml, mr, seed in [("2,1", 3, 1, 0), ("2,1", 1, 3, 1),
                                    ("2,1", 3, 3, 2), ("1,1", 3, 2, 3),
                                    ("2", 3, 2, 4), ("3,1", 2, 3, 5)]},
}


@pytest.mark.parametrize("case", sorted(LEMMA_CASES))
def test_forward_keep_rows_give_the_adjoint_solve(case):
    """The lemma on the spatial product: the forward keep rows alone give
    the algebra that the forward and adjoint rows gave, and its members'
    adjoints keep every insertion in S."""
    space, left, right = LEMMA_CASES[case]()
    product = fiber_spatial(space, left, right)
    reference = adjoint_fiber_spatial(space, left, right)
    assert product.dim == reference.dim
    assert subspace_residual(product.subspace, reference) <= 1e-12
    forward, adjoint = keep_gaps(space, left, right, product.subspace.stack)
    assert forward <= 1e-12 and adjoint <= 1e-12


@pytest.mark.parametrize("case", ["blocks-3,2,1-seed-2-mult-2",
                                  "pair3-fiber", "pair3-hopf", "z3-fiber"])
def test_spatial_gram_is_the_keep_rows_gram(case, monkeypatch):
    """fiber_spatial hands null_rows the Gram sum_k R_k* R_k of its forward
    keep rows, R_k = (1 - P_S) T k in the unknowns T[a_p, b_p] of its
    eigenbasis, over every leg's kets k, without forming any R_k.  On the
    hopf case eigenspaces are paired with several others, so the Kronecker
    delta of the closed form is not the identity."""
    space, left, right = LEMMA_CASES[case]()
    seen = {}

    def matching(*args):
        seen["match"] = linalg.eigen_match(*args)
        return seen["match"]

    def solving(gram, *args):
        seen["gram"] = gram.copy()
        return linalg.null_rows(gram, *args)

    monkeypatch.setattr(fiber, "eigen_match", matching)
    monkeypatch.setattr(fiber, "null_rows", solving)
    fiber_spatial(space, left, right)
    u, _, a, b, _ = seen["match"]
    expected = sum(dagger(r) @ r
                   for kets, basis in spatial_legs(space, left, right)
                   for r in _keep_rows(dagger(u) @ kets, dagger(u) @ basis,
                                       a, b))
    assert mat_norm(seen["gram"] - expected) <= 1e-12 * mat_norm(expected)


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_kept_intertwiners_carry_the_target_factorization_back(name):
    """The lemma on criterion two: every intertwiner V that carries the
    source factorization into the target one has V* carrying the target
    one back, on both insertion morphisms of hopf-check."""
    h = groupoid_hopf(GROUPOIDS[name]())
    space, arrow, delta = h["cstar_space"], h["algebra"], h["delta_cstar"]
    product = fiber_spatial(space, arrow, arrow)
    alpha, beta = space.meta["left_fact"], space.meta["right_fact"]
    inter = intertwiner_space(delta, arrow)
    for source, target in (
            (alpha, ket_factorization(space, alpha, alpha, leg=0,
                                      flipped=False)),
            (beta, ket_factorization(space, beta, beta, leg=1,
                                     flipped=True))):
        assert is_morphism(delta, arrow, source, product, target).ok
        carried = inter[:, None] @ source.subspace.stack[None]
        good = fiber._kept(target.subspace, carried, DEFAULT_TOL.check)
        assert good.any()
        back = dagger(inter[good])[:, None] @ target.subspace.stack[None]
        assert source.subspace.residual(
            back.reshape(-1, *back.shape[2:])) <= 1e-12


def conjugated_stack(mats, seed):
    """Encoded matrices conjugated by one seeded Haar unitary."""
    u = random_unitary(mats[0]["rows"], rng(seed))
    return [encode_matrix(u @ decode_matrix(m) @ dagger(u)) for m in mats]


# (bundle, conjugated section) -> command -> (exit code, failing checks),
# as the forward and adjoint conditions together decided them; an input
# error names its path instead.  The conjugated reps.sigma generates a
# partner algebra that no longer holds the base action, the conjugated arrow
# algebra no longer holds Delta's images or the base action.
PAIR_SIGMA = {"fiber": (1, ["transport"]), "morphism-check": (0, []),
              "hopf-check": (2, "hopf.state.classes")}
ARROW = {"fiber": (0, []),
         "morphism-check": (1, ["is_morphism", "preconditions"])}
HOPF_ARROW = ["operator_hom_lands_in_target",
              "operator_left_insertions_morphism",
              "operator_right_insertions_morphism", "state_coassociative",
              "state_hom_lands_in_target"]
PAIR_HOPF_ARROW = sorted(HOPF_ARROW + [
    "state_actions_inside_algebra", "state_left_action_leg",
    "state_right_action_leg"])
# a group's sigma is the one unit's identity, which conjugation keeps
HAAR_CONJUGATED = {
    ("pair2", "sigma"): PAIR_SIGMA,
    ("pair3", "sigma"): PAIR_SIGMA,
    ("pair2", "arrow"): {**ARROW, "hopf-check": (1, PAIR_HOPF_ARROW)},
    ("pair3", "arrow"): {**ARROW, "hopf-check": (1, PAIR_HOPF_ARROW)},
    ("z3", "arrow"): {**ARROW, "hopf-check": (1, HOPF_ARROW)},
    ("z4", "arrow"): {**ARROW, "hopf-check": (1, HOPF_ARROW)},
}


@pytest.mark.parametrize("name,section", sorted(HAAR_CONJUGATED))
def test_haar_conjugated_bundles_keep_their_outcomes(tmp_path, name,
                                                     section):
    """Bundles that break the lemma's premises: the exit codes and failing
    checks of fiber, morphism-check and hopf-check are those of the solve
    with the adjoint conditions."""
    path = tmp_path / "bundle.json"
    args = ["--pair", name[4:]] if name.startswith("pair") \
        else ["--order", name[1:]]
    gen = "gen-groupoid" if name.startswith("pair") else "gen-group"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([gen, *args, "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    if section == "sigma":
        doc["reps"]["sigma"] = conjugated_stack(doc["reps"]["sigma"], 2301)
    else:
        algebra = doc["arrow_algebra"]
        algebra["generators"] = conjugated_stack(algebra["generators"], 2302)
    path.write_text(json.dumps(doc))
    for command, (code, expected) in HAAR_CONJUGATED[name, section].items():
        out = tmp_path / f"{command}.json"
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert cli.main([command, "--in", str(path), "--out",
                             str(out)]) == code, command
        if code == 2:
            assert f"error: {expected}: " in printed.getvalue()
            continue
        checks = json.loads(out.read_text())["checks"]
        assert sorted(c["axiom"] for c in checks if c["residual"] is None
                      or c["residual"] > c["threshold"]) == expected, command
