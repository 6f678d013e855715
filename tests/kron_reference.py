"""Kron-matrix and per-element references for what the library now computes
without forming kron products or looping over elements, and the solves it
made before dropping conditions that others imply; tests compare the library
against these, and the one-shot spans that now grow by their new rows."""
import numpy as np

from qgw.errors import PreconditionError
from qgw.fiber import intertwiner_space
from qgw.linalg import DEFAULT_TOL, OperatorSubspace, QuotientRealization, \
    dagger, eigen_match, from_pairs, intersect_null_spaces, mat_norm, \
    stack_norms
from qgw.rtensor import balanced_support, gram_from_r_stacks, insertions, \
    nest_left, rtp_state
from qgw.staralg import StarAlgebra


def svd_rows(a, tol=DEFAULT_TOL):
    """Orthonormal rows spanning the rows of a, as first read: one SVD of
    the whole matrix, cut by the rank rule on its singular values."""
    if a.size == 0:
        return np.zeros((0, a.shape[1]), dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((0, a.shape[1]), dtype=complex)
    return vh[s > tol.rank_cut(s[0], *a.shape)]


def svd_span(mats, m, n, tol=DEFAULT_TOL):
    """span of a stack (k, m, n) through svd_rows."""
    mats = np.asarray(mats, dtype=complex).reshape(-1, m * n)
    return OperatorSubspace(m, n, svd_rows(mats, tol).reshape(-1, m, n))


def svd_algebra_from_generators(n, generators, tol=DEFAULT_TOL):
    """algebra_from_generators as first grown: each round one SVD of the
    basis stacked on all k^2 products of its members."""
    mats = [np.eye(n)] + [x for g in generators for x in (g, dagger(g))]
    current = svd_span(mats, n, n, tol)
    while True:
        stack = current.stack
        grown = np.concatenate([stack, (stack[:, None] @ stack[None])
                                .reshape(-1, n, n)])
        nxt = svd_span(grown, n, n, tol)
        if nxt.dim == current.dim:
            return StarAlgebra(n, nxt, tol)
        current = nxt


def svd_products_span(fact):
    """The span of a factorization's inner products x_i* x_j, read by one
    SVD of all of them."""
    xs, n = fact.subspace.stack, fact.base.space_dim
    return svd_span(dagger(xs)[:, None] @ xs[None], n, n, fact.tol)


def svd_insertion_span(kets, tails, tol=DEFAULT_TOL):
    """rtensor.insertion_span by one SVD of every product k t."""
    q, n = kets.shape[1], tails.shape[2]
    return svd_span(kets[:, None] @ tails[None], q, n, tol)


def identity_frame(*dims) -> dict:
    """The frame keywords of a quotient over C^dims whose legs are the
    identities and whose support is every column."""
    return {"plain_dims": dims, "legs": [np.eye(d) for d in dims],
            "cols": np.arange(int(np.prod(dims)))}


class GramQuotient:
    """The quotient of a PSD Gram given in full on C^N, in plain
    coordinates, as QuotientRealization first realized it: the Gram kept,
    its eigenvalues lam above the cut eps lam_max N, class_map = sqrt(lam)
    U_k* and section = class_map* / lam."""

    def __init__(self, gram, tol=DEFAULT_TOL):
        self.gram = 0.5 * (gram + dagger(gram))
        w, u = np.linalg.eigh(self.gram)
        self.plain_dim = n = len(gram)
        keep = w > max(tol.rank_cut(np.max(w, initial=0.0), n, n), 0.0)
        self.lam, self.dim = w[keep], int(np.sum(keep))
        self.class_map = (u[:, keep] * np.sqrt(self.lam)).conj().T
        self.section = dagger(self.class_map) / self.lam


def frame_unitary(space) -> np.ndarray:
    """The kron of a framed space's leg unitaries: its frame, formed on the
    plain product."""
    out = np.eye(1)
    for u in space.legs:
        out = np.kron(out, u)
    return out


def frame_matrix(space) -> np.ndarray:
    """The support W of a framed space, formed on the plain product."""
    return frame_unitary(space)[:, space.cols]


def plain_class_map(space) -> np.ndarray:
    """A space's class map on the plain product: core W* with W from
    frame_matrix."""
    return space.core @ dagger(frame_matrix(space))


def rows_class_map(inner, pair, bracket):
    """(class_map, lam) of nest_left(inner, pair) or nest_right by the
    dense route first taken: eigh of the r x r Gram C C* = P (Lambda x 1)
    P* of the factor C = P m (P = pair.class_map, m = the inner class map
    on its leg, Lambda = diag(inner.lam)), the kept eigenvectors mapped
    through C row by row on the whole plain cube."""
    left = bracket == "left"
    p = pair.class_map.reshape((pair.dim,) + pair.plain_dims)
    h = (p * (inner.lam[:, None] if left else inner.lam)).reshape(
        pair.dim, -1) @ dagger(pair.class_map)
    n = inner.plain_dim * pair.plain_dims[int(left)]

    def rows(x):
        top = (x @ pair.class_map).reshape((len(x),) + pair.plain_dims)
        if left:
            return np.tensordot(top, inner.class_map, axes=(1, 0)).swapaxes(
                1, 2).reshape(len(x), n)
        return (top @ inner.class_map).reshape(len(x), n)

    ref = QuotientRealization(factor=(h, rows), tol=inner.tol,
                              **identity_frame(n))
    return ref.class_map, ref.lam


def unitary_gap(a: np.ndarray, b: np.ndarray) -> float:
    """How far two class maps of one quotient are from a = T b for the
    unitary T = a b* / lam_b that eigenspaces of equal lam leave free: the
    larger of |T* T - 1| and |T b - a|."""
    t = a @ dagger(b) / np.linalg.norm(b, axis=1) ** 2
    return max(mat_norm(dagger(t) @ t - np.eye(len(t))),
               mat_norm(t @ b - a))


def mul_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of T -> a T b acting on row-major vec(T)."""
    return np.kron(a, b.T)


def commutator_operator(x: np.ndarray) -> np.ndarray:
    """Matrix of T -> xT - Tx on vec(T)."""
    n = x.shape[0]
    eye = np.eye(n)
    return np.kron(x, eye) - np.kron(eye, x.T)


def kron_inner_map(inner, pair, bracket) -> np.ndarray:
    """The inner class map of nest_left(inner, pair) or nest_right kron'd
    onto its leg of the pair space."""
    if bracket == "left":
        return np.kron(inner.class_map, np.eye(pair.plain_dims[1]))
    return np.kron(np.eye(pair.plain_dims[0]), inner.class_map)


def kron_nested_gram(inner, pair, bracket) -> np.ndarray:
    """Gram of nest_left(inner, pair) or nest_right formed on the plain
    product as m* G_pair m, with m from kron_inner_map and G_pair = P* P
    for P = plain_class_map(pair)."""
    m = kron_inner_map(inner, pair, bracket)
    p = plain_class_map(pair)
    return m.conj().T @ dagger(p) @ p @ m


def kron_nested_factor(inner, pair, bracket) -> np.ndarray:
    """Factor pair.class_map . m of nest_left(inner, pair) or nest_right,
    with m from kron_inner_map."""
    return pair.class_map @ kron_inner_map(inner, pair, bracket)


def svd_quotient(factor, tol):
    """(class_map, section) of the quotient of C*C read through the thin
    SVD of the factor C, with the rank rule on sigma^2 for N unknowns, as
    first done: class_map = S_k V_k*, section = V_k / S_k."""
    _, s, vh = np.linalg.svd(factor, full_matrices=False)
    n = factor.shape[1]
    keep = s ** 2 > tol.rank_cut(np.max(s, initial=0.0) ** 2, n, n)
    return s[keep, None] * vh[keep], vh[keep].conj().T / s[keep]


def balanced_gap(space, central):
    """(matched pairs, plain dimension, relative gaps) of a space built with
    its reconstruction stacks kept: the gaps of W G_m W*, from
    balanced_support under the central actions given, and of the space's
    class_map* class_map to the full Gram formed on the plain product."""
    rh, rk = space.meta["r_stacks"]
    full = gram_from_r_stacks(rh, rk)
    u, v, a, b, g = balanced_support(rh, rk, *central, space.tol)
    w = (u[:, None, a] * v[None, :, b]).reshape(-1, a.size)
    cm = space.class_map
    return w.shape[1], len(full), [
        mat_norm(x - full) / mat_norm(full)
        for x in (w @ g @ dagger(w), dagger(cm) @ cm)]


def kron_connectors(src, dst, left, right):
    """Connecting maps as first built: the plain tensor product of every
    pair of leg maps, after dst's class map on the plain product and read
    in src's frame, descended one pair at a time.  Returns (stack, worst
    residual)."""
    mats, worst = [], 0.0
    cm = plain_class_map(dst)
    frame = frame_unitary(src)
    for x in left:
        for y in right:
            mat, res = src.descend([cm @ np.kron(x, y) @ frame])
            mats.append(mat)
            worst = max(worst, res)
    return np.stack(mats), worst


def pinv_images(connectors, images):
    """Per-element solve of Z W_k = W_k S over the stacked connectors, as
    first done.  Returns (stack of Z, worst relative residual)."""
    columns = np.concatenate(list(connectors), axis=1)
    pinv = np.linalg.pinv(columns)
    out, worst = [], 0.0
    for s in images:
        moved = np.concatenate([w @ s for w in connectors], axis=1)
        z = moved @ pinv
        worst = max(worst, np.linalg.norm(z @ columns - moved)
                    / max(1.0, np.linalg.norm(moved)))
        out.append(z)
    return np.stack(out), worst


def stacked_fiber_morphism(source_space, target_space, legs, images):
    """fiber_morphism as solved on the whole connector stack: the columns
    [W_k]_k (q_to x k q_from), their pseudo-inverse from eigh of the Gram,
    and a full-width [W_k S_m]_k and residual per image.  Returns (stack of
    Z_m, worst residual)."""
    conn, worst = source_space.lift(legs, require=False, into=target_space)
    k, q_to, q_from = conn.shape
    columns = conn.transpose(1, 0, 2).reshape(q_to, k * q_from)
    lam, u = np.linalg.eigh(columns @ dagger(columns))
    pinv = dagger(columns) @ (u / lam) @ dagger(u)
    z = np.empty((len(images), q_to, q_to), dtype=complex)
    for m, image in enumerate(images):
        moved = (columns.reshape(-1, q_from) @ image).reshape(q_to, -1)
        z[m] = moved @ pinv
        res = mat_norm(z[m] @ columns - moved) / max(1.0, mat_norm(moved))
        worst = max(worst, res)
    return z, worst


def stacked_coassociativity_residual(space, algebra, delta):
    """hopf._coassociativity_residual as compared on whole image stacks:
    both extensions solved for every image at once (stacked_fiber_morphism)
    and their gap read from first - last.  Infinity when no extension
    exists."""
    meta = space.meta
    inner_rho, _ = space.lift([None, meta["rho_stack"]], require=False)
    try:
        pair = rtp_state(meta["triple"], inner_rho, meta["sigma_stack"])
        inter = intertwiner_space(delta, algebra, space.tol)
    except PreconditionError:
        return float("inf")
    if inter.shape[0] == 0:
        return float("inf")
    big = nest_left(space, pair)
    plain = space.section @ inter
    (first, r1), (last, r2) = (stacked_fiber_morphism(space, big, legs, delta)
                               for legs in ([plain, None], [None, plain]))
    gap = stack_norms(first - last) / np.maximum(1.0, stack_norms(first))
    return max(r1, r2, float(np.max(gap)))


def _keep_rows(kets, basis, a, b):
    """Rows in the unknowns T[a_p, b_p] of (1 - P_S)(T k), yielded one ket
    k at a time, S spanned by the orthonormal basis: T[a_p, b_p] sends k to
    e_(a_p) (x) k[b_p], whose part along s_j is <s_j[a_p], k[b_p]>.  Their
    Gram is what fiber_spatial writes down in closed form."""
    p, flat = np.arange(a.size), basis.reshape(len(basis), -1)
    picked = basis[:, a].conj()
    for ket in kets:
        rows = ket[b]
        along = np.einsum("jpn,pn->pj", picked, rows)
        moved = (-along @ flat).reshape((a.size,) + ket.shape)
        moved[p, a] += rows
        yield moved.reshape(a.size, -1).T


def spatial_legs(space, left_alg, right_alg):
    """(insertion kets, orthonormal basis of S) per leg, as fiber_spatial
    forms them: S spans the kets composed with the other leg's algebra."""
    q, legs = space.dim, []
    for leg, fact, partners in ((0, space.meta["left_fact"], right_alg),
                                (1, space.meta["right_fact"], left_alg)):
        kets = insertions(space, fact.subspace.stack, leg)
        legs.append((kets, svd_insertion_span(
            kets, partners.subspace.stack, space.tol).stack))
    return legs


def adjoint_fiber_spatial(space, left_alg, right_alg):
    """fiber_spatial as solved before the lemma: besides the forward keep
    rows (1 - P_S) T k = 0, the conjugated rows with the pairs (a, b)
    swapped, which say that T* keeps k in S; four families in all.
    Returns the algebra's basis as an OperatorSubspace."""
    q, tol = space.dim, space.tol
    legs = spatial_legs(space, left_alg, right_alg)

    def frames(draw):
        frame = np.zeros((q, q), dtype=complex)
        for _, basis in legs:
            z = draw((basis.shape[2],) * 2)
            frame += np.sum(basis @ (z + dagger(z)) @ dagger(basis), axis=0)
        return frame, frame

    u, _, a, b, _ = eigen_match(frames, tol)

    def rows():
        for kets, basis in legs:
            kets, basis = dagger(u) @ kets, dagger(u) @ basis
            yield from _keep_rows(kets, basis, a, b)
            yield from (r.conj() for r in _keep_rows(kets, basis, b, a))

    stack = from_pairs(intersect_null_spaces(rows(), a.size, tol), u, u, a, b)
    return OperatorSubspace(q, q, stack)


def keep_gaps(space, left_alg, right_alg, mats):
    """(forward, adjoint): the largest |(1 - P_S) T k| and |(1 - P_S) T* k|
    over the matrices T of a stack and every leg's insertions k."""
    q, gaps = space.dim, [0.0, 0.0]
    for kets, basis in spatial_legs(space, left_alg, right_alg):
        sub = OperatorSubspace(q, kets.shape[2], basis)
        for i, ts in enumerate((mats, dagger(mats))):
            moved = ts[:, None] @ kets[None]
            gaps[i] = max(gaps[i], sub.residual(moved.reshape(-1, q,
                                                              kets.shape[2])))
    return tuple(gaps)
