"""Dense linear-algebra substrate.

Everything downstream treats complex matrices as numpy arrays and subspaces of
matrices as orthonormal stacks under the Hilbert-Schmidt inner product.  Rank
decisions follow one tolerant rule everywhere: a singular value counts iff

    sigma > eps * sigma_max * max(rows, cols).

QuotientRealization and null_rows apply it to Gram eigenvalues (sigma^2).

Checks report residual norms; callers compare against explicit thresholds.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, PreconditionError


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy: one knob, derived thresholds.

    eps drives rank cuts; invariant checks gate at 10*eps and the pentagon
    comparison at 100*eps, reflecting how many products each residual passes
    through.  Input guards follow it: Hermitian defects of Grams at 1000*eps
    (densities 10*eps), eigenvalues of Grams down to -10*eps (others -eps/10).
    """

    eps: float = 1e-9

    @property
    def check(self) -> float:
        return 10.0 * self.eps

    @property
    def pentagon(self) -> float:
        return 100.0 * self.eps

    def rank_cut(self, sigma_max: float, rows: int, cols: int) -> float:
        return self.eps * sigma_max * max(rows, cols)


DEFAULT_TOL = Tolerance()


def as_complex(a) -> np.ndarray:
    out = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix has non-finite entries")
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix for a stack."""
    return np.conj(np.swapaxes(a, -1, -2))


def mat_norm(a: np.ndarray) -> float:
    """Frobenius norm; the reported residual norm throughout."""
    return float(np.linalg.norm(a))


def worst_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm over the trailing matrix axes; 0 when empty."""
    return float(np.max(np.linalg.norm(stack, axis=(-2, -1)), initial=0.0))


def stack_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, read through a real view so
    that no temporary of the stack's size is formed."""
    flat = np.ascontiguousarray(stack).view(float)
    flat = flat.reshape(len(flat), int(np.prod(flat.shape[1:])))
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def unitary_residual(u: np.ndarray) -> float:
    n, m = u.shape
    r1 = mat_norm(dagger(u) @ u - np.eye(m))
    r2 = mat_norm(u @ dagger(u) - np.eye(n))
    return max(r1, r2)


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition a = u |a|."""
    w, _, vh = np.linalg.svd(a)
    return w @ vh


class AntilinearMap:
    """Antilinear operator v -> K conj(v), stored through its matrix K.

    Composition rules (all derivable from the action):
      square             is the linear map K conj(K)
      J A J (A linear)   is the linear map K conj(A) conj(K)
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = as_complex(matrix)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise DimensionError("antilinear map must be square here")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ np.conj(v)

    def square(self) -> np.ndarray:
        """Matrix of the (linear) composition with itself."""
        return self.matrix @ np.conj(self.matrix)

    def involution_residual(self) -> float:
        return mat_norm(self.square() - np.eye(self.dim))

    def antiunitary_residual(self) -> float:
        return unitary_residual(self.matrix)

    def sandwich(self, a: np.ndarray) -> np.ndarray:
        """Matrix of the linear map self . a . self for linear a."""
        return self.matrix @ np.conj(a) @ np.conj(self.matrix)

    def polar_part(self) -> "AntilinearMap":
        """Antiunitary factor: for v -> K conj(v), the map u conj(v) with
        u the unitary polar factor of K."""
        return AntilinearMap(polar_unitary(self.matrix))

    def positive_part(self) -> np.ndarray:
        """The positive linear operator T*T (T this map)."""
        return self.matrix.T @ np.conj(self.matrix)


def rank(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_cut(s[0], a.shape[0], a.shape[1])))


def orthonormal_rows(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the row space of a, as rows, via SVD."""
    if a.size == 0:
        return np.zeros((0, a.shape[1]), dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, a.shape[1]), dtype=complex)
    r = int(np.sum(s > tol.rank_cut(s[0], a.shape[0], a.shape[1])))
    return vh[:r]


class OperatorSubspace:
    """Subspace of complex (m x n) matrices with an HS-orthonormal basis.

    stack has shape (k, m, n); the flattened rows are orthonormal in C^(m*n).
    """

    def __init__(self, codomain_dim: int, domain_dim: int, stack: np.ndarray):
        stack = as_complex(stack)
        if stack.ndim != 3 or stack.shape[1:] != (codomain_dim, domain_dim):
            raise DimensionError(
                f"stack shape {stack.shape} does not match "
                f"({codomain_dim}, {domain_dim}) matrices"
            )
        self.codomain_dim = int(codomain_dim)
        self.domain_dim = int(domain_dim)
        self.stack = stack

    @property
    def dim(self) -> int:
        return self.stack.shape[0]

    def flat(self) -> np.ndarray:
        return self.stack.reshape(self.dim, self.codomain_dim * self.domain_dim)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """HS coordinates of x in the orthonormal basis; a row of them per
        matrix for a stack."""
        x = as_complex(x)
        return (self.flat().conj() @ x.reshape(x.shape[:-2] + (-1, 1)))[..., 0]

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        """Element with the given coordinates; a stack for stacked rows."""
        coeffs = np.asarray(coeffs, dtype=complex)
        return (coeffs @ self.flat()).reshape(
            coeffs.shape[:-1] + (self.codomain_dim, self.domain_dim)
        )

    def residual(self, x: np.ndarray) -> float:
        """Distance from x to the subspace; for a stack, the largest one."""
        flat = as_complex(x).reshape(-1, self.codomain_dim * self.domain_dim)
        gap = flat - flat @ self.flat().conj().T @ self.flat()
        return worst_norm(gap[:, None])

    def matrices(self):
        return [self.stack[i] for i in range(self.dim)]


def span(
    mats, codomain_dim: int | None = None, domain_dim: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> OperatorSubspace:
    """HS-orthonormal span of a stack (k, m, n) of matrices; a list of
    equal-shaped matrices is read as one.  An empty family needs explicit
    dimensions."""
    try:
        stack = as_complex(mats)
    except ValueError:
        raise DimensionError("span of matrices with mixed shapes")
    if stack.size == 0 and stack.ndim != 3:
        if codomain_dim is None or domain_dim is None:
            raise DimensionError("empty span needs explicit dimensions")
        stack = stack.reshape(0, codomain_dim, domain_dim)
    if stack.ndim != 3:
        raise DimensionError(f"span needs a stack of matrices, got {stack.shape}")
    k, m, n = stack.shape
    basis = orthonormal_rows(stack.reshape(k, m * n), tol)
    return OperatorSubspace(m, n, basis.reshape(-1, m, n))


def subspace_residual(a: OperatorSubspace, b: OperatorSubspace) -> float:
    """max distance of a unit basis vector of either space to the other."""
    if (a.codomain_dim, a.domain_dim) != (b.codomain_dim, b.domain_dim):
        raise DimensionError("comparing subspaces of different matrix shapes")
    return max(b.residual(a.stack), a.residual(b.stack))


def subspace_equal(
    a: OperatorSubspace, b: OperatorSubspace, threshold: float
) -> bool:
    return a.dim == b.dim and subspace_residual(a, b) <= threshold


def intersect_null_spaces(blocks, n_unknowns: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Common null space of a family of (m_i x n) constraint matrices.

    blocks is any iterable, consumed once, so a generator keeps one block
    alive at a time.  Accumulates M = sum |block|^2 and reads the null space
    with null_rows.  Returns an orthonormal basis as rows (k, n).
    """
    m = np.zeros((n_unknowns, n_unknowns), dtype=complex)
    for b in blocks:
        b = as_complex(b)
        if b.shape[1] != n_unknowns:
            raise DimensionError("constraint block has wrong number of columns")
        m += dagger(b) @ b
    return null_rows(m, tol)


def null_rows(gram: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Null space of a constraint Gram M = sum C_i* C_i, as orthonormal rows.
    Squaring costs half the precision, so the rank rule is applied to M's
    eigenvalues themselves, not their square roots."""
    n_unknowns = gram.shape[0]
    w, v = np.linalg.eigh(0.5 * (gram + dagger(gram)))
    lam_max = float(w[-1]) if w.size else 0.0
    # constraint data is normalized to O(1) scale throughout the package, so
    # a system whose largest eigenvalue is under the cut of a unit-scale one
    # carries no constraint at all (a closed-form Gram keeps the round-off
    # of its O(1) terms, so its noise is not squared)
    if lam_max <= tol.rank_cut(1.0, n_unknowns, n_unknowns):
        return np.eye(n_unknowns, dtype=complex)
    keep = w <= tol.rank_cut(lam_max, n_unknowns, n_unknowns)
    return v[:, keep].T


def exchange_gram(t: np.ndarray, s: np.ndarray, u: np.ndarray, v: np.ndarray,
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram sum C_i* C_i of the constraints C_i vec(T) = vec(t_i T - T s_i)
    on the unknowns T[a_p, b_p] alone, t_i and s_i read in the unitary
    frames u and v (t_i -> u* t_i u, s_i -> v* s_i v): entry [p, r] is
    d(a_p, a_r) B[b_p, b_r] + A[a_p, a_r] d(b_p, b_r) - X[p, r] -
    conj(X[r, p]), d the Kronecker delta, A = sum t_i* t_i, B = sum
    conj(s_i) s_i^T, X[p, r] = sum t_i[a_p, a_r] conj(s_i[b_p, b_r]),
    accumulated (and rotated) one member at a time."""
    ai, aj, bi, bj = a[:, None], a[None], b[:, None], b[None]
    x = np.zeros((a.size, a.size), dtype=complex)
    a_sum = np.zeros(t.shape[1:], dtype=complex)
    b_sum = np.zeros(s.shape[1:], dtype=complex)
    for ti, si in zip(t, s):
        ti, si = dagger(u) @ ti @ u, dagger(v) @ si @ v
        x += ti[ai, aj] * si[bi, bj].conj()
        a_sum += ti.conj().T @ ti
        b_sum += si.conj() @ si.T
    return (ai == aj) * b_sum[bi, bj] + a_sum[ai, aj] * (bi == bj) - x \
        - dagger(x)


def eigen_match(hermitian_pair, tol: Tolerance = DEFAULT_TOL):
    """Eigenvectors of (h_t, h_s) = hermitian_pair(draw), paired where their
    eigenvalues agree to within 1000 eps of the spectral scale: a generous
    cut, since pairing too much only adds unknowns while splitting an
    eigenspace loses solutions.  draw(shape) returns complex standard normal
    samples; of the draws seeded 0, 1 and 2 the one whose nearest unpaired
    eigenvalues lie farthest apart is kept.  Returns (u, v, a, b, margin):
    eigenvectors as columns, the pairs (u_a, v_b), and the smallest
    unpaired difference over the cut."""
    best = None
    for seed in range(3):
        # the stdlib generator: importing numpy.random would add its import
        # time to every check command
        gen = random.Random(seed)

        def draw(shape):
            return np.array([complex(gen.gauss(0, 1), gen.gauss(0, 1))
                             for _ in range(int(np.prod(shape)))]
                            ).reshape(shape)

        (lam, u), (mu, v) = (np.linalg.eigh(0.5 * (h + dagger(h)))
                             for h in hermitian_pair(draw))
        cut = 1e3 * tol.eps * np.max(np.abs(np.r_[lam, mu]), initial=1.0)
        diff = np.abs(lam[:, None] - mu[None])
        margin = float(np.min(diff[diff > cut], initial=np.inf) / cut)
        if best is None or margin > best[-1]:
            best = (u, v, *np.nonzero(diff <= cut), margin)
        if margin == np.inf:  # nothing unpaired: no draw can do better
            break
    return best


def star_closed_pair(t: np.ndarray, s: np.ndarray, star: np.ndarray):
    """hermitian_pair for eigen_match over families t and s *-closed under
    star (as in intertwiner_rows): their images of a drawn d closed under
    it."""
    def hermitian_pair(draw):
        c = draw(len(t))
        d = 0.5 * (c + star @ c.conj())
        return [np.tensordot(d, f, axes=1) for f in (t, s)]

    return hermitian_pair


def from_pairs(rows: np.ndarray, u: np.ndarray, v: np.ndarray,
               a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The maps u T v*, T holding one row at (a, b) and zero elsewhere."""
    mats = np.zeros((len(rows), u.shape[0], v.shape[0]), dtype=complex)
    mats[:, a, b] = rows
    return u @ mats @ dagger(v)


def intertwiner_rows(t: np.ndarray, s: np.ndarray, star: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning {T : t_i T = T s_i} in row-major vec(T).

    Precondition (PreconditionError otherwise): the family is *-closed,
    t_i* = sum_j star[j, i] t_j and likewise s_i*, as an algebra basis and
    its image under a *-homomorphism are.  A solution then intertwines the
    Hermitian h_t = sum d_i t_i and h_s = sum d_i s_i for d closed under the
    star, so it maps each eigenspace of h_s into the one of h_t with the
    same eigenvalue (eigen_match); only those entries are unknowns.
    """
    t, s, star = as_complex(t), as_complex(s), as_complex(star)
    gap = scale = 0.0
    for f in (t, s):
        # n members i at a time, conjugated in place: conj(sum_j star[j, i]
        # f_j) - f_i^T, whose norm is that of f_i* - sum_j star[j, i] f_j
        step = max(1, f.shape[-1])
        for i in range(0, len(f), step):
            diff = np.tensordot(star[:, i:i + step].T, f, axes=1)
            np.conjugate(diff, out=diff)
            diff -= np.swapaxes(f[i:i + step], -1, -2)
            gap = max(gap, np.max(stack_norms(diff), initial=0.0))
        scale = max(scale, np.max(stack_norms(f), initial=0.0))
    if gap > tol.check * max(1.0, scale):
        raise PreconditionError(f"family is not *-closed: residual {gap:.3e}")

    u, v, a, b, _ = eigen_match(star_closed_pair(t, s, star), tol)
    gram = exchange_gram(t, s, u, v, a, b)
    mats = from_pairs(null_rows(gram, tol), u, v, a, b)
    return mats.reshape(len(mats), u.shape[0] * v.shape[0])


def canonical_rows(rows: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal rows spanning what the orthonormal rows given span, read
    off the subspace alone: Gram-Schmidt, in index order, of the projections
    rows^T w_j of the unit vectors (w_j the columns of conj(rows))."""
    kept = np.zeros((len(rows), 0), dtype=complex)
    for w in rows.conj().T:
        for _ in range(2):
            w = w - kept @ (kept.conj().T @ w)
        if np.linalg.norm(w) > tol.rank_cut(1.0, *rows.shape):
            kept = np.column_stack([kept, w / np.linalg.norm(w)])
    return kept.T @ rows


class QuotientRealization:
    """Quotient of a semi-inner-product space realized in coordinates.

    C^N, N the product of plain_dims, carries the frame K = kron of the
    unitaries legs, one per leg; the PSD Gram G lives on its columns cols,
    W = K[:, cols] (N x m), and is read through eigh of h = U diag(w) U*:
    G = W h W*, or h = C C* for a factor C = C_m W* of G = C*C, given as
    (C C*, x -> x C_m).  Both keep G's eigenvalues lam (C's sigma^2) above
    the cut eps lam_max N; eigh of C C* is accurate to about r 1e-16
    lam_max, so it resolves that cut as well as an SVD of C would.  A
    quotient keeps lam and core = sqrt(lam) U_k*, or U_k* C_m, the class map
    on W; class_map = core W*, (class_map w)* (class_map w') = w* G w', and
    section = class_map* / lam, its right inverse onto supp(G), are formed
    when read.  The guards' readings are kept: hermitian_defect is |h - h*|
    before the Hermitization (0 for a factor), psd_defect is -lam_min /
    max(1, lam_max) when negative, else 0.
    """

    def __init__(self, gram: np.ndarray | None = None,
                 tol: Tolerance = DEFAULT_TOL, *, factor=None,
                 plain_dims: tuple, legs: list, cols: np.ndarray):
        if (gram is None) == (factor is None):
            raise DimensionError("give a gram or a factor, not both or neither")
        if factor is None:
            gram = as_complex(gram)
            if gram.shape != (len(cols),) * 2:
                raise DimensionError("gram must be square on the support")
            herm_defect = mat_norm(gram - dagger(gram))
            scale = max(1.0, mat_norm(gram))
            if herm_defect > tol.eps / 1e-3 * scale:
                raise NumericError(f"gram not Hermitian: defect {herm_defect:.3e}")
            w, u = np.linalg.eigh(0.5 * (gram + dagger(gram)))
            if w.size and float(w[0]) < -tol.check * max(1.0, float(w[-1])):
                raise NumericError(f"gram not PSD: min eigenvalue {w[0]:.3e}")
        else:
            h, apply = factor
            w, u = np.linalg.eigh(h)
            herm_defect = 0.0
        self.plain_dims = tuple(int(d) for d in plain_dims)
        self.plain_dim = int(np.prod(self.plain_dims))
        self.legs, self.cols = legs, cols
        lam_max = float(np.max(w, initial=0.0))
        self.hermitian_defect = herm_defect
        self.psd_defect = max(0.0, -float(np.min(w, initial=0.0))) / max(
            1.0, lam_max)
        keep = w > max(tol.rank_cut(lam_max, self.plain_dim, self.plain_dim), 0.0)
        self.lam = w[keep]
        self.dim = int(self.lam.size)
        if factor is not None:  # C_m = U S V*: U_k* C_m = S_k V_k*
            self.core = apply(dagger(u[:, keep]))
        else:
            self.core = (u[:, keep] * np.sqrt(self.lam)).conj().T
        self.tol = tol

    @functools.cached_property
    def class_map(self) -> np.ndarray:
        """core W*, W formed one leg at a time."""
        m = len(self.cols)
        w = functools.reduce(lambda w, f: (w[:, None] * f).reshape(-1, m), [
            u[:, i] for u, i in zip(
                self.legs, np.unravel_index(self.cols, self.plain_dims))])
        return self.core @ dagger(w)

    @property
    def section(self) -> np.ndarray:
        return dagger(self.class_map) / self.lam

    def frame_rows(self, mat: np.ndarray, lo: int = 0,
                   hi: int | None = None) -> np.ndarray:
        """(kron of legs[lo:hi])* mat, applied one leg at a time."""
        out, pre = mat, 1
        for d, u in zip(self.plain_dims[lo:hi], self.legs[lo:hi]):
            out, pre = dagger(u) @ out.reshape(pre, d, -1), pre * d
        return out.reshape(mat.shape)

    def descend(self, tops):
        """Descend a map whose composite with the destination's class map is
        top (k, N), read in this quotient's frame, out of this quotient;
        tops yields top in blocks of rows, consumed once, and each block's
        support columns are overwritten.  Returns (top[:, cols] core* /
        lam, residual): the well-definedness gap, failure to annihilate
        ker(G), on the support columns together with every column off them,
        normalized by the scale of top, never a difference of squares.
        """
        inverse = dagger(self.core) / self.lam
        mats, gap, scale = [], 0.0, 0.0
        for top in tops:
            scale += np.vdot(top, top).real
            mats.append(top[:, self.cols] @ inverse)
            top[:, self.cols] -= mats[-1] @ self.core
            gap += np.vdot(top, top).real
        return np.concatenate(mats), np.sqrt(gap) / max(1.0, np.sqrt(scale))


def induced_between(
    src: QuotientRealization, dst: QuotientRealization, plain_map: np.ndarray
):
    """Descend plain_map: plain(src) -> plain(dst) to class coordinates.

    Returns (matrix, residual); residual is the well-definedness defect,
    failure to annihilate ker(src's Gram), normalized by the map's scale.
    dst.class_map plain_map is moved into src's frame to descend.  With
    src = dst this descends an operator on one quotient.
    """
    plain_map = as_complex(plain_map)
    if plain_map.shape != (dst.plain_dim, src.plain_dim):
        raise DimensionError("plain map does not connect the two spaces")
    return src.descend([dagger(src.frame_rows(dagger(
        dst.class_map @ plain_map)))])


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
