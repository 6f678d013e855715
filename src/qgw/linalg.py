"""Dense linear-algebra substrate.

Everything downstream treats complex matrices as numpy arrays and subspaces of
matrices as orthonormal stacks under the Hilbert-Schmidt inner product.  Rank
decisions follow one tolerant rule everywhere: a singular value counts iff

    sigma > eps * sigma_max * max(rows, cols).

Checks report residual norms; callers compare against explicit thresholds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError


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
    return a.conj().T


def mat_norm(a: np.ndarray) -> float:
    """Frobenius norm; the reported residual norm throughout."""
    return float(np.linalg.norm(a))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a* b), conjugate-linear in a."""
    return complex(np.vdot(a, b))


def vec(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1)


def mul_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of T -> a T b acting on row-major vec(T)."""
    return np.kron(a, b.T)


def commutator_operator(x: np.ndarray) -> np.ndarray:
    """Matrix of T -> xT - Tx on vec(T)."""
    n = x.shape[0]
    eye = np.eye(n)
    return np.kron(x, eye) - np.kron(eye, x.T)


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
      adjoint            has matrix K^T
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

    def adjoint(self) -> "AntilinearMap":
        return AntilinearMap(self.matrix.T)

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


def column_space(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space, as columns."""
    return orthonormal_rows(a.T, tol).T  # rows of a.T = cols of a


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
        """HS coordinates of x in the orthonormal basis."""
        return self.flat().conj() @ vec(as_complex(x))

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return (np.asarray(coeffs, dtype=complex) @ self.flat()).reshape(
            self.codomain_dim, self.domain_dim
        )

    def residual(self, x: np.ndarray) -> float:
        """Distance from x to the subspace."""
        x = as_complex(x)
        return mat_norm(x - self.reconstruct(self.coefficients(x)))

    def contains(self, x: np.ndarray, threshold: float) -> bool:
        return self.residual(x) <= threshold * max(1.0, mat_norm(x))

    def matrices(self):
        return [self.stack[i] for i in range(self.dim)]


def span(
    mats, codomain_dim: int | None = None, domain_dim: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> OperatorSubspace:
    """HS-orthonormal span of a family of equal-shaped matrices."""
    mats = [as_complex(m) for m in mats]
    if not mats:
        if codomain_dim is None or domain_dim is None:
            raise DimensionError("empty span needs explicit dimensions")
        return OperatorSubspace(
            codomain_dim, domain_dim, np.zeros((0, codomain_dim, domain_dim))
        )
    m, n = mats[0].shape
    for x in mats:
        if x.shape != (m, n):
            raise DimensionError("span of matrices with mixed shapes")
    flat = np.stack([vec(x) for x in mats])
    basis = orthonormal_rows(flat, tol)
    return OperatorSubspace(m, n, basis.reshape(-1, m, n))


def subspace_residual(a: OperatorSubspace, b: OperatorSubspace) -> float:
    """max distance of a unit basis vector of either space to the other."""
    if (a.codomain_dim, a.domain_dim) != (b.codomain_dim, b.domain_dim):
        raise DimensionError("comparing subspaces of different matrix shapes")
    fa, fb = a.flat(), b.flat()
    res = 0.0
    if a.dim:
        proj = (fa @ fb.conj().T) @ fb if b.dim else np.zeros_like(fa)
        res = max(res, float(np.max(np.linalg.norm(fa - proj, axis=1), initial=0.0)))
    if b.dim:
        proj = (fb @ fa.conj().T) @ fa if a.dim else np.zeros_like(fb)
        res = max(res, float(np.max(np.linalg.norm(fb - proj, axis=1), initial=0.0)))
    return res


def subspace_equal(
    a: OperatorSubspace, b: OperatorSubspace, threshold: float
) -> bool:
    return a.dim == b.dim and subspace_residual(a, b) <= threshold


def intersect_null_spaces(blocks, n_unknowns: int, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Common null space of a family of (m_i x n) constraint matrices.

    Accumulates M = sum |block|^2 and reads the null space with null_rows.
    Returns an orthonormal basis as rows (k, n).
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
    # a system whose largest eigenvalue is machine noise carries no
    # constraint at all
    if np.sqrt(max(lam_max, 0.0)) <= tol.eps * n_unknowns:
        return np.eye(n_unknowns, dtype=complex)
    keep = w <= tol.rank_cut(lam_max, n_unknowns, n_unknowns)
    return v[:, keep].T


def exchange_gram(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Gram sum C_i* C_i of the constraints C_i vec(T) = vec(t_i T - T s_i),
    for stacks t (k, m, m) and s (k, n, n) and row-major vec, in closed form:
    kron(I_m, sum conj(s_i) s_i^T) + kron(sum t_i* t_i, I_n) - X - X*, where
    X = sum kron(t_i, conj(s_i)) is one product over the basis axis."""
    t, s = as_complex(t), as_complex(s)
    m, n = t.shape[1], s.shape[1]
    x = np.tensordot(t, s.conj(), axes=(0, 0)).transpose(0, 2, 1, 3)
    x = x.reshape(m * n, m * n)
    return (np.kron(np.eye(m), np.einsum("iab,icb->ac", s.conj(), s))
            + np.kron(np.einsum("iba,ibc->ac", t.conj(), t), np.eye(n))
            - x - dagger(x))


def intertwiner_rows(t: np.ndarray, s: np.ndarray,
                     tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning {T : t_i T = T s_i}; see exchange_gram."""
    return null_rows(exchange_gram(t, s), tol)


class QuotientRealization:
    """Quotient of a semi-inner-product space realized in coordinates.

    gram is the (Hermitized) PSD Gram matrix on the plain space C^N.  The
    stored co-isometry q (dim x N) satisfies q . gram . q* = I.  Derived maps:

      class_map = q . gram   sends a plain vector to its class coordinates,
                             so (class_map w)* (class_map w') = w* gram w';
      section   = q*         is a right inverse of class_map onto supp(gram);
      support   = section . class_map, the orthogonal projector onto
                             range(gram).
    """

    def __init__(self, gram: np.ndarray, tol: Tolerance = DEFAULT_TOL):
        gram = as_complex(gram)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise DimensionError("gram must be square")
        herm_defect = mat_norm(gram - dagger(gram))
        scale = max(1.0, mat_norm(gram))
        if herm_defect > tol.eps / 1e-3 * scale:
            raise NumericError(f"gram not Hermitian: defect {herm_defect:.3e}")
        gram = 0.5 * (gram + dagger(gram))
        w, v = np.linalg.eigh(gram)
        lam_max = float(w[-1]) if w.size else 0.0
        if w.size and float(w[0]) < -tol.check * max(1.0, lam_max):
            raise NumericError(f"gram not PSD: min eigenvalue {w[0]:.3e}")
        if lam_max <= 0.0:
            keep = np.zeros(w.shape, dtype=bool)
        else:
            keep = w > tol.rank_cut(lam_max, gram.shape[0], gram.shape[1])
        lam = w[keep]
        vecs = v[:, keep]
        self.gram = gram
        self.plain_dim = gram.shape[0]
        self.dim = int(lam.size)
        # co-isometry normalized so that q . gram . q* = I
        if lam.size:
            self.co_isometry = (vecs / np.sqrt(lam)).conj().T
            self.class_map = (vecs * np.sqrt(lam)).conj().T
        else:
            self.co_isometry = np.zeros((0, self.plain_dim), dtype=complex)
            self.class_map = np.zeros((0, self.plain_dim), dtype=complex)
        self.section = dagger(self.co_isometry)
        self.support = self.section @ self.class_map
        self.tol = tol

    def to_quotient(self, w: np.ndarray) -> np.ndarray:
        """Class coordinates of a plain vector (or of stacked columns)."""
        return self.class_map @ w


def induced_between(
    src: QuotientRealization, dst: QuotientRealization, plain_map: np.ndarray
):
    """Descend plain_map: plain(src) -> plain(dst) to class coordinates.

    Returns (matrix, residual); residual is the well-definedness defect,
    failure to annihilate ker(src.gram), normalized by the map's scale.
    With src = dst this descends an operator on one quotient.
    """
    plain_map = as_complex(plain_map)
    top = dst.class_map @ plain_map
    res = mat_norm(top @ (np.eye(src.plain_dim) - src.support))
    scale = max(1.0, mat_norm(top))
    return top @ src.section, res / scale


def solve_columns(basis_cols: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Least-squares solve basis_cols @ X = targets (columns stacked)."""
    sol, *_ = np.linalg.lstsq(basis_cols, targets, rcond=None)
    return sol


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(n: int, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
