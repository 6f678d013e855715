"""Kron-matrix and per-element references for what the library now computes
without forming kron products or looping over elements; tests compare the
library against these."""
import numpy as np

from qgw.linalg import dagger, induced_between, mat_norm
from qgw.rtensor import balanced_support, gram_from_r_stacks


def mul_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of T -> a T b acting on row-major vec(T)."""
    return np.kron(a, b.T)


def commutator_operator(x: np.ndarray) -> np.ndarray:
    """Matrix of T -> xT - Tx on vec(T)."""
    n = x.shape[0]
    eye = np.eye(n)
    return np.kron(x, eye) - np.kron(eye, x.T)


def kron_inner_map(space) -> np.ndarray:
    """The inner class map of a nest_left/nest_right space kron'd onto its
    leg of the pair space."""
    inner, pair = space.meta["inner"], space.meta["pair"]
    if space.meta["bracket"] == "left":
        return np.kron(inner.class_map, np.eye(pair.plain_dims[1]))
    return np.kron(np.eye(pair.plain_dims[0]), inner.class_map)


def kron_nested_gram(space) -> np.ndarray:
    """Gram of a nest_left/nest_right space formed on the plain product as
    m* G_pair m, with m from kron_inner_map."""
    m = kron_inner_map(space)
    return m.conj().T @ space.meta["pair"].gram @ m


def kron_nested_factor(space) -> np.ndarray:
    """Factor pair.class_map . m of a nest_left/nest_right space, with m
    from kron_inner_map."""
    return space.meta["pair"].class_map @ kron_inner_map(space)


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
    w, g = balanced_support(rh, rk, *central, space.tol)
    cm = space.class_map
    return w.shape[1], len(full), [
        mat_norm(x - full) / mat_norm(full)
        for x in (w @ g @ dagger(w), dagger(cm) @ cm)]


def kron_connectors(src, dst, left, right):
    """Connecting maps as first built: the plain tensor product of every
    pair of leg maps, descended by induced_between one pair at a time.
    Returns (stack, worst residual)."""
    mats, worst = [], 0.0
    for x in left:
        for y in right:
            mat, res = induced_between(src, dst, np.kron(x, y))
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
