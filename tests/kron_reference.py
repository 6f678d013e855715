"""Kron-matrix and per-element references for what the library now computes
without forming kron products or looping over elements; tests compare the
library against these."""
import numpy as np

from qgw.linalg import induced_between


def mul_operator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of T -> a T b acting on row-major vec(T)."""
    return np.kron(a, b.T)


def commutator_operator(x: np.ndarray) -> np.ndarray:
    """Matrix of T -> xT - Tx on vec(T)."""
    n = x.shape[0]
    eye = np.eye(n)
    return np.kron(x, eye) - np.kron(eye, x.T)


def kron_nested_gram(space) -> np.ndarray:
    """Gram of a nest_left/nest_right space formed on the plain product as
    m* G_pair m, with m the inner class map kron'd onto its leg."""
    inner, pair = space.meta["inner"], space.meta["pair"]
    if space.meta["bracket"] == "left":
        m = np.kron(inner.class_map, np.eye(pair.plain_dims[1]))
    else:
        m = np.kron(np.eye(pair.plain_dims[0]), inner.class_map)
    return m.conj().T @ pair.gram @ m


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
