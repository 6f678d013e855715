"""Kron-matrix references for the vec-form operators that the library now
applies without forming them; tests compare the library against these."""
import numpy as np


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
