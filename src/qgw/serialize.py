"""JSON layouts for matrices, algebras, states, bases, and factorizations.

A matrix is {"rows": n, "cols": m, "data": [[re, im], ...]} with the entries
row-major.  Doubles go through Python's shortest-roundtrip float formatting,
so decoding returns bit-identical values; a reader may pack the data into a
float array as it parses (pack_matrix).  Composite objects reference each
other by section name inside one bundle document rather than by nesting.

Generator lists double as stored bases: every encoder writes an
HS-orthonormal family, and the decoder keeps that family, in order, as the
basis of the rebuilt object.  Stacks elsewhere in a bundle are aligned with
those generator orders, which is why decoding refuses non-orthonormal
generators instead of silently re-orthonormalizing.
"""
from __future__ import annotations

import json

import numpy as np

from .cbase import CStarBase
from .cfact import Factorization
from .errors import FormatError
from .gns import State
from .linalg import DEFAULT_TOL, OperatorSubspace, Tolerance, dagger, mat_norm
from .staralg import StarAlgebra

FORMAT_NAME = "qgw-bundle"
FORMAT_VERSION = 1


def canonical_dumps(obj) -> str:
    """Key-sorted, compact JSON with a trailing newline; rejects NaN and
    infinities so output stays strictly standard.  Without indent json
    writes through its C encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def encode_matrix(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise FormatError(f"matrix must be 2-dimensional, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.reshape(-1, 1).view(float).tolist(),
    }


def pack_matrix(obj: dict) -> dict:
    """json object_hook: the data of an encoded matrix packed into a float
    array as it is parsed, when every entry is an [re, im] pair of bools,
    floats or int64s; other data stays a list for decode_matrix to name."""
    data = obj.get("data")
    if {"rows", "cols"} <= obj.keys() and isinstance(data, list):
        try:
            pairs = np.array(data) if data else np.zeros((0, 2))
        except ValueError:  # ragged entries
            return obj
        if pairs.shape == (len(data), 2) and pairs.dtype.kind in "bif":
            obj["data"] = np.asarray(pairs, dtype=float)
    return obj


def integer(value, where: str, least: int = 0) -> int:
    """value when it is an integer of at least least; a JSON boolean is
    none, though Python reads it as one."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise FormatError(f"{where}: expected an integer >= {least}, "
                          f"got {value!r}")
    return value


def decode_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise FormatError(f"{where}: missing key {exc}") from None
    rows, cols = integer(rows, f"{where}.rows"), integer(cols, f"{where}.cols")
    # a list, or an array that pack_matrix packed
    sized = isinstance(data, (list, np.ndarray))
    if not sized or len(data) != rows * cols:
        raise FormatError(
            f"{where}: data must hold {rows * cols} entries, "
            f"got {len(data) if sized else 'non-list'}"
        )
    if isinstance(data, list):
        # not packed: name the first entry that is no [re, im] pair of
        # bools, floats or ints that fit a double
        for i, entry in enumerate(data):
            if (
                not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
            ):
                raise FormatError(f"{where}: data[{i}] must be [re, im]")
            try:
                complex(*entry)
            except OverflowError:
                raise FormatError(
                    f"{where}: data[{i}] is too large for a double"
                ) from None
        data = np.array(data, dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{where}: expected a finite matrix")
    return data.view(complex).reshape(rows, cols)


def decode_vector(obj, where: str = "vector") -> np.ndarray:
    m = decode_matrix(obj, where)
    if 1 not in m.shape and 0 not in m.shape:
        raise FormatError(f"{where}: expected a single row or column")
    return m.reshape(-1)


def encode_stack(mats) -> list:
    return [encode_matrix(m) for m in mats]


def decode_stack(obj, where: str = "stack") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{where}: expected a nonempty list of matrices")
    mats = [decode_matrix(m, f"{where}[{i}]") for i, m in enumerate(obj)]
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise FormatError(f"{where}[{i}]: shape {m.shape} differs from {shape}")
    return np.stack(mats)


def encode_algebra(alg: StarAlgebra) -> dict:
    return {
        "dim_H": int(alg.space_dim),
        "generators": encode_stack(alg.basis()),
        "unital": True,
    }


def decode_algebra(obj, where: str = "algebra",
                   tol: Tolerance = DEFAULT_TOL) -> StarAlgebra:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    for key in ("dim_H", "generators"):
        if key not in obj:
            raise FormatError(f"{where}: missing key '{key}'")
    n = integer(obj["dim_H"], f"{where}.dim_H", 1)
    gens = decode_stack(obj["generators"], f"{where}.generators")
    if gens.shape[1:] != (n, n):
        raise FormatError(
            f"{where}: generators are {gens.shape[1:]} but dim_H is {n}"
        )
    flat = gens.reshape(gens.shape[0], -1)
    gram = flat.conj() @ flat.T
    if mat_norm(gram - np.eye(gens.shape[0])) > tol.check:
        raise FormatError(
            f"{where}: generators must be HS-orthonormal; they double as the "
            "stored basis that stacks elsewhere in the bundle are aligned with"
        )
    return StarAlgebra(n, OperatorSubspace(n, n, gens), tol)


def encode_state(state: State) -> dict:
    """Density-matrix form; the density is the sum of conjugate-transposed
    basis elements weighted by the stored values."""
    d = np.zeros((state.algebra.space_dim,) * 2, dtype=complex)
    for v, b in zip(state.values, state.algebra.basis()):
        d += v * dagger(b)
    d = 0.5 * (d + dagger(d))
    return {"algebra": encode_algebra(state.algebra), "rho": encode_matrix(d)}


def decode_state(obj, where: str = "state",
                 tol: Tolerance = DEFAULT_TOL) -> State:
    if not isinstance(obj, dict) or "rho" not in obj or "algebra" not in obj:
        raise FormatError(f"{where}: expected keys 'algebra' and 'rho'")
    alg = decode_algebra(obj["algebra"], f"{where}.algebra", tol)
    return State.from_density(alg, decode_matrix(obj["rho"], f"{where}.rho"))


def encode_base(base: CStarBase) -> dict:
    out = {
        "frak_H_dim": int(base.space_dim),
        "B": encode_algebra(base.algebra),
        "B_dag": encode_algebra(base.partner),
    }
    if base.cyclic_vector is not None:
        out["zeta"] = encode_matrix(base.cyclic_vector)
    return out


def decode_base(obj, where: str = "base",
                tol: Tolerance = DEFAULT_TOL) -> CStarBase:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    for key in ("frak_H_dim", "B", "B_dag"):
        if key not in obj:
            raise FormatError(f"{where}: missing key '{key}'")
    alg = decode_algebra(obj["B"], f"{where}.B", tol)
    partner = decode_algebra(obj["B_dag"], f"{where}.B_dag", tol)
    if alg.space_dim != integer(obj["frak_H_dim"], f"{where}.frak_H_dim", 1):
        raise FormatError(f"{where}: frak_H_dim disagrees with B")
    zeta = None
    if obj.get("zeta") is not None:
        zeta = decode_vector(obj["zeta"], f"{where}.zeta")
    return CStarBase(alg, partner, zeta, tol)


def encode_factorization(fact: Factorization, base_ref: str) -> dict:
    return {
        "base": base_ref,
        "H_dim": int(fact.target_dim),
        "alpha_basis": encode_stack(fact.basis()),
        "flipped": bool(fact.flipped),
    }


def decode_factorization(obj, base: CStarBase, where: str = "factorization",
                         tol: Tolerance = DEFAULT_TOL,
                         certify: bool = True) -> Factorization:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    for key in ("H_dim", "alpha_basis"):
        if key not in obj:
            raise FormatError(f"{where}: missing key '{key}'")
    n = integer(obj["H_dim"], f"{where}.H_dim", 1)
    mats = decode_stack(obj["alpha_basis"], f"{where}.alpha_basis")
    if mats.shape[1:] != (n, base.space_dim):
        raise FormatError(f"{where}: basis elements are {mats.shape[1:]}, "
                          f"expected ({n}, {base.space_dim})")
    flat = mats.reshape(mats.shape[0], -1)
    gram = flat.conj() @ flat.T
    if mat_norm(gram - np.eye(mats.shape[0])) > tol.check:
        raise FormatError(f"{where}: alpha_basis must be HS-orthonormal")
    flipped = obj.get("flipped", False)
    if not isinstance(flipped, bool):
        raise FormatError(f"{where}.flipped: expected true or false, "
                          f"got {flipped!r}")
    return Factorization(base, n, OperatorSubspace(n, base.space_dim, mats),
                         flipped=flipped, tol=tol, certify=certify)


def encode_morphism(images, source_ref: str, target_ref: str) -> dict:
    """Linear map out of an algebra, given by its image stack: column i is
    the flattened image of the i-th generator of the source section."""
    images = np.asarray(images, dtype=complex)
    k, a, b = images.shape
    return {
        "matrix_on_basis": encode_matrix(images.reshape(k, a * b).T),
        "image_shape": [int(a), int(b)],
        "source": source_ref,
        "target": target_ref,
    }


def decode_morphism(obj, n_generators: int, where: str = "morphism"):
    """The map's image stack, aligned with the basis: entry i is the image
    of the i-th of the source section's n_generators stored generators."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    for key in ("matrix_on_basis", "image_shape"):
        if key not in obj:
            raise FormatError(f"{where}: missing key '{key}'")
    mat = decode_matrix(obj["matrix_on_basis"], f"{where}.matrix_on_basis")
    shape = obj["image_shape"]
    if not isinstance(shape, list) or len(shape) != 2:
        raise FormatError(f"{where}.image_shape: expected two integers")
    shape = [integer(d, f"{where}.image_shape[{i}]")
             for i, d in enumerate(shape)]
    if mat.shape[0] != shape[0] * shape[1]:
        raise FormatError(f"{where}: image_shape disagrees with the matrix")
    if mat.shape[1] != n_generators:
        raise FormatError(
            f"{where}: {mat.shape[1]} columns for {n_generators} generators"
        )
    return mat.T.reshape(n_generators, *shape)


def bundle_skeleton(kind: str, source: dict, tol: Tolerance) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "source": source,
        "tolerance": float(tol.eps),
    }


def check_bundle(obj, where: str = "bundle") -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected a JSON object")
    if obj.get("format") != FORMAT_NAME:
        raise FormatError(
            f"{where}: format is {obj.get('format')!r}, expected '{FORMAT_NAME}'"
        )
    version = obj.get("version")
    if version != FORMAT_VERSION or isinstance(version, bool):
        raise FormatError(f"{where}: version {version!r} not supported")
    return obj
