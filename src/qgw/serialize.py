"""JSON layouts for matrices, algebras, states, bases, and factorizations.

A matrix is {"rows": n, "cols": m, "data": "<base64>"}: data is standard
base64 of the entries' little-endian complex128 bytes, row-major, so
decoding returns bit-identical values.  A reader may unpack the data into
an array as it parses (pack_matrix).  Composite objects reference each
other by section name inside one bundle document rather than by nesting.

Generator lists double as stored bases: every encoder writes an
HS-orthonormal family, and the decoder keeps that family, in order, as the
basis of the rebuilt object.  Stacks elsewhere in a bundle are aligned with
those generator orders, which is why decoding refuses non-orthonormal
generators instead of silently re-orthonormalizing.
"""
from __future__ import annotations

import base64
import json

import numpy as np

from .errors import FormatError
from .gns import State
from .linalg import DEFAULT_TOL, OperatorSubspace, Tolerance, dagger, mat_norm
from .staralg import StarAlgebra

FORMAT_NAME = "qgw-bundle"
FORMAT_VERSION = 2


def canonical_dumps(obj) -> str:
    """Key-sorted, compact JSON with a trailing newline; rejects NaN and
    infinities so output stays strictly standard.  Without indent json
    writes through its C encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def encode_matrix(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype="<c16")
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise FormatError(f"matrix must be 2-dimensional, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": base64.b64encode(m.tobytes()).decode("ascii"),
    }


def unpack(data):
    """The entries of a matrix's data string as a writable complex array
    (frombuffer alone is read-only), or None unless data is a base64
    string of whole 16-byte entries."""
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError):  # no string, or no base64
        return None
    return None if len(raw) % 16 else \
        np.frombuffer(raw, "<c16").astype(complex)


def pack_matrix(obj: dict) -> dict:
    """json object_hook: the data of an encoded matrix unpacked into an
    array as it is parsed; malformed data stays for decode_matrix to name."""
    if {"rows", "cols"} <= obj.keys():
        entries = unpack(obj.get("data"))
        if entries is not None:
            obj["data"] = entries
    return obj


def fields(obj, where: str, *keys) -> list:
    """obj's values at keys; FormatError unless obj is an object that
    holds them all."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object, "
                          f"got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise FormatError(f"{where}: missing key '{key}'")
    return [obj[key] for key in keys]


def integer(value, where: str, least: int = 0) -> int:
    """value when it is an integer of at least least; a JSON boolean is
    none, though Python reads it as one."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise FormatError(f"{where}: expected an integer >= {least}, "
                          f"got {value!r}")
    return value


def decode_matrix(obj, where: str = "matrix") -> np.ndarray:
    rows, cols, data = fields(obj, where, "rows", "cols", "data")
    rows, cols = integer(rows, f"{where}.rows"), integer(cols, f"{where}.cols")
    if not isinstance(data, np.ndarray):  # not unpacked as it was parsed
        data = unpack(data)
        if data is None:
            raise FormatError(f"{where}: data must be a base64 string of "
                              "whole 16-byte complex entries")
    if len(data) != rows * cols:
        raise FormatError(
            f"{where}: data must hold {rows * cols} entries, got {len(data)}")
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{where}: expected a finite matrix")
    return data.reshape(rows, cols)


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
    n, gens = fields(obj, where, "dim_H", "generators")
    n = integer(n, f"{where}.dim_H", 1)
    gens = decode_stack(gens, f"{where}.generators")
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
    alg, rho = fields(obj, where, "algebra", "rho")
    alg = decode_algebra(alg, f"{where}.algebra", tol)
    return State.from_density(alg, decode_matrix(rho, f"{where}.rho"))


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
    from .cbase import CStarBase
    dim, alg, partner = fields(obj, where, "frak_H_dim", "B", "B_dag")
    alg = decode_algebra(alg, f"{where}.B", tol)
    partner = decode_algebra(partner, f"{where}.B_dag", tol)
    if alg.space_dim != integer(dim, f"{where}.frak_H_dim", 1):
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
    from .cfact import Factorization
    n, mats = fields(obj, where, "H_dim", "alpha_basis")
    n = integer(n, f"{where}.H_dim", 1)
    mats = decode_stack(mats, f"{where}.alpha_basis")
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
    mat, shape = fields(obj, where, "matrix_on_basis", "image_shape")
    mat = decode_matrix(mat, f"{where}.matrix_on_basis")
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
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"{where}: version {version!r} not supported, "
                          f"this qgw reads version {FORMAT_VERSION}; "
                          "regenerate the bundle")
    return obj
