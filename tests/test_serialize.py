"""Round trips for the JSON layouts.

Matrices must come back bit-identical (base64 of their complex128 bytes),
composite objects must rebuild with the same ordered bases, and malformed
documents must fail with a path in the message.
"""
import base64
import json

import numpy as np
import pytest

from qgw import serialize
from qgw.errors import FormatError
from qgw.fixtures import FiniteGroupoid, groupoid_algebra, groupoid_bundle, \
    linked_bundle
from qgw.gns import gns
from qgw.linalg import DEFAULT_TOL, mat_norm
from qgw.staralg import rep_value


MALFORMED = "data must be a base64 string of whole 16-byte complex entries"


def roundtrip(obj):
    return json.loads(serialize.canonical_dumps(obj))


def packed(values) -> str:
    """A data string holding the doubles values, in the given order."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def with_entry(encoded: dict, index: int, value: complex) -> dict:
    """encoded, a matrix's JSON object, with one row-major entry replaced."""
    m = serialize.decode_matrix(encoded).copy()
    m.reshape(-1)[index] = value
    return serialize.encode_matrix(m)


def test_matrix_roundtrip_is_bit_identical():
    gen = np.random.default_rng(7)
    m = gen.standard_normal((3, 5)) + 1j * gen.standard_normal((3, 5))
    m *= np.pi * 1e-7
    back = serialize.decode_matrix(roundtrip(serialize.encode_matrix(m)))
    assert back.shape == (3, 5)
    # exact equality on purpose: the bytes of the doubles are stored
    assert np.array_equal(back, m)


def test_vector_roundtrip_and_shape_guard():
    v = np.array([1.0, -2.5e-17, 3.0 + 4.0j])
    back = serialize.decode_vector(roundtrip(serialize.encode_matrix(v)))
    assert np.array_equal(back, v)
    square = serialize.encode_matrix(np.eye(2))
    with pytest.raises(FormatError, match="single row or column"):
        serialize.decode_vector(square, "here")


def test_matrix_decode_rejects_bad_layouts():
    good = serialize.encode_matrix(np.eye(2))
    entries = serialize.decode_matrix(good).reshape(-1).view(float)
    bad = dict(good)
    bad["data"] = packed(entries[:-2])  # one entry short
    with pytest.raises(FormatError, match="^spot: data must hold 4 entries, "
                                          "got 3$"):
        serialize.decode_matrix(bad, "spot")
    bad2 = dict(good)
    bad2["data"] = packed(entries[:-1])  # half an entry short
    with pytest.raises(FormatError, match=f"^m: {MALFORMED}$"):
        serialize.decode_matrix(bad2, "m")
    bad3 = dict(good)
    bad3["data"] = entries.reshape(-1, 2).tolist()  # the version-1 layout
    with pytest.raises(FormatError, match=f"^m: {MALFORMED}$"):
        serialize.decode_matrix(bad3, "m")
    with pytest.raises(FormatError, match="expected an object"):
        serialize.decode_matrix([1, 2], "m")


@pytest.mark.parametrize("data", [
    10 ** 400,  # no string
    "AAAA.AAA" * 8,  # no base64
    [[1.0, 0.0]] * 4,  # the version-1 layout
    packed([1.0, 0.0, 0.0]),  # 24 bytes, one and a half entries
], ids=["huge_int", "string", "nested", "three"])
def test_matrix_decode_names_the_first_malformed_entry(data):
    stack = serialize.encode_stack(np.stack([np.eye(2)] * 4))
    # two malformed matrices in a stack: the message names the first
    stack[1]["data"] = stack[3]["data"] = data
    with pytest.raises(FormatError, match=rf"^gens\[1\]: {MALFORMED}$"):
        serialize.decode_stack(stack, "gens")


def test_matrix_decode_keeps_every_finite_double_bit_for_bit():
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    big = np.finfo(float).max
    m = np.array([[1, complex(-0.0, -0.0)], [complex(-tiny, big), -7 + 1e30j]])
    back = serialize.decode_matrix(roundtrip(serialize.encode_matrix(m)))
    assert back.tobytes() == m.tobytes()
    assert np.signbit(back[0, 1].imag) and back[1, 0].imag == big


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("packed", [True, False], ids=["packed", "list"])
def test_matrix_decode_refuses_non_finite_entries(value, packed):
    # the double json reads from each literal, stored as a bundle stores
    # it; unpacked as it is parsed ("packed") or left a string that
    # decode_matrix unpacks ("list", the layout's name before version 2)
    doc = with_entry(serialize.encode_matrix(np.array([[1, 0]])), 1,
                     complex(0, float(value)))
    obj = json.loads(json.dumps(doc), object_hook=serialize.pack_matrix
                     if packed else None)
    assert isinstance(obj["data"], np.ndarray) == packed
    with pytest.raises(FormatError,
                       match=r"^state\.rho: expected a finite matrix$"):
        serialize.decode_matrix(obj, "state.rho")


def test_stack_roundtrip_requires_uniform_shapes():
    stack = np.stack([np.eye(2), 1j * np.eye(2)])
    back = serialize.decode_stack(roundtrip(serialize.encode_stack(stack)))
    assert np.array_equal(back, stack)
    ragged = [serialize.encode_matrix(np.eye(2)),
              serialize.encode_matrix(np.eye(3))]
    with pytest.raises(FormatError, match="differs"):
        serialize.decode_stack(ragged)


def test_algebra_roundtrip_preserves_basis_order():
    gpd = FiniteGroupoid.pair(2)
    bundle = groupoid_bundle(gpd)
    alg = bundle["triple"].algebra
    back = serialize.decode_algebra(roundtrip(serialize.encode_algebra(alg)))
    assert back.dim == alg.dim
    for a, b in zip(back.basis(), alg.basis()):
        assert np.array_equal(a, b)


def test_algebra_decode_refuses_skewed_generators():
    # decoding must not re-orthonormalize: stacks elsewhere in a bundle are
    # aligned with the stored generator order
    doc = serialize.encode_algebra(
        groupoid_bundle(FiniteGroupoid.cyclic(2))["triple"].algebra
    )
    doc["generators"][0] = with_entry(doc["generators"][0], 0, 2.0)
    with pytest.raises(FormatError, match="HS-orthonormal"):
        serialize.decode_algebra(doc)


def test_state_roundtrip_reproduces_values():
    data = linked_bundle([2, 1], 1, 1, seed=11)
    state = data["triple"].state
    back = serialize.decode_state(roundtrip(serialize.encode_state(state)))
    assert np.allclose(back.values, state.values, atol=1e-12)
    triple = gns(back.algebra, back)
    assert max(triple.certificates().values()) < 1e-8


def test_base_roundtrip_keeps_both_algebras_and_vector():
    data = linked_bundle([2, 1], 1, 1, seed=11)
    base = data["base"]
    back = serialize.decode_base(roundtrip(serialize.encode_base(base)))
    assert back.space_dim == base.space_dim
    assert np.array_equal(back.cyclic_vector, base.cyclic_vector)
    assert back.algebra.equal(base.algebra)
    assert back.partner.equal(base.partner)


def test_factorization_roundtrip_certifies():
    data = linked_bundle([2, 1], 1, 1, seed=11)
    doc = roundtrip(serialize.encode_factorization(data["alpha"], "state"))
    assert doc["base"] == "state"
    back = serialize.decode_factorization(doc, data["base"])
    assert back.dim == data["alpha"].dim
    assert not back.flipped
    assert max(back.axiom_report().values()) < 1e-8
    beta = serialize.decode_factorization(
        roundtrip(serialize.encode_factorization(data["beta"], "state")),
        data["base"],
    )
    assert beta.flipped


def test_factorization_decode_refuses_skewed_basis():
    data = linked_bundle([2, 1], 1, 1, seed=11)
    doc = serialize.encode_factorization(data["alpha"], "state")
    doc["alpha_basis"][0] = with_entry(doc["alpha_basis"][0], 0, 5.0)
    with pytest.raises(FormatError, match="HS-orthonormal"):
        serialize.decode_factorization(doc, data["base"])


def test_morphism_roundtrip_matches_on_the_span():
    gpd = FiniteGroupoid.cyclic(3)
    alg, _ = groupoid_algebra(gpd)
    gen = np.random.default_rng(3)
    w = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    images = [w @ np.pad(b, ((0, 1), (0, 1))) @ np.conj(w.T)
              for b in alg.basis()]
    doc = roundtrip(serialize.encode_morphism(images, "a", "b"))
    gens = np.stack(alg.basis())
    stack = serialize.decode_morphism(doc, len(gens))
    x = 0.3 * gens[0] - 1.7j * gens[2]
    expect = 0.3 * images[0] - 1.7j * images[2]
    assert mat_norm(rep_value(alg, stack, x) - expect) < 1e-12


def test_bundle_header_validation():
    doc = serialize.bundle_skeleton("groupoid", {"family": "pair"},
                                    DEFAULT_TOL)
    assert serialize.check_bundle(roundtrip(doc)) == roundtrip(doc)
    with pytest.raises(FormatError, match="format"):
        serialize.check_bundle({"format": "other", "version": 1})
    with pytest.raises(FormatError, match="version"):
        serialize.check_bundle({"format": serialize.FORMAT_NAME,
                                "version": 99})
    # a JSON true or 2.0 equals an integer in Python but is no format
    # version
    for version in (True, 2.0):
        with pytest.raises(FormatError, match=f"version {version!r}"):
            serialize.check_bundle({"format": serialize.FORMAT_NAME,
                                    "version": version})


def test_encoding_is_compact_and_packs_back_bit_identically():
    gen = np.random.default_rng(3)
    m = gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))
    text = serialize.canonical_dumps({"m": serialize.encode_matrix(m.T)})
    assert "\n" not in text[:-1] and ", " not in text
    doc = json.loads(text, object_hook=serialize.pack_matrix)
    data = doc["m"]["data"]
    assert data.shape == (6,) and data.dtype == complex
    assert data.flags.writeable
    assert serialize.decode_matrix(doc["m"]).tobytes() == m.T.tobytes()


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.canonical_dumps({"x": float("nan")})
