"""Round trips for the JSON layouts.

Matrices must come back bit-identical (shortest-roundtrip float formatting),
composite objects must rebuild with the same ordered bases, and malformed
documents must fail with a path in the message.
"""
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


def roundtrip(obj):
    return json.loads(serialize.canonical_dumps(obj))


def test_matrix_roundtrip_is_bit_identical():
    gen = np.random.default_rng(7)
    m = gen.standard_normal((3, 5)) + 1j * gen.standard_normal((3, 5))
    m *= np.pi * 1e-7
    back = serialize.decode_matrix(roundtrip(serialize.encode_matrix(m)))
    assert back.shape == (3, 5)
    # exact equality on purpose: repr formatting round-trips doubles
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
    bad = dict(good)
    bad["data"] = good["data"][:-1]
    with pytest.raises(FormatError, match="spot"):
        serialize.decode_matrix(bad, "spot")
    bad2 = dict(good)
    bad2["data"] = good["data"][:-1] + [[1.0]]
    with pytest.raises(FormatError, match=r"data\[3\]"):
        serialize.decode_matrix(bad2, "m")
    with pytest.raises(FormatError, match="expected an object"):
        serialize.decode_matrix([1, 2], "m")


@pytest.mark.parametrize("entry", [
    [10 ** 400, 0],
    ["1.5", 0.0],
    [[1.0], 0.0],
    [1.0, 0.0, 0.0],
], ids=["huge_int", "string", "nested", "three"])
def test_matrix_decode_names_the_first_malformed_entry(entry):
    bad = serialize.encode_matrix(np.eye(2))
    # two malformed entries: the message names the first
    bad["data"][1] = bad["data"][3] = entry
    with pytest.raises(FormatError, match=r"^state\.rho: data\[1\] "):
        serialize.decode_matrix(bad, "state.rho")


def test_matrix_decode_accepts_ints_floats_and_bools():
    obj = {"rows": 2, "cols": 2,
           "data": [[1, 0], [True, False], [2.5, -0.0], [-7, 10 ** 30]]}
    back = serialize.decode_matrix(obj)
    assert back[0, 0] == 1 and back[0, 1] == 1 and back[1, 0] == 2.5
    assert np.signbit(back[1, 0].imag)
    assert back[1, 1].real == -7 and back[1, 1].imag == 1e30


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("packed", [True, False], ids=["packed", "list"])
def test_matrix_decode_refuses_non_finite_entries(value, packed):
    # as json reads them from a file, packed as they are parsed or not
    text = f'{{"rows": 1, "cols": 2, "data": [[1, 0], [0, {value}]]}}'
    obj = json.loads(text, object_hook=serialize.pack_matrix if packed
                     else None)
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
    doc["generators"][0]["data"][0] = [2.0, 0.0]
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
    doc["alpha_basis"][0]["data"][0] = [5.0, 0.0]
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
    # a JSON true equals 1 in Python but is no format version
    with pytest.raises(FormatError, match="version True"):
        serialize.check_bundle({"format": serialize.FORMAT_NAME,
                                "version": True})


def test_encoding_is_compact_and_packs_back_bit_identically():
    gen = np.random.default_rng(3)
    m = gen.standard_normal((2, 3)) + 1j * gen.standard_normal((2, 3))
    text = serialize.canonical_dumps({"m": serialize.encode_matrix(m.T)})
    assert "\n" not in text[:-1] and ", " not in text
    doc = json.loads(text, object_hook=serialize.pack_matrix)
    assert doc["m"]["data"].shape == (6, 2)
    assert np.array_equal(serialize.decode_matrix(doc["m"]), m.T)


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.canonical_dumps({"x": float("nan")})
