"""Acceptance gate: one test per top-level guarantee, at fixed tolerances.

Run with -v to get one pass/fail line per numbered guarantee.  Fixtures stay
at desk scale (every carrier dimension at most 16, groupoids up to nine
arrows); each test is standalone.
"""
import numpy as np

from qgw.cbase import cbase_from_state
from qgw.cfact import Factorization, compatible, factorization_from_rep
from qgw.cli import main
from qgw.fiber import fiber_classical, fiber_spatial, is_morphism, \
    transported_match
from qgw.fixtures import FiniteGroupoid, groupoid_bundle, linked_bundle, \
    linked_factorizations, random_standard_base
from qgw.gns import State, gns
from qgw.hopf import groupoid_hopf, hopf_equivalence, perturbed_hopf
from qgw.linalg import OperatorSubspace, dagger, random_unitary, rng, span, \
    subspace_equal, subspace_residual
from qgw.pmu import groupoid_pmu, phase_perturbed_candidate, \
    pmu_equivalence, swapped_candidate
from qgw.rtensor import ket_factorization, phi_unitary, rtp_cstar, rtp_state
from qgw.staralg import StarAlgebra, algebra_from_generators, \
    commute_residual

BLOCK_SPECS = [[1], [2], [1, 1], [2, 1], [2, 2], [3, 1], [3, 2, 1]]

LINKED_SPECS = [
    ([2, 1], 1, 1), ([2], 2, 1), ([1, 1], 1, 2), ([3], 1, 1), ([2, 2], 1, 1),
]


def rotated_block_algebra(blocks, seed):
    n = int(sum(blocks))
    mats = []
    off = 0
    for s in blocks:
        for i in range(s):
            for j in range(s):
                m = np.zeros((n, n), dtype=complex)
                m[off + i, off + j] = 1.0
                mats.append(m)
        off += s
    u = random_unitary(n, rng(seed))
    return StarAlgebra(n, span([u @ m @ dagger(u) for m in mats], n, n))


def diag_triple(weights):
    n = len(weights)
    alg = StarAlgebra(n, span([np.diag(np.eye(n)[i]) for i in range(n)]))
    return gns(alg, State.from_density(alg, np.diag(np.asarray(weights,
                                                               complex))))


def linked_squares(data):
    vn = rtp_state(data["triple"], data["rho"], data["sigma"])
    cs = rtp_cstar(data["alpha"], data["beta"])
    return vn, cs


def fixture_f2():
    """Two-point base, both legs the diagonal action, uniform weights."""
    triple = diag_triple([0.5, 0.5])
    stack = np.stack(triple.algebra.basis())
    base = cbase_from_state(triple)
    from qgw.fixtures import linked_factorizations

    alpha, beta = linked_factorizations(triple, base, stack, stack)
    return {"triple": triple, "rho": stack, "sigma": stack,
            "alpha": alpha, "beta": beta}


def test_01_commutant_duality():
    count = 0
    for blocks in BLOCK_SPECS:
        for seed in (0, 1, 2):
            alg = rotated_block_algebra(blocks, 10 * seed + len(blocks))
            double = alg.commutant().commutant()
            assert double.dim == alg.dim, (blocks, seed)
            assert subspace_equal(double.subspace, alg.subspace, 1e-8), \
                (blocks, seed)
            count += 1
    assert count >= 20


def test_02_standard_base_partner_is_commutant():
    count = 0
    for blocks in BLOCK_SPECS:
        for seed in (0, 1, 2):
            _, base = random_standard_base(blocks, seed)
            com = base.algebra.commutant()
            assert com.dim == base.partner.dim
            assert subspace_residual(com.subspace,
                                     base.partner.subspace) <= 1e-8
            back = base.partner.commutant()
            assert back.dim == base.algebra.dim
            assert subspace_residual(back.subspace,
                                     base.algebra.subspace) <= 1e-8
            count += 1
    assert count >= 20


def test_03_factorization_rep_round_trip():
    count = 0
    for blocks, ml, mr in LINKED_SPECS:
        for seed in (0, 1):
            data = linked_bundle(blocks, ml, mr, seed)
            for fact in (data["alpha"], data["beta"]):
                assert fact.dim == fact.target_dim
                rebuilt = factorization_from_rep(
                    data["base"], fact.rho, fact.target_dim,
                    flipped=fact.flipped,
                )
                assert rebuilt.dim == fact.dim
                assert subspace_equal(rebuilt.subspace, fact.subspace, 1e-8)
                count += 1
    assert count >= 20


def test_04_compatibility_matches_commutation():
    # positives: the two multiplication actions on one standard space,
    # amplified and rotated together so they stay each other's commutant
    suite = []
    for blocks, mult, seed in (([2, 1], 1, 5), ([3], 2, 6), ([1, 1], 1, 7)):
        triple, base = random_standard_base(blocks, seed)
        w = random_unitary(triple.dim * mult, rng(seed + 50))
        rho = np.stack([w @ np.kron(x, np.eye(mult)) @ dagger(w)
                        for x in triple.rep_op_stack])
        sigma = np.stack([w @ np.kron(x, np.eye(mult)) @ dagger(w)
                          for x in triple.rep_stack])
        suite.append(linked_factorizations(triple, base, rho, sigma))
    # negatives: knock the flipped side off its linked position with a
    # generic rotation of the whole ket family
    for k, rotation_seed in ((0, 21), (1, 22)):
        alpha, beta = suite[k]
        u = random_unitary(beta.target_dim, rng(rotation_seed))
        moved = Factorization(
            beta.base, beta.target_dim,
            span([u @ m for m in beta.basis()], beta.target_dim,
                 beta.base.space_dim),
            flipped=True,
        )
        suite.append((alpha, moved))
    seen = set()
    for first, second in suite:
        result = compatible(first, second)
        direct = commute_residual(
            list(first.rho_stack()), list(second.rho_stack())
        ) <= 1e-8
        assert result.ok == direct, result.residuals
        seen.add(result.ok)
    assert seen == {True, False}


def test_05_flavor_unitary_on_fixtures_and_random_pairs():
    cases = []
    # trivial one-point base: the relative product is the plain tensor
    cases.append(linked_squares(linked_bundle([1], 3, 2, seed=0)))
    f2 = linked_squares(fixture_f2())
    assert f2[0].dim == 2
    cases.append(f2)
    f4 = linked_squares(groupoid_bundle(FiniteGroupoid.pair(2)))
    assert f4[0].dim == 8
    cases.append(f4)
    for blocks, ml, mr in LINKED_SPECS:
        for seed in (0, 1):
            cases.append(linked_squares(linked_bundle(blocks, ml, mr, seed)))
    assert len(cases) >= 13
    for vn, cs in cases:
        _, phi = phi_unitary(vn, cs)
        assert vn.dim == cs.dim
        assert phi.residuals["unitary"] <= 1e-8
        assert phi.residuals["transports_classes"] <= 1e-8


def test_06_conjugation_carries_classical_to_spatial():
    def legs(data):
        nh = data["rho"].shape[1]
        nk = data["sigma"].shape[1]
        return (algebra_from_generators(nh, data["rho"]),
                algebra_from_generators(nk, data["sigma"]))

    cases = [fixture_f2(), groupoid_bundle(FiniteGroupoid.pair(2))]
    for blocks, ml, mr in LINKED_SPECS:
        for seed in (0, 1):
            cases.append(linked_bundle(blocks, ml, mr, seed))
    assert len(cases) >= 12
    for data in cases:
        vn, cs = linked_squares(data)
        a, b = legs(data)
        classical, _ = fiber_classical(vn, a, b)
        spatial = fiber_spatial(cs, a, b)
        phi, _ = phi_unitary(vn, cs)
        ok, res = transported_match(phi, classical, spatial, 1e-8)
        assert ok, res
        assert res <= 1e-8


def test_07_morphism_criteria_agree():
    verdicts = []

    def record(images, source_alg, source_fact, target_alg, target_fact,
               expect):
        v = is_morphism(images, source_alg, source_fact, target_alg,
                        target_fact)
        assert v.ok == expect, v.residuals
        verdicts.append(expect)

    # positives: the identity on a commutative base, and diagonal
    # comultiplications against their left-insertion factorizations
    f2 = fixture_f2()
    base2 = f2["alpha"].base
    alg2 = base2.algebra
    ident = Factorization(base2, 2, alg2.subspace)
    record(alg2.subspace.stack, alg2, ident, alg2, ident, True)
    for gpd in (FiniteGroupoid.pair(2), FiniteGroupoid.cyclic(3)):
        h = groupoid_hopf(gpd)
        cs = h["cstar_space"]
        fp = fiber_spatial(cs, h["algebra"], h["algebra"])
        alpha2 = ket_factorization(cs, h["alpha"], h["alpha"], leg=0,
                                   flipped=False)
        record(h["delta_cstar"], h["algebra"], h["alpha"], fp,
               alpha2, True)

    # negatives: permutation automorphisms that scramble the induced base
    # action, and a comultiplication aimed at a rotated factorization
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    record(swap @ alg2.subspace.stack @ swap, alg2, ident, alg2, ident,
           False)
    t3 = diag_triple([1 / 3] * 3)
    base3 = cbase_from_state(t3)
    alg3 = base3.algebra
    ident3 = Factorization(base3, 3, alg3.subspace)
    shift = np.roll(np.eye(3), 1, axis=0)
    record(shift @ alg3.subspace.stack @ shift.T, alg3, ident3, alg3, ident3,
           False)
    h = groupoid_hopf(FiniteGroupoid.pair(2))
    cs = h["cstar_space"]
    fp = fiber_spatial(cs, h["algebra"], h["algebra"])
    alpha2 = ket_factorization(cs, h["alpha"], h["alpha"], leg=0,
                               flipped=False)
    w = random_unitary(cs.dim, rng(9))
    rotated = Factorization(
        alpha2.base, cs.dim,
        span([w @ m for m in alpha2.basis()], cs.dim,
             alpha2.base.space_dim),
    )
    record(h["delta_cstar"], h["algebra"], h["alpha"], fp, rotated,
           False)

    assert verdicts.count(True) >= 3
    assert verdicts.count(False) >= 3


GROUPOID_SUITE = [
    lambda: FiniteGroupoid.cyclic(2),
    lambda: FiniteGroupoid.cyclic(3),
    lambda: FiniteGroupoid.pair(2),
    lambda: FiniteGroupoid.pair(3),
]


def test_08_hopf_verdicts_agree_with_negatives():
    for make in GROUPOID_SUITE:
        h = groupoid_hopf(make())
        eq = hopf_equivalence(h["state_space"], h["cstar_space"],
                              h["algebra"], h["delta_state"],
                              h["delta_cstar"],
                              phi_unitary(h["state_space"], h["cstar_space"])[0])
        assert eq.children["state"].ok
        assert eq.children["operator"].ok
        assert eq.residuals["verdicts_agree"] == 0.0
        assert eq.residuals["transport"] <= 1e-8
    h = groupoid_hopf(FiniteGroupoid.cyclic(2))
    for seed in (1, 2, 3):
        bad = perturbed_hopf(h, seed=seed)
        eq = hopf_equivalence(bad["state_space"], bad["cstar_space"],
                              bad["algebra"], bad["delta_state"],
                              bad["delta_cstar"],
                              phi_unitary(bad["state_space"], bad["cstar_space"])[0])
        # the injected leg violation must be caught by BOTH flavors
        assert not eq.children["state"].ok, seed
        assert not eq.children["operator"].ok, seed
        assert eq.residuals["verdicts_agree"] == 0.0


def test_09_pentagon_verdicts_agree_with_negatives():
    for make in GROUPOID_SUITE:
        pmu = groupoid_pmu(make())
        eq = pmu_equivalence(pmu["candidate"], pmu["beta_hat"],
                             pmu["alpha_flipped"], pmu["alpha"], pmu["beta"])
        assert eq.children["state"].ok
        assert eq.children["operator"].ok
        assert eq.residuals["verdicts_agree"] == 0.0
        assert eq.children["state"].residuals["pentagon"] <= 1e-7
        assert eq.children["operator"].residuals["pentagon"] <= 1e-7
    pmu = groupoid_pmu(FiniteGroupoid.cyclic(2))
    for cand in (swapped_candidate(pmu), phase_perturbed_candidate(pmu)):
        eq = pmu_equivalence(cand, pmu["beta_hat"], pmu["alpha_flipped"],
                             pmu["alpha"], pmu["beta"])
        assert not eq.children["state"].ok
        assert not eq.children["operator"].ok
        assert eq.residuals["verdicts_agree"] == 0.0
        assert eq.children["state"].residuals["pentagon"] >= 1e-4
        assert eq.children["operator"].residuals["pentagon"] >= 1e-4


def test_10_deterministic_json_reports(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = ["gen-random-base", "--blocks", "2,1", "--seed", "7"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["equiv-check", "--in", str(first), "--out", str(r1)]) == 0
    assert main(["equiv-check", "--in", str(second), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    gen = ["gen-groupoid", "--pair", "2"]
    assert main(gen + ["--out", str(g1)]) == 0
    assert main(gen + ["--out", str(g2)]) == 0
    assert g1.read_bytes() == g2.read_bytes()
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    assert main(["pmu-check", "--in", str(g1), "--out", str(p1)]) == 0
    assert main(["pmu-check", "--in", str(g2), "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
