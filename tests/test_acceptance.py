"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines directly; the asserts make the suite fail loudly either way.
"""

import random
import time

import numpy as np

from orbmod import fixtures
from orbmod.modular_data import (
    quantum_dimensions,
    t_matrix,
    validate_modular_datum,
    verlinde_fusion,
)
from orbmod.perm_orbifold import (
    assemble_orbifold_S,
    build_orbifold_datum,
    permutation_restriction_data,
)
from orbmod.restricted import assemble_restricted_S
from orbmod.sl2z import (
    GeneratorWord,
    decompose_to_generators,
    evaluate_word,
    is_prime,
    rho_of,
    sector_congruence,
)

from conftest import sl2_product

EPS = 1e-9
EPS_INT = 1e-6


def report_line(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def random_generator_word(rng, max_len):
    tokens = []
    last_t = False
    for _ in range(rng.randint(1, max_len)):
        if last_t or rng.random() < 0.5:
            tokens.append("S")
            last_t = False
        else:
            n = rng.choice([x for x in range(-9, 10) if x])
            tokens.append(f"T^{n}")
            last_t = True
    return GeneratorWord(tuple(tokens))


def test_criterion_1_fixture_validation():
    start = time.perf_counter()
    for name in ("ising", "fibonacci", "holomorphic_c8"):
        report = validate_modular_datum(fixtures.load(name), EPS, EPS_INT)
        assert report.ok, f"{name}: {[c.name for c in report.failures()]}"
    table = verlinde_fusion(fixtures.load("ising")).table
    assert (table[2, 2, 0], table[2, 2, 1], table[2, 2, 2]) == (1, 1, 0)
    elapsed = time.perf_counter() - start
    report_line(
        1,
        elapsed < 1.0,
        f"three fixtures validate at eps=1e-9/eps_int=1e-6, "
        f"Ising sigma x sigma = 1 + eps, in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_ising_k2_orbifold():
    start = time.perf_counter()
    orb = build_orbifold_datum(fixtures.load("ising"), 2, eps=EPS, eps_int=EPS_INT)
    s = orb.datum.s_matrix
    n = orb.datum.rank
    assert n == 15, f"expected 15 modules, got {n}"
    assert np.max(np.abs(s @ s.conj().T - np.eye(n))) <= 1e-9
    assert np.max(np.abs(s - s.T)) <= 1e-9
    assert abs(s[0, 0] - 0.125) <= 1e-12
    fusion = verlinde_fusion(orb.datum)
    assert fusion.residual <= 1e-6 and np.min(fusion.table) >= 0
    assert orb.report["charge_conjugation"].passed
    _, glob = quantum_dimensions(orb.datum)
    assert abs(glob - 64.0) <= 1e-6
    elapsed = time.perf_counter() - start
    report_line(
        2,
        elapsed < 1.0,
        f"Ising k=2: 15 modules, unitary+symmetric<=1e-9, vacuum entry 1/8 "
        f"(<=1e-12), integral fusion, S^2 permutation, glob=64, in {elapsed:.3f}s",
    )


def test_criterion_3_modular_relation_convention():
    validated = {}
    for name in ("ising", "holomorphic_c8"):
        datum = fixtures.load(name)
        chosen = None
        for convention in ("minus", "plus"):
            orb = build_orbifold_datum(datum, 2, convention)
            s = orb.datum.s_matrix
            t = np.diag([p.value for p in t_matrix(orb.datum)])
            residual = np.max(np.abs(np.linalg.matrix_power(s @ t, 3) - s @ s))
            if residual <= 1e-8:
                chosen = (convention, residual)
                break
            assert convention == "minus", (
                f"{name}: default convention failed and so did the flipped one"
            )
        assert chosen is not None, f"{name}: no convention satisfies (S'T')^3 = S'^2"
        validated[name] = chosen
    detail = "; ".join(
        f"{name} k=2: convention {conv!r} validated, residual {res:.2e}"
        for name, (conv, res) in validated.items()
    )
    report_line(3, all(conv == "minus" for conv, _ in validated.values()), detail)


def test_criterion_4_fibonacci_k3_orbifold():
    start = time.perf_counter()
    orb = build_orbifold_datum(fixtures.load("fibonacci"), 3, eps=EPS, eps_int=EPS_INT)
    assert orb.datum.rank == 20, f"expected 20 modules, got {orb.datum.rank}"
    assert orb.report.ok, [c.name for c in orb.report.failures()]
    elapsed = time.perf_counter() - start
    report_line(
        4,
        elapsed < 5.0,
        f"Fibonacci k=3: 20 modules, full validation suite passes, in {elapsed:.3f}s (< 5s)",
    )


def test_criterion_5_holomorphic_k2():
    orb = build_orbifold_datum(fixtures.load("holomorphic_c8"), 2, eps=EPS, eps_int=EPS_INT)
    assert orb.datum.rank == 4
    assert orb.report.ok, [c.name for c in orb.report.failures()]
    report_line(5, True, "c=8 one-module input yields a valid 4x4 modular datum")


def test_criterion_6_sl2z_round_trip_and_homomorphism():
    rng = random.Random(20260810)
    for _ in range(1000):
        word = random_generator_word(rng, max_len=40)
        m = evaluate_word(word)
        assert evaluate_word(decompose_to_generators(m)) == m
    ising = fixtures.load("ising")
    worst = 0.0
    for _ in range(100):
        m1 = evaluate_word(random_generator_word(rng, max_len=5))
        m2 = evaluate_word(random_generator_word(rng, max_len=5))
        err = np.max(
            np.abs(rho_of(sl2_product(m1, m2), ising) - rho_of(m1, ising) @ rho_of(m2, ising))
        )
        worst = max(worst, err)
    report_line(
        6,
        worst <= 1e-9,
        f"1000 random words (len <= 40) round-trip exactly; rho homomorphism "
        f"on 100 pairs, worst residual {worst:.2e} (<= 1e-9)",
    )


def test_criterion_7_oracle_equivalence():
    worst = 0.0
    for name, k in (("ising", 2), ("fibonacci", 3)):
        datum = fixtures.load(name)
        orbits, blocks, group = permutation_restriction_data(datum, k)
        _, restricted = assemble_restricted_S(orbits, blocks, group)
        direct = assemble_orbifold_S(datum, k)
        worst = max(worst, float(np.max(np.abs(restricted - direct))))
    report_line(
        7,
        worst <= 1e-9,
        f"restricted-S assembly matches the permutation pipeline entrywise, "
        f"worst deviation {worst:.2e} (<= 1e-9) for Ising k=2 and Fibonacci k=3",
    )


def test_criterion_8_sector_congruence_exhaustive():
    checked = 0
    for k in (2, 3, 5, 7, 11, 13):
        assert is_prime(k)
        for r in range(1, k):
            for s in range(1, k):
                a, b, mat = sector_congruence(k, r, s)
                assert 0 < a < k and 0 < b < k
                assert (r * a - s) % k == 0
                assert (s * b + r) % k == 0
                assert mat.a * mat.d - mat.b * mat.c == 1
                assert (1 + a * b) % k == 0
                checked += 1
    report_line(
        8,
        checked == sum((k - 1) ** 2 for k in (2, 3, 5, 7, 11, 13)),
        f"congruences, det=1 and k | (1+ab) verified exhaustively for "
        f"{checked} (k, r, s) triples over primes k <= 13",
    )
