import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from orbmod.modular_data import Phase, t_matrix
from orbmod.sl2z import (
    GeneratorWord,
    SL2Matrix,
    decompose_to_generators,
    evaluate_word,
    is_prime,
    rho_of,
    sector_congruence,
)

from conftest import IDENTITY, S_GEN, T_GEN, rational_data, sl2_product


def random_word(rng, max_len, max_exp):
    """Valid random generator word (no adjacent T tokens)."""
    tokens = []
    last_t = False
    for _ in range(rng.randint(0, max_len)):
        if last_t or rng.random() < 0.5:
            tokens.append("S")
            last_t = False
        else:
            n = rng.choice([x for x in range(-max_exp, max_exp + 1) if x])
            tokens.append(f"T^{n}")
            last_t = True
    return GeneratorWord(tuple(tokens))


# ---------------------------------------------------------------------------
# words and evaluation
# ---------------------------------------------------------------------------

def test_evaluate_word_examples():
    assert evaluate_word(["S"]) == S_GEN
    assert evaluate_word(["T^3"]) == SL2Matrix(1, 3, 0, 1)
    assert evaluate_word(["S", "S"]) == SL2Matrix(-1, 0, 0, -1)
    assert evaluate_word([]) == IDENTITY


def test_word_validation():
    with pytest.raises(ValueError, match="adjacent"):
        GeneratorWord(("T^1", "T^2"))
    with pytest.raises(ValueError, match="T\\^0"):
        GeneratorWord(("T^0",))
    with pytest.raises(ValueError, match="bad generator token"):
        GeneratorWord(("U",))
    assert str(GeneratorWord(("S", "T^-2"))) == "S T^-2"
    assert str(GeneratorWord()) == "<empty>"


@pytest.mark.parametrize(
    "token", ["S\n", " S", "T^3\n", "T^\u0663", "T^03", "T^+3", "T^-0", "T^", "s"]
)
def test_word_refuses_tokens_that_are_not_canonical(token):
    with pytest.raises(ValueError, match="bad generator token"):
        GeneratorWord((token,))
    with pytest.raises(ValueError, match="bad generator token"):
        evaluate_word(["S", token])


@st.composite
def words(draw, bound=10**30):
    """Valid words: S tokens and T powers up to ``bound``, a T never after a T."""
    tokens = []
    for n in draw(st.lists(st.integers(-bound, bound), max_size=40)):
        if n == 0 or (tokens and tokens[-1] != "S"):
            tokens.append("S")
        if n:
            tokens.append(f"T^{n}")
    return GeneratorWord(tuple(tokens))


def generator(token):
    return S_GEN if token == "S" else SL2Matrix(1, int(token[2:]), 0, 1)


@given(words())
def test_evaluate_word_is_the_product_of_the_generators(word):
    expected = sl2_product(*map(generator, word))
    assert evaluate_word(word) == expected
    assert evaluate_word(word.tokens) == expected


def test_sl2matrix_rejects_wrong_determinant():
    with pytest.raises(ValueError, match="determinant"):
        SL2Matrix(1, 0, 0, 2)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_examples():
    assert decompose_to_generators(S_GEN).tokens == ("S",)
    assert decompose_to_generators(T_GEN).tokens == ("T^1",)
    assert decompose_to_generators(IDENTITY).tokens == ()
    assert decompose_to_generators(SL2Matrix(-1, 0, 0, -1)).tokens == ("S", "S")


def test_decompose_round_trip_example():
    m = SL2Matrix(2, -1, -1, 1)
    word = decompose_to_generators(m)
    assert evaluate_word(word) == m


def test_decompose_round_trip_bounded_entries():
    # pseudo-random matrices with |entries| <= 1e6, exact integer round trip
    rng = random.Random(1282)
    accepted = 0
    attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 50_000
        m = evaluate_word(random_word(rng, max_len=12, max_exp=9))
        if max(abs(v) for v in m.entries()) > 10**6:
            continue
        accepted += 1
        word = decompose_to_generators(m)
        assert evaluate_word(word) == m


@given(st.lists(st.integers(-8, 8), max_size=10), st.integers(0, 3))
def test_decompose_round_trip_hypothesis(exponents, trailing_s):
    # words of the continued-fraction shape T^n1 S T^n2 S ... S^trailing
    factors = [f for n in exponents for f in (SL2Matrix(1, n, 0, 1), S_GEN)]
    m = sl2_product(*factors, *[S_GEN] * trailing_s)
    word = decompose_to_generators(m)
    assert evaluate_word(word) == m
    # canonical form invariants: T tokens merged, nonzero
    toks = word.tokens
    for prev, cur in zip(toks, toks[1:]):
        assert not (prev.startswith("T") and cur.startswith("T"))


def test_decompose_word_length_logarithmic():
    rng = random.Random(7)
    for _ in range(50):
        m = evaluate_word(random_word(rng, max_len=30, max_exp=9))
        word = decompose_to_generators(m)
        bits = max(abs(v) for v in m.entries()).bit_length()
        assert len(word) <= 4 * bits + 8


# ---------------------------------------------------------------------------
# the representation rho
# ---------------------------------------------------------------------------

def test_rho_identity_and_generators(ising):
    assert_allclose(rho_of(IDENTITY, ising), np.eye(3), atol=1e-12)
    assert_allclose(rho_of(S_GEN, ising), ising.s_matrix, atol=1e-12)
    t_diag = np.diag([p.value for p in t_matrix(ising)])
    assert_allclose(rho_of(T_GEN, ising), t_diag, atol=1e-12)


def test_rho_matches_independent_factorization(ising):
    # (2, -1; -1, 1) = T^-3 S T^-1 S T^-2, checked below by integer product
    word = GeneratorWord(("T^-3", "S", "T^-1", "S", "T^-2"))
    m = SL2Matrix(2, -1, -1, 1)
    assert evaluate_word(word) == m
    t_angles = [p.angle for p in t_matrix(ising)]

    def rho_token(tok):
        if tok == "S":
            return np.array(ising.s_matrix)
        n = int(tok[2:])
        return np.diag([Phase(n * a).value for a in t_angles])

    by_hand = np.eye(3, dtype=complex)
    for tok in word:
        by_hand = by_hand @ rho_token(tok)
    assert_allclose(rho_of(m, ising), by_hand, atol=1e-9)


def rho_by_phases(m, d):
    """rho_of with each T-phase the Phase of its Fraction angle."""
    angles = [h - d.central_charge / 24 for h in d.weights]
    out = np.eye(d.rank, dtype=complex)
    for tok in decompose_to_generators(m):
        if tok == "S":
            out = out @ d.s_matrix
        else:
            out = out * np.array([Phase(int(tok[2:]) * a).value for a in angles])
    return out


@given(rational_data, st.integers(-(10**30), 10**30).filter(bool))
def test_rho_of_a_t_power_is_the_exact_phases(d, n):
    angles = [h - d.central_charge / 24 for h in d.weights]
    expected = np.eye(d.rank, dtype=complex) * np.array([Phase(n * a).value for a in angles])
    assert rho_of(SL2Matrix(1, n, 0, 1), d).tobytes() == expected.tobytes()


# small powers: decompose_to_generators takes about q steps for a partial
# quotient q of the matrix
@given(rational_data, words(bound=9))
def test_rho_of_is_bit_identical_to_the_phases_of_fractions(d, word):
    m = evaluate_word(word)
    assert rho_of(m, d).tobytes() == rho_by_phases(m, d).tobytes()


def test_rho_of_minus_identity_is_charge_conjugation(ising):
    s2 = ising.s_matrix @ ising.s_matrix
    assert_allclose(rho_of(SL2Matrix(-1, 0, 0, -1), ising), s2, atol=1e-12)


def test_rho_homomorphism_random_pairs(ising):
    rng = random.Random(99)
    for _ in range(60):
        m1 = evaluate_word(random_word(rng, max_len=6, max_exp=3))
        m2 = evaluate_word(random_word(rng, max_len=6, max_exp=3))
        lhs = rho_of(sl2_product(m1, m2), ising)
        rhs = rho_of(m1, ising) @ rho_of(m2, ising)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


# ---------------------------------------------------------------------------
# sector congruences
# ---------------------------------------------------------------------------

def test_sector_congruence_examples():
    assert sector_congruence(2, 1, 1) == (1, 1, SL2Matrix(2, -1, -1, 1))
    assert sector_congruence(3, 1, 2) == (2, 1, SL2Matrix(3, -1, -2, 1))
    assert sector_congruence(3, 2, 2) == (1, 2, SL2Matrix(3, -2, -1, 1))


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_sector_congruence_brute_force_oracle(k):
    for r in range(1, k):
        for s in range(1, k):
            solutions = [
                (a, b)
                for a in range(1, k)
                for b in range(1, k)
                if (r * a - s) % k == 0 and (s * b + r) % k == 0
            ]
            assert len(solutions) == 1
            a, b, mat = sector_congruence(k, r, s)
            assert (a, b) == solutions[0]
            assert mat.a * mat.d - mat.b * mat.c == 1
            assert (1 + a * b) % k == 0
            assert mat == SL2Matrix(k, -b, -a, (1 + a * b) // k)


def test_sector_congruence_preconditions():
    with pytest.raises(ValueError, match="prime"):
        sector_congruence(4, 1, 1)
    with pytest.raises(ValueError, match="strictly between"):
        sector_congruence(3, 0, 1)
    with pytest.raises(ValueError, match="strictly between"):
        sector_congruence(3, 1, 3)


def test_is_prime_small_cases():
    assert [k for k in range(15) if is_prime(k)] == [2, 3, 5, 7, 11, 13]


def trial_division(k):
    return k >= 2 and all(k % f for f in range(2, math.isqrt(k) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [k for k in range(200_000) if is_prime(k)] == [
        k for k in range(200_000) if trial_division(k)
    ]
    # strong pseudoprimes to the first bases, and primes beyond trial division
    assert not is_prime(2047)  # 23 * 89, base 2
    assert not is_prime(3215031751)  # bases 2 to 7
    assert not is_prime(3825123056546413051)  # bases 2 to 23
    assert not is_prime(2**61 + 1)  # 3 * 768614336404564651
    assert is_prime(2**61 - 1)
    assert is_prime(10**14 + 31)
    assert is_prime(np.int64(2**31 - 1)) and not is_prime(np.int64(41 * 43))
