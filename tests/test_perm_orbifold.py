import itertools
import os
import resource
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from orbmod import perm_orbifold
from orbmod.modular_data import (
    InvalidDatum,
    Phase,
    quantum_dimensions,
    t_matrix,
    validate_modular_datum,
)
from orbmod.perm_orbifold import (
    Diagonal,
    OffDiagonal,
    Twisted,
    assemble_orbifold_S,
    build_orbifold_datum,
    canonical_rotation,
    enumerate_orbifold_modules,
    label_text,
    module_count,
    orbifold_datum_to_dict,
    orbifold_labels,
    orbifold_t_phases,
    permutation_restriction_data,
    twisted_sector_block,
)
from orbmod.sl2z import rho_of, sector_congruence

from conftest import rational_data


# ---------------------------------------------------------------------------
# labels and counting
# ---------------------------------------------------------------------------

def test_canonical_rotation_examples():
    assert canonical_rotation((1, 0)) == (0, 1)
    assert canonical_rotation((2, 0, 1)) == (0, 1, 2)
    assert canonical_rotation((0, 0)) == (0, 0)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=7))
def test_canonical_rotation_is_minimal_rotation(t):
    t = tuple(t)
    rotations = {t[i:] + t[:i] for i in range(len(t))}
    canon = canonical_rotation(t)
    assert canon in rotations
    assert all(canon <= r for r in rotations)
    assert all(canonical_rotation(r) == canon for r in rotations)


def test_offdiagonal_label_normalizes():
    assert OffDiagonal((1, 0)).indices == (0, 1)
    assert OffDiagonal((2, 0, 1)) == OffDiagonal((0, 1, 2))
    with pytest.raises(ValueError, match="constant"):
        OffDiagonal((1, 1))


@pytest.mark.parametrize(
    "n,k,expected", [(3, 2, 15), (1, 2, 4), (2, 3, 20), (3, 3, 35)]
)
def test_module_count_formula(n, k, expected):
    assert module_count(n, k) == expected


def test_label_enumeration_ising_k2(ising):
    labels = orbifold_labels(ising, 2)
    assert len(labels) == 15
    assert labels[0] == Diagonal(0, 0)
    diag = [l for l in labels if isinstance(l, Diagonal)]
    off = [l for l in labels if isinstance(l, OffDiagonal)]
    twisted = [l for l in labels if isinstance(l, Twisted)]
    assert (len(diag), len(off), len(twisted)) == (6, 3, 6)
    # ordering: all diagonal first, then off-diagonal, then twisted
    assert labels[:6] == tuple(Diagonal(i, a) for i in range(3) for a in range(2))
    assert [l.indices for l in off] == [(0, 1), (0, 2), (1, 2)]
    assert twisted == [Twisted(1, i, a) for i in range(3) for a in range(2)]


def test_label_enumeration_fibonacci_k3(fibonacci):
    labels = orbifold_labels(fibonacci, 3)
    assert len(labels) == 20
    off = [l.indices for l in labels if isinstance(l, OffDiagonal)]
    assert off == [(0, 0, 1), (0, 1, 1)]


def test_label_enumeration_single_module(holo8):
    labels = orbifold_labels(holo8, 2)
    assert labels == (
        Diagonal(0, 0),
        Diagonal(0, 1),
        Twisted(1, 0, 0),
        Twisted(1, 0, 1),
    )


def test_nonprime_k_rejected(ising):
    with pytest.raises(ValueError, match="prime"):
        orbifold_labels(ising, 4)
    with pytest.raises(ValueError, match="prime"):
        build_orbifold_datum(ising, 6)


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 2), (2, 3), (4, 3), (3, 5), (2, 7)])
def test_off_diagonal_tuples_are_the_sorted_rotation_orbits(n, k):
    orbits = {
        canonical_rotation(t)
        for t in itertools.product(range(n), repeat=k)
        if len(set(t)) > 1
    }
    assert perm_orbifold._off_diagonal_tuples(n, k) == sorted(orbits)
    assert len(orbits) == (n**k - n) // k


@pytest.mark.parametrize(
    "call",
    [
        lambda d, k: orbifold_labels(d, k),
        lambda d, k: enumerate_orbifold_modules(d, k),
        lambda d, k: assemble_orbifold_S(d, k),
        lambda d, k: build_orbifold_datum(d, k),
        lambda d, k: permutation_restriction_data(d, k),
    ],
    ids=["labels", "enumerate", "assemble", "build", "restriction_data"],
)
@pytest.mark.parametrize("k", [-3, 0, 1, 4, 9])
def test_every_entry_point_rejects_nonprime_k(ising, call, k):
    with pytest.raises(ValueError, match=rf"^k must be prime, got {k}$"):
        call(ising, k)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weights_ising_k2(ising):
    weights = dict(enumerate_orbifold_modules(ising, 2))
    assert weights[Diagonal(0, 0)] == 0
    assert weights[Diagonal(2, 0)] == Fraction(1, 8)  # 2 * 1/16
    assert weights[Diagonal(2, 1)] == Fraction(1, 8)
    assert weights[OffDiagonal((0, 1))] == Fraction(1, 2)
    # twisted: h/2 + (k^2-1) c/(24 k) = h/2 + 1/32, plus a half per eigenindex
    assert weights[Twisted(1, 0, 0)] == Fraction(1, 32)
    assert weights[Twisted(1, 0, 1)] == Fraction(17, 32)
    assert weights[Twisted(1, 2, 0)] == Fraction(1, 16)


def test_weights_holomorphic_k2(holo8):
    weights = dict(enumerate_orbifold_modules(holo8, 2))
    assert weights[Twisted(1, 0, 0)] == Fraction(1, 2)
    assert weights[Twisted(1, 0, 1)] == 0


def test_weight_convention_flip_only_moves_twisted(fibonacci):
    minus = enumerate_orbifold_modules(fibonacci, 3, "minus")
    plus = enumerate_orbifold_modules(fibonacci, 3, "plus")
    for (lab_m, w_m), (lab_p, w_p) in zip(minus, plus):
        assert lab_m == lab_p
        if isinstance(lab_m, Twisted) and (2 * lab_m.a * lab_m.r) % 3:
            assert w_m != w_p
        else:
            assert w_m == w_p


def weight_by_fractions(label, d, k, convention):
    """The weight mod 1 of a label, summed in Fractions."""
    h, c = d.weights, d.central_charge
    if isinstance(label, Diagonal):
        return (k * h[label.i]) % 1
    if isinstance(label, OffDiagonal):
        return sum((h[i] for i in label.indices), Fraction(0)) % 1
    m0 = ((-1 if convention == "minus" else 1) * label.a * label.r) % k
    return (h[label.i] / k + (k * k - 1) * c / (24 * k) + Fraction(m0, k)) % 1


@given(rational_data, st.sampled_from([2, 3, 5]), st.sampled_from(["minus", "plus"]))
def test_weights_on_integers_are_the_fraction_sums(d, k, convention):
    for label, weight in enumerate_orbifold_modules(d, k, convention):
        assert type(weight) is Fraction
        assert weight == weight_by_fractions(label, d, k, convention)


def test_bad_convention_rejected(ising):
    with pytest.raises(ValueError, match="convention"):
        enumerate_orbifold_modules(ising, 2, "signed")
    with pytest.raises(ValueError, match="convention"):
        build_orbifold_datum(ising, 2, "signed")


# ---------------------------------------------------------------------------
# twisted sector blocks
# ---------------------------------------------------------------------------

def test_twisted_block_single_module(holo8):
    block = twisted_sector_block(holo8, 2, 1, 1)
    assert block.shape == (1, 1)
    assert abs(block[0, 0] - 1) < 1e-12


def test_twisted_block_preconditions(ising):
    with pytest.raises(ValueError, match="strictly between"):
        twisted_sector_block(ising, 2, 0, 1)
    with pytest.raises(ValueError, match="strictly between"):
        twisted_sector_block(ising, 2, 1, 2)
    with pytest.raises(ValueError, match="prime"):
        twisted_sector_block(ising, 4, 1, 1)


@given(rational_data, st.sampled_from([(2, 1, 1), (3, 1, 2), (3, 2, 2), (5, 2, 4), (5, 4, 3)]))
def test_twisted_block_phases_are_the_exact_phases(d, krs):
    k, r, s = krs
    a, b, matrix = sector_congruence(k, r, s)
    c = d.central_charge
    left = np.array([Phase(a * (-h / k + c / (24 * k))).value for h in d.weights])
    right = np.array([Phase(-b * (-h / k + c / (24 * k))).value for h in d.weights])
    expected = left[:, None] * (d.s_matrix @ rho_of(matrix, d)) * right[None, :]
    assert twisted_sector_block(d, k, r, s).tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [2, 3, 5, 7])
def test_restriction_characters_are_the_exact_phases(holo8, k):
    orbits, _, _ = permutation_restriction_data(holo8, k)
    rows = orbits[0].characters.rows
    expected = np.array(
        [[Phase(Fraction(-a * g, k)).value for g in range(k)] for a in range(k)]
    )
    assert rows.tobytes() == expected.tobytes()


def test_twisted_block_mirror_consistency(fibonacci):
    # the (r, s) block and the transposed (s, r) block encode the same
    # unordered pairs, so they must agree numerically
    for r in (1, 2):
        for s in (1, 2):
            b_rs = twisted_sector_block(fibonacci, 3, r, s)
            b_sr = twisted_sector_block(fibonacci, 3, s, r)
            assert_allclose(b_rs, b_sr.T, atol=1e-12)


# ---------------------------------------------------------------------------
# assembled S-matrix
# ---------------------------------------------------------------------------

def test_orbifold_s_frozen_entries_ising_k2(ising):
    labels = list(orbifold_labels(ising, 2))
    s_orb = assemble_orbifold_S(ising, 2)
    # vacuum-vacuum: S_00^k / k = (1/2)^2 / 2
    assert abs(s_orb[0, 0] - 0.125) < 1e-12
    # off(0,1) vs diag(sigma;b): S_02 * S_12 = -1/2, independent of b
    row = labels.index(OffDiagonal((0, 1)))
    for b in (0, 1):
        col = labels.index(Diagonal(2, b))
        assert abs(s_orb[row, col] - (-0.5)) < 1e-12
    # twisted vs off-diagonal entries vanish identically
    for x, lx in enumerate(labels):
        for y, ly in enumerate(labels):
            if isinstance(lx, Twisted) and isinstance(ly, OffDiagonal):
                assert s_orb[x, y] == 0
                assert s_orb[y, x] == 0


def test_orbifold_s_exactly_symmetric(ising):
    s_orb = assemble_orbifold_S(ising, 2)
    assert np.array_equal(s_orb, s_orb.T)


def test_assembly_builds_only_the_upper_twisted_blocks(fibonacci, monkeypatch):
    # the matrix is mirrored from its upper triangle, so a (r, s) block with
    # s < r would be computed only to be thrown away
    calls = []

    def counted(d, k, r, s):
        calls.append((r, s))
        return twisted_sector_block(d, k, r, s)

    monkeypatch.setattr(perm_orbifold, "twisted_sector_block", counted)
    assemble_orbifold_S(fibonacci, 5)
    # k (k - 1) / 2 = 10 blocks, where all (k - 1)^2 = 16 would fill both triangles
    assert calls == [(r, s) for r in range(1, 5) for s in range(r, 5)]


def test_eigenindex_independence(ising):
    labels = list(orbifold_labels(ising, 2))
    s_orb = assemble_orbifold_S(ising, 2)
    for i in range(3):
        for j in range(3):
            vals = {
                complex(s_orb[labels.index(Diagonal(i, a)), labels.index(Diagonal(j, b))])
                for a in range(2)
                for b in range(2)
            }
            assert len(vals) == 1
    row = labels.index(OffDiagonal((0, 2)))
    for j in range(3):
        vals = {complex(s_orb[row, labels.index(Diagonal(j, b))]) for b in range(2)}
        assert len(vals) == 1


@pytest.mark.parametrize("name,k", [("ising", 2), ("holomorphic_c8", 2), ("fibonacci", 3)])
def test_orbifold_datum_validates(name, k):
    from orbmod import fixtures

    orb = build_orbifold_datum(fixtures.load(name), k)
    assert orb.datum.rank == module_count(fixtures.load(name).rank, k)
    assert orb.report.ok, orb.report.failures()


def test_orbifold_global_dimension(ising, fibonacci):
    orb = build_orbifold_datum(ising, 2)
    _, glob = quantum_dimensions(orb.datum)
    assert glob == pytest.approx(64.0, abs=1e-6)  # k^2 * glob(V)^k = 4 * 16

    orb3 = build_orbifold_datum(fibonacci, 3)
    _, glob_v = quantum_dimensions(fibonacci)
    _, glob3 = quantum_dimensions(orb3.datum)
    assert glob3 == pytest.approx(9 * glob_v**3, rel=1e-9)


def test_plus_convention_fails_modular_relation_fib_k3(fibonacci):
    orb = build_orbifold_datum(fibonacci, 3, "plus")
    assert not orb.report.ok
    assert [c.name for c in orb.report.failures()] == ["modular_relation"]


def test_orbifold_t_phases_holomorphic(holo8):
    labels = list(orbifold_labels(holo8, 2))
    phases = orbifold_t_phases(holo8, 2)
    assert phases[labels.index(Diagonal(0, 0))] == Phase(Fraction(-16, 24))
    assert phases[labels.index(Twisted(1, 0, 0))] == Phase(Fraction(5, 6))


def test_orbifold_t_phases_match_embedded_datum(ising):
    orb = build_orbifold_datum(ising, 2)
    assert orbifold_t_phases(ising, 2) == t_matrix(orb.datum)


# ---------------------------------------------------------------------------
# datum construction and serialization
# ---------------------------------------------------------------------------

def test_build_orbifold_datum_structure(ising):
    orb = build_orbifold_datum(ising, 2)
    assert orb.k == 2
    assert orb.convention == "minus"
    assert orb.labels[0] == Diagonal(0, 0)
    assert orb.datum.central_charge == Fraction(1)
    assert orb.datum.modules[0].label == "diag(1;0)"
    assert len(set(orb.datum.labels)) == orb.datum.rank


def test_build_enumerates_the_labels_once(fibonacci, monkeypatch):
    # the S assembly reads the off-diagonal tuples from their producer and
    # does not build a second label list of its own
    calls = []

    def counted(d, k):
        calls.append(k)
        return orbifold_labels(d, k)

    monkeypatch.setattr(perm_orbifold, "orbifold_labels", counted)
    orb = build_orbifold_datum(fibonacci, 3)
    assert calls == [3]
    assert orb.labels == orbifold_labels(fibonacci, 3)


def test_build_rejects_invalid_input(ising):
    s = np.array(ising.s_matrix)
    s[0, 0] += 0.01
    bad = type(ising)(ising.central_charge, ising.modules, s)
    with pytest.raises(InvalidDatum, match="fails validation"):
        build_orbifold_datum(bad, 2)


@pytest.mark.parametrize("validate_input", [True, False])
def test_build_refuses_an_orbifold_larger_than_memory(ising, monkeypatch, validate_input):
    # N = 123,147: the S-matrix alone would take 243 GB
    def no_enumeration(*args, **kwargs):
        raise AssertionError("orbifold modules enumerated")

    monkeypatch.setattr(perm_orbifold, "enumerate_orbifold_modules", no_enumeration)
    monkeypatch.setattr(perm_orbifold, "_off_diagonal_tuples", no_enumeration)
    monkeypatch.setattr(perm_orbifold, "validate_modular_datum", no_enumeration)
    pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 2**12}  # 8 GiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    # physical memory is the bound, whatever ulimit -v the tests run under
    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    monkeypatch.setattr(resource, "getrlimit", lambda which: unlimited)
    with pytest.raises(InvalidDatum) as refused:
        build_orbifold_datum(ising, 13, validate_input=validate_input)
    assert str(refused.value) == (
        "the k=13 orbifold has 123147 modules; validating it needs more than "
        "the 8 GiB of physical memory"
    )


def test_build_refuses_a_huge_prime_k_from_the_logarithm_of_its_count(ising, monkeypatch):
    # 3**k alone would take minutes at k ~ 10**9
    monkeypatch.setattr(perm_orbifold, "module_count", None)
    pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 2**12}  # 8 GiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    monkeypatch.setattr(resource, "getrlimit", lambda which: unlimited)
    with pytest.raises(InvalidDatum) as refused:
        build_orbifold_datum(ising, 1000000007)
    assert str(refused.value) == (
        "the k=1000000007 orbifold has about 10^477121249 modules; validating it "
        "needs more than the 8 GiB of physical memory"
    )


def test_label_text_unique_and_kinded(ising):
    texts = {label_text(l, ising) for l in orbifold_labels(ising, 2)}
    assert len(texts) == 15
    assert "off(1,eps)" in texts
    assert "tw1(sigma;1)" in texts


def test_iterated_orbifold_is_valid(ising):
    # the output datum is itself valid input: orbifolding twice must again
    # produce a valid datum with glob'' = k^2 * glob'^k
    first = build_orbifold_datum(ising, 2)
    second = build_orbifold_datum(first.datum, 2)
    assert second.datum.rank == module_count(15, 2) == 165
    assert second.report.ok, [c.name for c in second.report.failures()]
    _, glob = quantum_dimensions(second.datum)
    assert glob == pytest.approx(4 * 64.0**2, rel=1e-9)


def test_orbifold_accepts_complex_s_input(holo8):
    # the c=8 order-3 orbifold has genuinely complex S entries; it must
    # still be a usable input for a further orbifold
    inner = build_orbifold_datum(holo8, 3)
    assert np.max(np.abs(inner.datum.s_matrix.imag)) > 0.1
    outer = build_orbifold_datum(inner.datum, 2)
    assert outer.datum.rank == module_count(9, 2) == 72
    assert outer.report.ok, [c.name for c in outer.report.failures()]


@pytest.mark.parametrize("k,expected", [(5, 56), (7, 116)])
def test_orbifold_larger_primes(fibonacci, k, expected):
    orb = build_orbifold_datum(fibonacci, k)
    assert orb.datum.rank == expected
    assert orb.report.ok, [c.name for c in orb.report.failures()]


def test_orbifold_datum_to_dict_round_trips(ising):
    from orbmod.modular_data import parse_modular_datum

    orb = build_orbifold_datum(ising, 2)
    doc = orbifold_datum_to_dict(orb)
    assert doc["k"] == 2 and doc["convention"] == "minus"
    kinds = {m["label_kind"] for m in doc["modules"]}
    assert kinds == {"diag", "offdiag", "twisted"}
    back = parse_modular_datum(doc)
    report = validate_modular_datum(back)
    assert report.ok
    assert back.weights == orb.datum.weights
