import json
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbmod import fixtures
from orbmod.modular_data import (
    InvalidDatum,
    ModularDatum,
    ModuleInfo,
    Phase,
    modular_datum_to_dict,
    parse_modular_datum,
    quantum_dimensions,
    t_matrix,
    validate_modular_datum,
    verlinde_fusion,
)

MINIMAL = {
    "central_charge": "8",
    "modules": [{"label": "1", "h": "0"}],
    "S": [[{"re": "1", "im": "0"}]],
}


def perturbed(datum, delta=0.01):
    s = np.array(datum.s_matrix)
    s[0, 0] += delta
    return ModularDatum(datum.central_charge, datum.modules, s)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_datum():
    d = parse_modular_datum(json.dumps(MINIMAL))
    assert d.rank == 1
    assert d.central_charge == Fraction(8)
    assert d.modules[0].weight == 0
    assert d.s_matrix[0, 0] == 1


def test_parse_rejects_dimension_mismatch():
    doc = {
        "central_charge": "0",
        "modules": [{"label": str(i), "h": "0" if i == 0 else "1/2"} for i in range(3)],
        "S": [[{"re": "1", "im": "0"}] * 2] * 2,
    }
    with pytest.raises(InvalidDatum, match="dimension mismatch"):
        parse_modular_datum(doc)


def test_parse_rejects_duplicate_labels():
    doc = {
        "central_charge": "0",
        "modules": [{"label": "m", "h": "0"}, {"label": "m", "h": "1/2"}],
        "S": [[{"re": "1", "im": "0"}] * 2] * 2,
    }
    with pytest.raises(InvalidDatum, match="duplicate"):
        parse_modular_datum(doc)


def test_parse_rejects_nonzero_vacuum_weight():
    doc = dict(MINIMAL, modules=[{"label": "1", "h": "1/4"}])
    with pytest.raises(InvalidDatum, match="vacuum"):
        parse_modular_datum(doc)


@pytest.mark.parametrize(
    "text",
    [
        "not json at all {",
        json.dumps([1, 2, 3]),
        json.dumps({"central_charge": "8"}),
        json.dumps(dict(MINIMAL, S=[[{"re": "one", "im": "0"}]])),
        json.dumps(dict(MINIMAL, central_charge="8/0")),
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(InvalidDatum):
        parse_modular_datum(text)


@pytest.mark.parametrize(
    "entry",
    [{"re": "nan", "im": "0"}, {"re": "1", "im": "-inf"}, {"re": float("inf"), "im": 0}],
)
def test_parse_rejects_non_finite_entries(entry):
    with pytest.raises(InvalidDatum, match=r"non-finite complex value .* in S\[0\]\[0\]"):
        parse_modular_datum(json.dumps(dict(MINIMAL, S=[[entry]])))


def test_parse_rejects_empty_module_list():
    doc = {"central_charge": "0", "modules": [], "S": []}
    with pytest.raises(InvalidDatum, match="non-empty"):
        parse_modular_datum(doc)


def test_parse_ignores_unknown_keys():
    doc = dict(MINIMAL, note="anything")
    doc["modules"] = [{"label": "1", "h": "0", "label_kind": "diag", "i": 0, "a": 0}]
    d = parse_modular_datum(json.dumps(doc))
    assert d.rank == 1


def test_serialization_round_trip(ising):
    back = parse_modular_datum(json.dumps(modular_datum_to_dict(ising)))
    assert back.central_charge == ising.central_charge
    assert back.weights == ising.weights
    assert back.labels == ising.labels
    assert np.array_equal(back.s_matrix, ising.s_matrix)


def test_s_matrix_is_read_only(ising):
    with pytest.raises(ValueError):
        ising.s_matrix[0, 0] = 0.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", fixtures.NAMES)
def test_fixture_certification(name):
    report = validate_modular_datum(fixtures.load(name), 1e-9, 1e-6)
    assert report.ok, [c for c in report.failures()]


def test_validation_detects_unitarity_perturbation(ising):
    report = validate_modular_datum(perturbed(ising))
    assert not report["unitary"].passed
    assert not report.ok


def test_validation_checks_are_named(ising):
    report = validate_modular_datum(ising)
    names = [c.name for c in report.checks]
    assert names == [
        "unitary",
        "symmetric",
        "vacuum_row_positive",
        "charge_conjugation",
        "modular_relation",
        "fusion_integrality",
    ]
    with pytest.raises(KeyError):
        report["nonexistent"]


def test_validation_flags_nonpositive_vacuum_row():
    d = ModularDatum(
        Fraction(0),
        (ModuleInfo("1", Fraction(0)), ModuleInfo("x", Fraction(1, 2))),
        np.eye(2),
    )
    report = validate_modular_datum(d)
    assert not report["vacuum_row_positive"].passed
    assert not report["fusion_integrality"].passed  # vacuum row hits zero
    assert report.fusion is None


def test_validation_report_keeps_fusion_tensor(fibonacci):
    report = validate_modular_datum(fibonacci)
    expected = verlinde_fusion(fibonacci)
    assert np.array_equal(report.fusion.table, expected.table)
    assert report.fusion.residual == expected.residual


def test_one_module_c8_validates(holo8):
    # scalar case: T = e^{-2 pi i/3}, (S T)^3 = e^{-2 pi i} = 1 = S^2
    report = validate_modular_datum(holo8)
    assert report.ok
    (phase,) = t_matrix(holo8)
    assert phase.angle == Fraction(2, 3)


# ---------------------------------------------------------------------------
# T-matrix and phases
# ---------------------------------------------------------------------------

def test_t_matrix_ising_angles(ising):
    angles = [p.angle for p in t_matrix(ising)]
    assert angles == [Fraction(47, 48), Fraction(23, 48), Fraction(1, 24)]


def test_t_matrix_zero_case():
    d = ModularDatum(Fraction(0), (ModuleInfo("1", Fraction(0)),), np.eye(1))
    assert t_matrix(d)[0].angle == 0


def test_phase_arithmetic():
    # angles reduce mod 1, so phases compare exactly
    assert Phase(Fraction(4, 3)) == Phase(Fraction(1, 3))
    assert Phase(Fraction(-1, 4)).angle == Fraction(3, 4)
    assert Phase(Fraction(1, 2)).value == pytest.approx(-1 + 0j)


# ---------------------------------------------------------------------------
# Verlinde fusion
# ---------------------------------------------------------------------------

def brute_force_fusion(datum):
    """Oracle: the plain triple-sum, no vectorization shared with the library."""
    s = datum.s_matrix
    n = datum.rank
    out = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for m in range(n):
                acc = 0j
                for l in range(n):
                    acc += s[i, l] * s[j, l] * np.conj(s[m, l]) / s[0, l]
                out[i, j, m] = acc
    return out


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_fusion_matches_brute_force(name):
    d = fixtures.load(name)
    tensor = verlinde_fusion(d)
    oracle = brute_force_fusion(d)
    assert_allclose(tensor.table, oracle.real, atol=1e-9)
    assert np.max(np.abs(oracle.imag)) < 1e-9
    assert tensor.residual < 1e-9


def test_ising_fusion_rules(ising):
    table = verlinde_fusion(ising).table
    # sigma x sigma = 1 + eps
    assert table[2, 2, 0] == 1 and table[2, 2, 1] == 1 and table[2, 2, 2] == 0
    # eps x eps = 1, eps x sigma = sigma
    assert table[1, 1, 0] == 1 and list(table[1, 2]) == [0, 0, 1]


def test_fibonacci_fusion_rules(fibonacci):
    table = verlinde_fusion(fibonacci).table
    # tau x tau = 1 + tau
    assert table[1, 1, 0] == 1 and table[1, 1, 1] == 1


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_fusion_identity_and_symmetry(name):
    d = fixtures.load(name)
    table = verlinde_fusion(d).table
    n = d.rank
    assert np.array_equal(table[0], np.eye(n, dtype=int))
    assert np.array_equal(table, table.transpose(1, 0, 2))
    assert np.min(table) >= 0


def test_fusion_rejects_zero_vacuum_entry():
    d = ModularDatum(
        Fraction(0),
        (ModuleInfo("1", Fraction(0)), ModuleInfo("x", Fraction(1, 2))),
        np.eye(2),
    )
    with pytest.raises(InvalidDatum, match="near-zero"):
        verlinde_fusion(d)


# ---------------------------------------------------------------------------
# quantum dimensions
# ---------------------------------------------------------------------------

def test_quantum_dimensions_ising(ising):
    qdim, glob = quantum_dimensions(ising)
    assert qdim[0] == 1.0
    assert_allclose(qdim, [1.0, 1.0, np.sqrt(2)], atol=1e-12)
    assert glob == pytest.approx(4.0, abs=1e-12)


def test_quantum_dimensions_fibonacci(fibonacci):
    qdim, glob = quantum_dimensions(fibonacci)
    phi = (1 + np.sqrt(5)) / 2
    assert_allclose(qdim, [1.0, phi], atol=1e-12)
    assert glob == pytest.approx((5 + np.sqrt(5)) / 2, abs=1e-12)


def test_quantum_dimensions_trivial(holo8):
    qdim, glob = quantum_dimensions(holo8)
    assert list(qdim) == [1.0]
    assert glob == 1.0


@pytest.mark.parametrize("name", fixtures.NAMES)
def test_global_dimension_inverse_square(name):
    d = fixtures.load(name)
    _, glob = quantum_dimensions(d)
    assert glob == pytest.approx(1 / abs(d.s_matrix[0, 0]) ** 2, rel=1e-9)
