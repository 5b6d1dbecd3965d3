import importlib.util
import itertools
import json
import time
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from orbmod import fixtures, modular_data
from orbmod.modular_data import (
    DEFAULT_EPS,
    DEFAULT_EPS_INT,
    CheckResult,
    FusionTensor,
    InvalidDatum,
    ModularDatum,
    ModuleInfo,
    Phase,
    modular_datum_to_dict,
    parse_modular_datum,
    parse_rational,
    quantum_dimensions,
    t_matrix,
    validate_modular_datum,
    validation_bytes,
    verlinde_fusion,
)
from orbmod.perm_orbifold import build_orbifold_datum

from conftest import rational_data

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

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
        # a JSON bool is not a rational number
        pytest.param(json.dumps(dict(MINIMAL, central_charge=True)), id="bool-rational"),
        # json refuses ints of more than 4300 digits, and recursion past its limit
        pytest.param('{"central_charge": ' + "1" * 4400 + "}", id="int-of-4400-digits"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000-deep"),
        # rationals whose numerator or denominator str() could not print
        pytest.param(json.dumps(dict(MINIMAL, central_charge="8e5000")), id="c-8e5000"),
        pytest.param(json.dumps(dict(MINIMAL, central_charge="1e10000000")), id="c-1e10000000"),
        pytest.param(json.dumps(dict(MINIMAL, central_charge="-3e-10000000")), id="c-3e-10000000"),
        pytest.param(json.dumps(dict(MINIMAL, central_charge="1" + "0" * 4300)), id="c-4301-digits"),
        pytest.param(
            json.dumps(dict(MINIMAL, central_charge="0." + "0" * 4299 + "1")),
            id="c-denominator-4301-digits",
        ),
        pytest.param(
            json.dumps(dict(MINIMAL, modules=[{"label": "1", "h": "1e-5000"}])), id="h-1e-5000"
        ),
        pytest.param(json.dumps(dict(MINIMAL, central_charge="1e 5")), id="c-spaced-exponent"),
        pytest.param(json.dumps(dict(MINIMAL, central_charge="1/2e3")), id="c-fraction-exponent"),
        # entries that are no decimal, S entries that are no {"re", "im"} object
        pytest.param(json.dumps(dict(MINIMAL, S=[[{"re": None, "im": "0"}]])), id="re-null"),
        pytest.param(json.dumps(dict(MINIMAL, S=[[{"re": [1], "im": "0"}]])), id="re-list"),
        pytest.param(json.dumps(dict(MINIMAL, S=[["1"]])), id="entry-string"),
        pytest.param(json.dumps(dict(MINIMAL, S=[[{"re": "1"}]])), id="entry-without-im"),
        pytest.param(json.dumps(dict(MINIMAL, modules=[{"label": "1"}])), id="module-without-h"),
        pytest.param(json.dumps(dict(MINIMAL, modules=["1"])), id="module-string"),
        pytest.param(json.dumps(dict(MINIMAL, S="1")), id="S-string"),
        pytest.param(json.dumps(dict(MINIMAL, S=[{"re": "1", "im": "0"}])), id="S-row-object"),
        # labels are JSON strings; str() made null the label "None"
        pytest.param(json.dumps(dict(MINIMAL, modules=[{"label": None, "h": "0"}])), id="label-null"),
        pytest.param(json.dumps(dict(MINIMAL, modules=[{"label": 5, "h": "0"}])), id="label-int"),
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(InvalidDatum):
        parse_modular_datum(text)


def test_parse_names_the_module_of_a_non_string_label():
    # str() made these the duplicate labels ['None']
    doc = {
        "central_charge": "1/2",
        "modules": [{"label": "None", "h": "0"}, {"label": None, "h": "1/2"}],
        "S": [[{"re": "1", "im": "0"}] * 2] * 2,
    }
    with pytest.raises(InvalidDatum, match=r"^module #1 label must be a string, not NoneType$"):
        parse_modular_datum(doc)


@pytest.mark.parametrize(
    "text", ["8e5000", "1e-5000", "1e10000000", "-1e-99999999999", "1e4300", "1e-4300"]
)
def test_parse_rational_refuses_out_of_range_before_expanding(text):
    # Fraction("1e10000000") alone takes seconds
    start = time.perf_counter()
    with pytest.raises(InvalidDatum, match=r"^rational number out of range \(more than 4300 digits\): "):
        parse_rational(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "text",
    ["1e4299", "1e-4299", "-2.5E+2", "1_0e1_0", ".5e1", "1.e2", "0e99999999", "-0.0e-99999999"],
)
def test_parse_rational_reads_exponents_as_fraction_does(text):
    expected = Fraction(0) if text.endswith("99999999") else Fraction(text)
    assert parse_rational(text) == expected


def test_parse_rational_messages():
    with pytest.raises(InvalidDatum, match=r"^not a rational number: '1/0'$"):
        parse_rational("1/0")
    with pytest.raises(InvalidDatum, match=r"^rational number out of range .*: 'int'$"):
        parse_rational(10**4300)
    assert parse_rational(10**4300 - 1) == 10**4300 - 1


@pytest.mark.parametrize(
    "modules,s,message",
    [
        ((), np.zeros((0, 0)), "at least one module"),
        ((ModuleInfo("1", 0),), np.ones(1), "must be square"),
        ((ModuleInfo("1", 0),), np.ones((1, 2)), "must be square"),
        ((ModuleInfo("1", 0), ModuleInfo("x", 1)), np.ones((1, 1)), "dimension mismatch"),
        ((ModuleInfo("1", 0),), np.array([[np.nan]]), "must be finite"),
        ((ModuleInfo("1", 0),), np.array([[1j * np.inf]]), "must be finite"),
    ],
)
def test_modular_datum_rejects_broken_shapes(modules, s, message):
    with pytest.raises(InvalidDatum, match=message):
        ModularDatum(0, modules, s)


@pytest.mark.parametrize(
    "entry",
    [
        {"re": "nan", "im": "0"},
        {"re": "1", "im": "-inf"},
        {"re": float("inf"), "im": 0},
        {"re": 10**400, "im": 0},  # an int beyond the float range
    ],
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


def parse_entry_by_entry(doc):
    """S as ``parse_modular_datum`` read it before its flat pass: one
    ``_parse_complex`` per entry, in row-major order."""
    raw = doc["S"]
    n = len(raw)
    return np.array(
        [[modular_data._parse_complex(raw[i][j], f"S[{i}][{j}]") for j in range(n)] for i in range(n)],
        dtype=complex,
    )


# texts that repeat, and zeros whose sign must survive one parse per text
repeated_texts = st.sampled_from(["-0.0", "0.0", "0", "-0", "0.5", " 0.5", "-1e-3"])
good_values = st.one_of(
    repeated_texts,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**300), 10**300),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"\A *[-+]?\d{1,4}(\.\d{0,4})?([eE][-+]?\d{1,2})? *\Z"),
)
# values that are a string or number but no finite float
non_finite_values = st.sampled_from(["nan", "inf", "-Infinity", "1e400", float("inf"), float("nan"), 10**400])
bad_values = st.one_of(
    non_finite_values,
    st.booleans(),
    st.none(),
    st.sampled_from(["one", "", "0x1", [1], {}]),
)


@st.composite
def s_documents(draw):
    n = draw(st.integers(1, 3))
    # a quarter of the documents are clean and take the flat pass
    flaw = draw(st.sampled_from(["none", "non-finite", "value", "entry"]))
    values = {
        "none": good_values,
        "non-finite": st.one_of(good_values, non_finite_values),
        "value": st.one_of(good_values, bad_values),
        "entry": st.one_of(good_values, bad_values),
    }[flaw]
    entry = st.fixed_dictionaries(
        {"re": values, "im": values}, optional={"note": st.text(max_size=2)}
    )
    if flaw == "entry":
        entry = st.one_of(
            entry,
            st.fixed_dictionaries({"im": values}),  # no "re"
            st.sampled_from(["1", 1, None, [], [{"re": "1", "im": "0"}]]),
        )
    return {
        "central_charge": "0",
        "modules": [{"label": str(i), "h": "0"} for i in range(n)],
        "S": draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)),
    }


def s_document(rows):
    n = len(rows)
    return {
        "central_charge": "0",
        "modules": [{"label": str(i), "h": "0"} for i in range(n)],
        "S": [[{"re": re, "im": im} for re, im in row] for row in rows],
    }


@given(s_documents())
@example(s_document([[("-0.0", "0.0"), ("0", "-0.0")], [("0", "-0.0"), ("0.0", "0")]]))
@example(s_document([[("0", -0.0), (0, "-0.0")], [(-0.0, 0), ("0.0", 0.0)]]))
@example(s_document([[("0.5", "x"), ("0.5", "0.5")], [("0.5", "0.5"), ("0.5", "0.5")]]))
def test_flat_parse_agrees_with_parse_entry_by_entry(doc):
    try:
        expected = parse_entry_by_entry(doc)
    except InvalidDatum as exc:
        with pytest.raises(InvalidDatum) as caught:
            parse_modular_datum(doc)
        assert str(caught.value) == str(exc)
    else:
        assert parse_modular_datum(doc).s_matrix.tobytes() == expected.tobytes()


def test_flat_parse_takes_clean_documents():
    # the fast path is taken, not only agreed with, when every part is a string
    raw = modular_datum_to_dict(fixtures.load("ising"))["S"]
    raw[0][1] = {"re": "0.5", "im": "0", "note": "x"}
    raw[1][1] = {"re": "-0.0", "im": " 5e-324 "}
    flat = modular_data._flat_s(raw)
    assert flat is not None
    assert flat.tobytes() == parse_entry_by_entry({"S": raw}).tobytes()
    raw[0][1] = {"re": 0.5, "im": 0}  # number parts take the per-entry path
    assert modular_data._flat_s(raw) is None
    raw[0][1] = {"re": "0.5", "im": "0"}
    raw[2][2] = {"re": True, "im": "0"}
    assert modular_data._flat_s(raw) is None


@pytest.mark.parametrize(
    "part, message",
    [
        (True, "bad decimal value True in S[1][2]"),
        (1, None),
        (0.5, None),
        ({"x": "1"}, "bad decimal value {'x': '1'} in S[1][2]"),
        (["1"], "bad decimal value ['1'] in S[1][2]"),
    ],
)
def test_part_that_is_not_a_string_takes_the_per_entry_path(part, message):
    # a number part is read as a number, any other part is refused, with
    # the message of the per-entry parse; unhashable parts included
    doc = modular_datum_to_dict(fixtures.load("ising"))
    doc["S"][1][2] = {"re": part, "im": "0"}
    assert modular_data._flat_s(doc["S"]) is None
    if message is None:
        assert parse_modular_datum(doc).s_matrix.tobytes() == parse_entry_by_entry(doc).tobytes()
    else:
        with pytest.raises(InvalidDatum) as caught:
            parse_modular_datum(doc)
        assert str(caught.value) == message


def test_flat_parse_reads_rectangular_rows_only():
    one, half = {"re": "1", "im": "0"}, {"re": "0.5", "im": "-0.5"}
    flat = modular_data._flat_s([[one, half, one], [half, one, half]])
    assert flat.tobytes() == np.array([[1, 0.5 - 0.5j, 1], [0.5 - 0.5j, 1, 0.5 - 0.5j]]).tobytes()
    assert modular_data._flat_s([[one, half], [one]]) is None
    assert modular_data._flat_s([[one], one]) is None
    assert modular_data._flat_s({"re": "1", "im": "0"}) is None


def entry_document(entry):
    """A 2 x 2 S whose entry [1][0] is ``entry``; the other entries share
    their texts with it and hold both signs of zero."""
    doc = s_document([[("0.5", "-0.0"), ("0.0", "0.5")], [("0", "0"), ("-0.0", "0.0")]])
    doc["S"][1][0] = entry
    return doc


@pytest.mark.parametrize(
    "entry",
    [
        {"re": "0.5", "im": "-0.25"},
        {"im": "-0.25", "re": "0.5"},
        {"note": "1", "re": "0.5", "label": "x", "im": "-0.25", "z": None},
        {"re": "0.5", "im": "0.5"},
        {"re": "-0.0", "im": "0.0"},
        {"re": "0.0", "im": "-0.0"},
        {"re": "1_0", "im": "-2_5.0_1"},
    ],
    ids=["re-first", "im-first", "extra-keys", "one-text", "-0.0,0.0", "0.0,-0.0", "underscores"],
)
def test_flat_parse_reads_each_part_as_the_per_entry_parse(entry):
    doc = entry_document(entry)
    flat = modular_data._flat_s(doc["S"])
    assert flat is not None
    assert np.array_equal(flat.view(np.int64), parse_entry_by_entry(doc).view(np.int64))
    assert float(entry["re"]) == flat[1, 0].real and float(entry["im"]) == flat[1, 0].imag


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"re": "nan", "im": "0"}, "non-finite complex value {'re': 'nan', 'im': '0'} in S[1][0]"),
        ({"re": "1"}, 'expected {"re": ..., "im": ...} in S[1][0]'),
        ({"re": "1", "im": None}, "bad decimal value None in S[1][0]"),
        ({"re": b"1", "im": "0"}, "bad decimal value b'1' in S[1][0]"),
    ],
)
def test_entries_the_flat_parse_refuses_keep_their_messages(entry, message):
    doc = entry_document(entry)
    assert modular_data._flat_s(doc["S"]) is None
    with pytest.raises(InvalidDatum) as caught:
        parse_modular_datum(doc)
    assert str(caught.value) == message


def test_serialization_round_trip(ising):
    back = parse_modular_datum(json.dumps(modular_datum_to_dict(ising)))
    assert back.central_charge == ising.central_charge
    assert back.weights == ising.weights
    assert back.labels == ising.labels
    assert np.array_equal(back.s_matrix, ising.s_matrix)


# finite parts, the edges of the float range among them
finite_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=50)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.builds(complex, finite_parts, finite_parts), min_size=n * n, max_size=n * n)
))
@example([complex(-0.0, 5e-324), complex(1e308, -1e308), complex(-5e-324, 0.0), complex(0.0, -0.0)])
def test_written_s_parses_to_the_same_bits(entries):
    n = int(len(entries) ** 0.5)
    s = np.array(entries, dtype=complex).reshape(n, n)
    d = ModularDatum(0, [ModuleInfo(f"m{i}", 0 if i == 0 else Fraction(i, 7)) for i in range(n)], s)
    text = b"".join(modular_data._dump_json(modular_data._datum_document(d))).decode("ascii")
    assert parse_modular_datum(text).s_matrix.tobytes() == s.tobytes()


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


class _SquaresTo(np.ndarray):
    """The identity, unitary and symmetric, whose ``S @ S`` reads as the
    matrix ``square``: it feeds ``_s_checks`` any rounded S**2."""

    def __matmul__(self, other):
        return self.square if other is self else np.asarray(self) @ np.asarray(other)


def old_is_permutation(rounded):
    """The charge-conjugation test before the permutation was read by
    ``argmax``: a 0/1 matrix whose rows and columns each sum to 1."""
    return bool(
        np.all((rounded == 0) | (rounded == 1))
        and np.all(rounded.sum(axis=0) == 1)
        and np.all(rounded.sum(axis=1) == 1)
    )


def s2_families():
    """Random real squares with n <= 6 and entries in {0, -0.0, 1, 2, -1,
    inf, 0.5}, mostly 0 and 1; then every permutation matrix with n <= 6,
    once with -0.0 for its zeros."""
    rng = np.random.default_rng(2009_02612)
    values = np.array([0.0, -0.0, 1.0, 2.0, -1.0, np.inf, 0.5])
    weights = np.array([8, 2, 4, 1, 1, 1, 1]) / 18
    for _ in range(6000):
        n = int(rng.integers(1, 7))
        yield rng.choice(values, size=(n, n), p=weights)
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            m = np.eye(n)[list(perm)]
            yield m
            yield np.where(m == 0, -0.0, m)


def test_charge_conjugation_reads_the_permutation_of_the_old_test():
    seen = {True: 0, False: 0}
    for square in s2_families():  # inf - inf warns
        with np.errstate(invalid="ignore"):
            seen[check_the_square(square)] += 1
    assert seen[True] >= 1746 and seen[False] > 1000


def check_the_square(square):
    """``_s_checks`` on an S whose square reads as ``square`` gives the old
    test's verdict and map; returns the verdict."""
    s = np.eye(len(square), dtype=complex).view(_SquaresTo)
    s.square = square.astype(complex)
    unitary, symmetric, charge, _, conjugation = modular_data._s_checks(s, DEFAULT_EPS)
    assert unitary.passed and symmetric.passed
    rounded = np.round(square)
    is_perm = old_is_permutation(rounded)
    assert charge.detail == ("" if is_perm else "rounded S^2 is not a permutation matrix")
    res = float(np.max(np.abs(square - rounded)))
    assert charge.passed == (res <= DEFAULT_EPS and is_perm)
    if charge.passed:
        assert np.array_equal(conjugation, rounded.argmax(axis=0))
    else:
        assert conjugation is None
    return charge.passed


def test_validation_report_keeps_fusion_tensor(fibonacci):
    assert validate_modular_datum(fibonacci).fusion is None  # not asked for
    report = validate_modular_datum(fibonacci, keep_fusion=True)
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


@given(rational_data)
def test_t_phases_on_integers_are_the_exact_phases(d):
    # the reference: the angle h - c/24 as a Fraction, then its Phase
    angles = [h - d.central_charge / 24 for h in d.weights]
    assert [p.angle for p in t_matrix(d)] == [a % 1 for a in angles]
    expected = np.array([Phase(a).value for a in angles])
    assert modular_data._t_phases(d).tobytes() == expected.tobytes()
    assert modular_data._t_phases(d).tobytes() == np.array([p.value for p in t_matrix(d)]).tobytes()


@given(st.integers(-(10**60), 10**60), st.integers(1, 10**50), st.integers(1, 10**6))
def test_phase_of_unreduced_terms_is_the_phase_of_the_fraction(num, den, scale):
    got = np.array([modular_data._phase(num * scale, den * scale)])
    assert got.tobytes() == np.array([Phase(Fraction(num, den)).value]).tobytes()


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


def load_inputs():
    # the benchmark's generated source families, defined once in perfbench
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = load_inputs()


@cache
def family_datum(name, k):
    """A generated source datum (k = 1) or its k-fold permutation orbifold;
    ``name`` is a source spec of ``perfbench/inputs.py`` with ``_`` for ``:``."""
    d = INPUTS.source(name.replace("_", ":"))
    return d if k == 1 else build_orbifold_datum(d, k, "minus").datum


def einsum_fusion(d, keep_table=True, conjugation=None):
    """Oracle: the three-operand einsum over ``conj(S)``, rounded the way
    the library rounds; it always keeps its table and ignores the
    conjugation that validation hands the kernel."""
    s = d.s_matrix
    raw = np.einsum("il,jl,ml->ijm", s, s, s.conj() / s[0])
    rounded = np.round(raw.real)
    table = rounded.astype(int)
    return FusionTensor(table, float(np.max(np.abs(raw - rounded))), table.min())


def verdicts(report):
    return [(c.name, c.passed) for c in report.checks]


ORACLE_CASES = [
    ("su2_1", 1, 2), ("su2_1", 2, 9), ("su2_1", 3, 20),
    ("su2_2", 2, 15), ("su2_2", 3, 35),
    ("su2_3", 1, 4), ("su2_3", 2, 22), ("su2_3", 3, 56),
    ("su2_4", 3, 85), ("su2_10", 1, 11), ("su2_10", 2, 99),
    ("u1_4", 1, 4), ("u1_4", 2, 22), ("u1_4", 3, 56),
    ("u1_6", 1, 6), ("u1_6", 2, 39), ("u1_8", 2, 60),
    ("su2_1*u1_4", 1, 8), ("su2_1*u1_4", 2, 60),
]


@pytest.mark.parametrize("name,k,rank", ORACLE_CASES)
def test_fusion_matches_einsum_oracle(name, k, rank, monkeypatch):
    d = family_datum(name, k)
    assert d.rank == rank
    tensor = verlinde_fusion(d)
    oracle = einsum_fusion(d)
    assert np.array_equal(tensor.table, oracle.table)
    assert abs(tensor.residual - oracle.residual) <= 1e-13
    assert tensor.residual <= DEFAULT_EPS_INT

    report = validate_modular_datum(d)
    monkeypatch.setattr(modular_data, "verlinde_fusion", einsum_fusion)
    assert verdicts(report) == verdicts(validate_modular_datum(d))
    assert report.ok


@pytest.mark.parametrize("n", [1, 2, 31, 32, 39, 85, 99, 181, 428])
def test_fusion_blocks_are_whole_columns_of_few_pairs(n):
    cuts = modular_data._column_blocks(n)
    assert cuts[0] == 0 and cuts[-1] == n
    most = max(1, 2**14 // n)
    for j0, j1 in pairwise(cuts):
        pairs = (j1 * (j1 + 1) - j0 * (j0 + 1)) // 2  # i <= j for j0 <= j < j1
        assert pairs <= most or j1 == j0 + 1
        assert j1 == n or pairs + j1 + 1 > most  # the next column did not fit
    # one block multiplies every column, so only larger data take the
    # symmetric form's saving
    assert (len(cuts) == 2) == (n <= 31)


def gather_fusion(d, keep_table=True, conjugation=None, blocks=None):
    """Reference: ``verlinde_fusion`` as it gathered each block's products
    ``S_il S_jl`` by the pair indices ``i <= j``, one fancy index per
    factor, with the same blocks, forms and matrix products.  Each block's
    raw coefficients are appended to ``blocks`` when it is given."""
    s = d.s_matrix
    n = d.rank
    cuts = modular_data._column_blocks(n)
    symmetric = conjugation is not None and len(cuts) > 2
    w = ((s if symmetric else s.conj()) / s[0]).T
    ju = np.repeat(np.arange(n), np.arange(1, n + 1))
    iu = np.arange(len(ju)) - ju * (ju + 1) // 2
    table = np.empty((n, n, n), dtype=int) if keep_table else None
    residual, smallest = 0.0, np.inf
    for j0, j1 in pairwise(cuts):
        pairs = slice(j0 * (j0 + 1) // 2, j1 * (j1 + 1) // 2)
        i, j = iu[pairs], ju[pairs]
        k0 = j0 if symmetric else 0
        raw = (s[i] * s[j]) @ w[:, k0:]
        if blocks is not None:
            blocks.append(raw.copy())
        r = np.rint(raw.real)
        smallest = np.minimum(smallest, r.min())
        raw.real -= r
        residual = np.maximum(residual, abs(raw).max())
        if table is not None:
            table[i, j, k0:] = r
            table[j, i, k0:] = r
    if table is not None and symmetric:
        # Ñ[a, b, c] is held at its sorted indices; N[a, b, m] = Ñ[a, b, m̄]
        full = np.empty_like(table)
        b, c = np.indices((n, n))
        for a in range(n):
            x, y, z = np.sort(np.stack([np.full_like(b, a), b, c]), axis=0)
            full[a] = table[x, y, z][:, conjugation]
        table = full
    return FusionTensor(table, residual, smallest)


def random_datum(n, seed):
    """A datum of ``n`` modules whose complex S has no structure at all."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    s[0] = np.abs(s[0]) + 0.5
    modules = [ModuleInfo(str(i), Fraction(i, n)) for i in range(n)]
    return ModularDatum(Fraction(0), modules, s)


def fusion_bits(tensor):
    return (
        np.float64(tensor.residual).view(np.int64),
        np.float64(tensor.smallest).view(np.int64),
    )


def read_conjugation(d):
    """The charge conjugation that validation hands the kernel, or ``None``."""
    return modular_data._s_checks(d.s_matrix, DEFAULT_EPS)[-1]


def assert_same_fusion(d, monkeypatch, conjugation):
    """``verlinde_fusion`` and the gather form give the same tensor, and
    every block's raw coefficients have the same bits."""
    blocks = []
    rounded = modular_data._rounded
    monkeypatch.setattr(
        modular_data, "_rounded", lambda raw, *folded: blocks.append(raw.copy()) or rounded(raw, *folded)
    )
    for keep in (False, True):
        blocks.clear()
        expected = []
        new = verlinde_fusion(d, keep_table=keep, conjugation=conjugation)
        old = gather_fusion(d, keep_table=keep, conjugation=conjugation, blocks=expected)
        assert len(blocks) == len(expected) == len(modular_data._column_blocks(d.rank)) - 1
        for raw, reference in zip(blocks, expected):
            assert raw.shape == reference.shape
            assert np.array_equal(raw.view(np.int64), reference.view(np.int64))
        assert fusion_bits(new) == fusion_bits(old)
        if keep:
            assert new.table.dtype == old.table.dtype
            assert np.array_equal(new.table, old.table)
        else:
            assert new.table is None


FIXTURE_ORBIFOLDS = [("ising", 3, 35), ("fibonacci", 5, 56), ("ising", 5, 123)]


@pytest.mark.parametrize("name,k,rank", FIXTURE_ORBIFOLDS)
def test_fusion_has_the_bits_of_the_gathered_products(name, k, rank, monkeypatch):
    d = family_datum(f"fix_{name}", k)
    assert d.rank == rank
    conjugation = read_conjugation(d)
    assert (conjugation != np.arange(rank)).any()  # a nontrivial m̄
    assert_same_fusion(d, monkeypatch, conjugation)
    # a row scaled so that S fails `unitary`: the conj(S) form
    s = np.array(d.s_matrix)
    s[rank // 2] *= 1.001
    broken = ModularDatum(d.central_charge, d.modules, s)
    assert read_conjugation(broken) is None
    assert_same_fusion(broken, monkeypatch, None)


@pytest.mark.parametrize("name,k,rank", FIXTURE_ORBIFOLDS)
def test_fusion_takes_the_symmetric_form_only_when_handed_the_map(name, k, rank):
    d = family_datum(f"fix_{name}", k)
    assert d.rank == rank
    kept = validate_modular_datum(d, keep_fusion=True).fusion
    direct = verlinde_fusion(d, conjugation=read_conjugation(d))
    assert np.array_equal(direct.table, kept.table)
    assert fusion_bits(direct) == fusion_bits(kept)
    # with no map the kernel sums over conj(S), whatever the datum
    default, reference = verlinde_fusion(d), gather_fusion(d)
    assert np.array_equal(default.table, reference.table)
    assert fusion_bits(default) == fusion_bits(reference)


@pytest.mark.parametrize("name,k,rank", [("su2_4", 3, 85), ("fix_ising", 5, 123)])
def test_validation_does_a_third_of_the_verlinde_work(name, k, rank, monkeypatch):
    # multiply-adds, not times: rows x N x columns of each block's product
    d = family_datum(name, k)
    assert d.rank == rank
    shapes = []
    rounded = modular_data._rounded
    monkeypatch.setattr(
        modular_data, "_rounded", lambda raw, *folded: shapes.append(raw.shape) or rounded(raw, *folded)
    )

    def multiply_adds(run):
        shapes.clear()
        run()
        return sum(rows * rank * columns for rows, columns in shapes)

    assert multiply_adds(lambda: validate_modular_datum(d)) <= rank**4 / 5
    assert multiply_adds(lambda: validate_modular_datum(d, keep_fusion=True)) <= rank**4 / 5
    assert multiply_adds(lambda: verlinde_fusion(d)) >= rank**4 / 2


@pytest.mark.parametrize("n", [*range(1, 32), 32, 40])
def test_fusion_of_small_data_has_the_bits_of_the_gathered_products(n, monkeypatch):
    # one block up to N = 31; the raw products of an unstructured S, in both
    # forms, with an arbitrary conjugation handed to the kernel
    d = random_datum(n, seed=n)
    assert_same_fusion(d, monkeypatch, conjugation=None)
    assert_same_fusion(d, monkeypatch, conjugation=np.random.default_rng(n).permutation(n))


@pytest.fixture
def completed(monkeypatch):
    """The conjugations with which verlinde_fusion completes symmetric-form
    tables, one per table: it does so only in that form."""
    calls = []
    complete = modular_data._complete_table
    monkeypatch.setattr(
        modular_data, "_complete_table", lambda t, c: calls.append(c) or complete(t, c)
    )
    return calls


# U(1)_{2m} and Deligne data whose charge conjugation is not the identity,
# at ranks of one and of several blocks
CONJUGATE_CASES = [
    ("u1_4", 1, 4), ("u1_4", 2, 22), ("u1_4", 3, 56),
    ("u1_6", 1, 6), ("u1_6", 2, 39), ("u1_8", 1, 8), ("u1_8", 2, 60),
    ("su2_1*u1_4", 1, 8), ("su2_1*u1_4", 2, 60), ("su2_1*u1_2", 3, 56),
]


@pytest.mark.parametrize("name,k,rank", CONJUGATE_CASES)
def test_symmetric_form_keeps_the_table_under_conjugation(name, k, rank, completed):
    d = family_datum(name, k)
    assert d.rank == rank
    conjugation = read_conjugation(d)
    assert (conjugation != np.arange(rank)).any()
    oracle = einsum_fusion(d)
    report = validate_modular_datum(d, keep_fusion=True)
    assert report.ok
    for tensor in (report.fusion, verlinde_fusion(d, conjugation=conjugation), verlinde_fusion(d)):
        assert np.array_equal(tensor.table, oracle.table)
        assert abs(tensor.residual - oracle.residual) <= 1e-13
    # the symmetric form ran, with the conjugation read off S^2, whenever
    # there was more than one block
    symmetric = len(modular_data._column_blocks(rank)) > 2
    assert len(completed) == 2 * symmetric
    assert all(np.array_equal(c, conjugation) for c in completed)


def off_form_data():
    """Data on either side of the three checks that select the symmetric
    form: each fails one of them, or passes ``symmetric`` only within 1e-12."""
    d = family_datum("u1_4", 3)  # N = 56, complex S, nontrivial conjugation
    s = d.s_matrix
    skew = np.random.default_rng(20).uniform(-0.5, 0.5, s.shape)
    skew -= skew.T
    real = family_datum("su2_5", 2)  # N = 39, real S, two blocks
    return {
        "not unitary": (d, s * 1.001),
        "not symmetric": (d, s + 1e-6 * skew),
        "S^2 not a permutation": (d, s * np.exp(0.1j)),
        # for a real S with m̄ = m both forms sum the same terms
        "symmetric within 1e-12": (real, real.s_matrix + 0.5e-12 * skew[:39, :39]),
    }


@pytest.mark.parametrize("case", list(off_form_data()))
def test_off_form_data_keep_the_oracle_verdicts(case, completed, monkeypatch):
    d, s = off_form_data()[case]
    d = ModularDatum(d.central_charge, d.modules, s)
    report = validate_modular_datum(d)
    kept = validate_modular_datum(d, keep_fusion=True)
    # only the datum that passes the three checks takes the symmetric form
    assert bool(completed) == (case == "symmetric within 1e-12")
    monkeypatch.setattr(modular_data, "verlinde_fusion", einsum_fusion)
    oracle = validate_modular_datum(d, keep_fusion=True)
    assert [(c.name, c.passed, c.detail) for c in report.checks] == [
        (c.name, c.passed, c.detail) for c in oracle.checks
    ]
    fusion = report["fusion_integrality"]
    assert abs(fusion.residual - oracle["fusion_integrality"].residual) <= 1e-13
    assert check_bits(fusion) == check_bits(kept["fusion_integrality"])
    assert np.array_equal(kept.fusion.table, oracle.fusion.table)
    symmetric = report["symmetric"]
    assert symmetric.passed == (case != "not symmetric")
    if case == "symmetric within 1e-12":
        assert 1e-13 < symmetric.residual <= 1e-12 and report.ok
        assert 1e-13 < fusion.residual < 1e-10
    else:
        assert not report.ok


def table_path_check(d):
    """The ``fusion_integrality`` row as validation made it from the
    stored table before it streamed the table's blocks."""
    try:
        tensor = verlinde_fusion(d, conjugation=read_conjugation(d))
    except InvalidDatum as exc:
        return CheckResult("fusion_integrality", False, float("inf"), str(exc))
    nonneg = bool(np.min(tensor.table) >= 0)
    detail = "" if nonneg else "rounded fusion coefficients contain negatives"
    return CheckResult(
        "fusion_integrality", tensor.residual <= DEFAULT_EPS_INT and nonneg, tensor.residual, detail
    )


def check_bits(check):
    # a NaN residual compares by its bits
    return check.name, check.passed, np.float64(check.residual).tobytes(), check.detail


def two_module_datum(s):
    return ModularDatum(
        Fraction(0), (ModuleInfo("1", Fraction(0)), ModuleInfo("x", Fraction(1, 2))), s
    )


a = 1e-13  # a vacuum entry too close to zero for the Verlinde formula
EDGE_DATA = {
    "near-zero vacuum row": two_module_datum([[a, (1 - a * a) ** 0.5], [(1 - a * a) ** 0.5, -a]]),
    # S_1l**2 = 1e400 overflows; the raw coefficients hold inf - inf
    "NaN residual": two_module_datum([[1.0, 1e200], [1e200, 1.0]]),
    # N_11^1 = b**3 / a - a**3 / b = -1.58 rounds to -2
    "negative coefficient": two_module_datum([[0.9, 0.19**0.5], [0.19**0.5, -0.9]]),
}


@pytest.mark.parametrize(
    "d",
    [pytest.param(case, id=f"{case[0]}-{case[1]}") for case in ORACLE_CASES]
    + [pytest.param(d, id=name) for name, d in EDGE_DATA.items()],
)
def test_streamed_check_has_the_bits_of_the_table_path(d):
    if isinstance(d, tuple):
        d = family_datum(*d[:2])
    # the NaN datum overflows, and its table path casts NaN to int
    with np.errstate(over="ignore", invalid="ignore"):
        expected = check_bits(table_path_check(d))
        streamed = validate_modular_datum(d)["fusion_integrality"]
        kept = validate_modular_datum(d, keep_fusion=True)["fusion_integrality"]
    assert check_bits(streamed) == check_bits(kept) == expected


def test_edge_data_reach_their_edge():
    assert validate_modular_datum(EDGE_DATA["near-zero vacuum row"]).fusion is None
    with np.errstate(over="ignore", invalid="ignore"):
        nan_check = validate_modular_datum(EDGE_DATA["NaN residual"])["fusion_integrality"]
    assert np.isnan(nan_check.residual)
    assert nan_check.detail == "rounded fusion coefficients contain negatives"
    tensor = verlinde_fusion(EDGE_DATA["negative coefficient"])
    assert tensor.smallest == tensor.table.min() == -2


def test_streamed_fusion_keeps_no_table():
    d = family_datum("su2_3", 2)
    streamed = verlinde_fusion(d, keep_table=False)
    kept = verlinde_fusion(d)
    assert streamed.table is None
    assert streamed.residual == kept.residual
    assert streamed.smallest == kept.smallest == kept.table.min() == 0


def test_streamed_fusion_has_every_public_attribute():
    streamed = verlinde_fusion(family_datum("su2_3", 2), keep_table=False)
    names = [name for name in dir(streamed) if not name.startswith("_")]
    assert names == ["residual", "smallest", "table"]
    assert {name: getattr(streamed, name) for name in names} == {
        "residual": streamed.residual,
        "smallest": 0.0,
        "table": None,
    }


def test_validation_streams_verlinde_in_small_memory():
    d = family_datum("su2_10", 2)  # N = 99, a 7.8 MB table
    table_bytes = np.dtype(int).itemsize * d.rank**3
    peaks = {}
    for keep in (False, True):
        tracemalloc.start()
        try:
            validate_modular_datum(d, keep_fusion=keep)
            _, peaks[keep] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[False] < table_bytes / 2
    assert peaks[False] <= validation_bytes(d.rank)
    assert table_bytes < peaks[True] <= validation_bytes(d.rank, keep_fusion=True)


def test_validation_bytes_are_quadratic_unless_the_table_is_kept():
    n = 1000
    assert validation_bytes(2 * n) == 4 * validation_bytes(n)
    assert validation_bytes(n, keep_fusion=True) == validation_bytes(n) + 8 * n**3


def test_fusion_scratch_is_small_beside_the_table():
    d = family_datum("su2_10", 2)  # N = 99, a 7.8 MB table
    tracemalloc.start()
    try:
        tensor = verlinde_fusion(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tensor.table.nbytes + 4 * 2**20


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (1, 2, 2), (2, 2, 2, 2)])
def test_fusion_tensor_must_be_cubic(shape):
    with pytest.raises(ValueError, match="fusion tensor must be cubic"):
        FusionTensor(np.zeros(shape, dtype=int), 0.0, 0)


def test_fusion_tensor_keeps_an_int_table_without_copying():
    table = np.zeros((2, 2, 2), dtype=int)
    tensor = FusionTensor(table, 0.0, 0)
    assert tensor.table is table
    assert not table.flags.writeable


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
