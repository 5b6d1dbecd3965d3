"""The JSON encoder behind every CLI output and dict writer writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, which is kept here as
the reference."""

import json
import struct
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from orbmod import fixtures, modular_data
from orbmod.cli import main
from orbmod.modular_data import _dump_json, format_complex
from orbmod.modular_data import ModularDatum, ModuleInfo, modular_datum_to_dict
from orbmod.perm_orbifold import (
    build_orbifold_datum,
    orbifold_datum_to_dict,
    permutation_restriction_data,
)
from orbmod.restricted import (
    assemble_restricted_S,
    restricted_result_to_dict,
    restricted_spec_to_dict,
)


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dump(doc) -> str:
    """The text of the encoder's chunks, joined here."""
    chunks = list(_dump_json(doc))
    assert all(type(chunk) is bytes for chunk in chunks)
    return b"".join(chunks).decode("ascii")


texts = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t,é€😀'), st.characters()))
# small ints come from a table of precomputed strings; the rest do not
ints = st.one_of(st.integers(-3, 1100), st.integers())
floats = st.one_of(st.floats(), st.sampled_from([-0.0, 1e-300, 1e300, 5e-324]))
scalars = st.one_of(ints, floats, st.booleans(), st.none(), texts)
leaves = st.one_of(
    scalars,
    st.lists(ints),
    st.lists(texts),
    st.lists(st.one_of(ints, st.booleans())),  # True == 1, but prints as true
)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(texts, inner)
    ),
    max_leaves=15,
)


@given(documents)
def test_dump_json_matches_indented_json_dumps(doc):
    assert dump(doc) == reference(doc)


# arrays stand for S-matrices and fusion tables; 1 to 3 axes, some of length 0
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
int_arrays = hnp.arrays(np.int64, shapes, elements=st.one_of(st.integers(-3, 1100), st.integers(-2**63, 2**63 - 1)))
parts = st.one_of(floats, st.sampled_from([-1e300, 1.5, -2.0]))
complex_arrays = hnp.arrays(np.complex128, shapes, elements=st.builds(complex, parts, parts))
array_documents = st.recursive(
    st.one_of(scalars, int_arrays, complex_arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(texts, inner, max_size=3)),
    max_leaves=6,
)


def plain(o):
    """``o`` with each array in the form the encoder writes it as: its
    ``.tolist()``, with every complex number as its ``format_complex`` dict."""
    if isinstance(o, np.ndarray):
        return plain(o.tolist())
    if isinstance(o, dict):
        return {k: plain(v) for k, v in o.items()}
    if isinstance(o, list):
        return [plain(v) for v in o]
    return format_complex(o) if isinstance(o, complex) else o


@given(array_documents)
def test_dump_json_writes_arrays_as_their_plain_lists(doc):
    assert dump(doc) == reference(plain(doc))


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _int64(pattern: int) -> int:
    """A 64-bit pattern (here a NaN with a payload) as an int64."""
    return struct.unpack("<q", struct.pack("<Q", pattern))[0]


# matrices up to 16 x 16, so a grid row holds many cells of unequal width
wide_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=16)
# the digit-width edges of the small-int table, past it, and the int64 extremes
edge_ints = st.sampled_from(
    [0, 9, 10, 99, 100, 999, 1000, 1023, 1024, -1, -10, -1024, 2**63 - 1, -(2**63)]
)
wide_int_arrays = hnp.arrays(
    np.int64, wide_shapes, elements=st.one_of(edge_ints, st.integers(-(2**63), 2**63 - 1))
)
# complex parts as bit patterns, so NaNs of different payloads and -0.0 stay apart
edge_part_bits = st.sampled_from(
    [_bits(x) for x in (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1)]
    + [_bits(float("inf")), _bits(-float("inf")), _bits(float("nan"))]
    + [_int64(0x7FF8000000000001), _int64(0xFFF8000000000000), _int64(0x7FF0000000000001)]
)
wide_complex_arrays = hnp.arrays(
    np.int64,
    wide_shapes.map(lambda shape: (*shape, 2)),
    elements=st.one_of(edge_part_bits, st.floats().map(_bits)),
).map(lambda bits: bits.view(np.complex128)[..., 0])


@settings(max_examples=60)
@given(st.lists(st.one_of(wide_int_arrays, wide_complex_arrays), min_size=1, max_size=3))
@example([np.array([[[9, 0]], [[1023, 10]], [[1024, 5]], [[-1, 99]], [[100, 2**63 - 1]]])])
@example([np.array([[0, 9], [10, 1000]]).reshape(2, 2, 1)])
@example([
    np.array([[_bits(0.0), _bits(-0.0)], [_int64(0x7FF8000000000001), _bits(float("nan"))]])
    .view(np.complex128)
])
def test_dump_json_writes_wide_arrays_as_their_plain_lists(arrays):
    # one 3-axis array may hold matrices whose leaves differ in width
    doc = {"arrays": arrays}
    assert dump(doc) == reference(plain(doc))


@pytest.mark.parametrize("entries", [1, 5, 16])
def test_dump_json_splits_arrays_into_grids_anywhere(entries, monkeypatch):
    # a grid may end inside a matrix or span two, and has its own leaf table
    monkeypatch.setattr(modular_data, "_GRID_ENTRIES", entries)
    doc = {
        "ints": np.arange(24).reshape(2, 3, 4) * 47 - 100,
        "4d": np.array([0, 9, 10, 99, 100, 1023, 1024, 5] * 2).reshape(2, 2, 2, 2),
        "complex": np.append((np.arange(11) - 5.5) * (1 - 0.5j), -0.0).reshape(2, 2, 3),
        "vector": np.arange(7),
        "scalar": np.array(complex(-0.0, 1e300)),
    }
    assert dump(doc) == reference(plain(doc))


@pytest.mark.parametrize("entries", [1, 5, 16, 1 << 16])
def test_dump_json_cuts_same_width_grids_at_their_heads(entries, monkeypatch):
    # every leaf of each array has one width, so no cell holds a NUL and the
    # grids are cut at the padding of their row heads
    monkeypatch.setattr(modular_data, "_GRID_ENTRIES", entries)
    doc = {
        "one digit": np.arange(3 * 4 * 5).reshape(3, 4, 5) % 10,
        "three digits": (np.arange(16) + 100).reshape(2, 2, 2, 2),
        "negative": -np.arange(10, 34).reshape(2, 3, 4),
        "large": np.full((2, 3), 2**40),
        "complex": np.full((2, 2, 2), 0.5 + 1.5j),
        "vector": np.arange(7),
        "scalar": np.array(5),
    }
    assert dump(doc) == reference(plain(doc))


def test_dump_json_writes_nul_in_strings_escaped_next_to_arrays():
    # the array grids drop their NUL padding; a NUL in a string must stay
    doc = {
        "\x00": "\x00",
        "labels": ["a\x00b", "\x00"],
        "fusion": np.array([[[0, 1], [1023, 1024]]]),
        "S": np.array([[complex(-0.0, 0.5), complex(1.0, float("nan"))]]),
        "value": "x\x00",
    }
    text = dump(doc)
    assert "\x00" not in text
    assert text.count("\\u0000") == 5
    assert text == reference(plain(doc))


def test_dump_json_array_edge_values():
    doc = {
        "ints": np.array([[-1, 0, 1023], [1024, -(2**63), 2**63 - 1]]),
        "empty": [np.zeros((0,), int), np.zeros((2, 0, 3), complex)],
        "complex": np.array([[complex(-0.0, 5e-324), complex(1e300, -0.0)]]),
        "scalar": np.array(complex(0.5, -1.0)),
        "uint8": np.arange(3, dtype=np.uint8),
    }
    assert dump(doc) == reference(plain(doc))


def test_dump_json_edge_values():
    doc = {
        "": [],
        "empty": {},
        "ints": [0, 1023, 1024, -1, 10**30],
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300],
        "mixed": [1, True, False, None, 0, "1"],
        "nested": [[[]], [{}], {"b": [1], "a": "x"}],
    }
    assert dump(doc) == reference(doc)


def _invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.stdout


def test_large_cli_json_outputs_keep_the_indented_layout(tmp_path):
    # the Ising k=3 orbifold has N=35 modules and a 35^3 fusion table; its
    # float residuals depend on the BLAS build, so the layout is pinned by
    # re-encoding rather than by a digest
    orb = tmp_path / "orb.json"
    _invoke(["perm", "--k", "3", str(fixtures.path("ising")), "-o", str(orb)])
    spec = restricted_spec_to_dict(*permutation_restriction_data(fixtures.load("ising"), 3))
    spec_path, restricted_out = tmp_path / "spec.json", tmp_path / "restricted.json"
    spec_path.write_text(json.dumps(spec))
    _invoke(["restricted", str(spec_path), "-o", str(restricted_out)])
    outputs = {
        "fusion": _invoke(["fusion", "--format", "json", str(orb)]),
        "validate": _invoke(["validate", "--format", "json", str(orb)]),
        "perm": orb.read_text(),
        "restricted": restricted_out.read_text(),
    }
    assert len(json.loads(outputs["fusion"])["fusion"]) == 35
    for name, text in outputs.items():
        assert text == reference(json.loads(text)), name


def u1_4() -> ModularDatum:
    """The pointed U(1)_4 datum: complex S with charge conjugation a -> -a."""
    a = np.arange(4)
    s = np.exp(-2j * np.pi * np.outer(a, a) / 4) / 2
    return ModularDatum(1, [ModuleInfo(f"q{x}", Fraction(x * x, 8)) for x in a], s)


def parse_plain(text: str) -> dict:
    """The datum schema's keys of a written datum."""
    doc = json.loads(text)
    return {
        "central_charge": doc["central_charge"],
        "modules": [{"label": m["label"], "h": m["h"]} for m in doc["modules"]],
        "S": doc["S"],
    }


@pytest.mark.parametrize(
    "name, k", [("ising", 2), ("ising", 3), ("u1_4", 2)], ids=["ising-2", "ising-3", "u1_4-2"]
)
def test_dict_writers_return_the_json_of_the_cli_output(name, k, tmp_path):
    d = u1_4() if name == "u1_4" else fixtures.load(name)
    src, out = tmp_path / "src.json", tmp_path / "orb.json"
    src.write_text(json.dumps(modular_datum_to_dict(d)))
    _invoke(["perm", "--k", str(k), str(src), "-o", str(out)])
    orb = build_orbifold_datum(d, k)
    assert orbifold_datum_to_dict(orb) == json.loads(out.read_text())
    assert modular_datum_to_dict(orb.datum) == parse_plain(out.read_text())


@pytest.mark.parametrize("k", [2, 3])
def test_restricted_dict_writer_returns_the_json_of_the_cli_output(k, tmp_path):
    orbits, blocks, group = permutation_restriction_data(fixtures.load("ising"), k)
    spec, out = tmp_path / "spec.json", tmp_path / "restricted.json"
    spec.write_text(json.dumps(restricted_spec_to_dict(orbits, blocks, group)))
    _invoke(["restricted", str(spec), "-o", str(out)])
    pairs, matrix = assemble_restricted_S(orbits, blocks, group)
    assert restricted_result_to_dict(pairs, matrix, orbits) == json.loads(out.read_text())
