"""The JSON encoder behind every CLI output writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, which is kept here as
the reference."""

import json

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from orbmod import fixtures
from orbmod.cli import _dump_json, main
from orbmod.modular_data import format_complex
from orbmod.perm_orbifold import permutation_restriction_data
from orbmod.restricted import restricted_spec_to_dict


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


@settings(deadline=None)
@given(documents)
def test_dump_json_matches_indented_json_dumps(doc):
    assert _dump_json(doc) == reference(doc)


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


@settings(deadline=None)
@given(array_documents)
def test_dump_json_writes_arrays_as_their_plain_lists(doc):
    assert _dump_json(doc) == reference(plain(doc))


def test_dump_json_array_edge_values():
    doc = {
        "ints": np.array([[-1, 0, 1023], [1024, -(2**63), 2**63 - 1]]),
        "empty": [np.zeros((0,), int), np.zeros((2, 0, 3), complex)],
        "complex": np.array([[complex(-0.0, 5e-324), complex(1e300, -0.0)]]),
        "scalar": np.array(complex(0.5, -1.0)),
        "uint8": np.arange(3, dtype=np.uint8),
    }
    assert _dump_json(doc) == reference(plain(doc))


def test_dump_json_edge_values():
    doc = {
        "": [],
        "empty": {},
        "ints": [0, 1023, 1024, -1, 10**30],
        "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300],
        "mixed": [1, True, False, None, 0, "1"],
        "nested": [[[]], [{}], {"b": [1], "a": "x"}],
    }
    assert _dump_json(doc) == reference(doc)


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
