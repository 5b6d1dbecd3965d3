"""The JSON encoder behind every CLI output writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, which is kept here as
the reference."""

import json

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from orbmod import fixtures
from orbmod.cli import _dump_json, main
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
