import cmath
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from orbmod.modular_data import InvalidDatum
from orbmod.perm_orbifold import (
    assemble_orbifold_S,
    permutation_restriction_data,
)
from orbmod.restricted import (
    CharacterTable,
    FiniteAbelianGroup,
    OrbitSpec,
    assemble_restricted_S,
    parse_restricted_spec,
    restricted_result_to_dict,
    restricted_spec_to_dict,
    validate_group_data,
)

Z2 = FiniteAbelianGroup((2,))
TRIVIAL = FiniteAbelianGroup(())


def z2_table():
    return CharacterTable(
        ((0,), (1,)), np.array([[1, 1], [1, -1]], dtype=complex), (1, 1)
    )


def trivial_orbits_for(datum):
    """One orbit per module with trivial group data (twist 1, stabilizer 1)."""
    table = CharacterTable(((),), np.array([[1.0]], dtype=complex), (1,))
    return [OrbitSpec(lbl, (), ((),), table) for lbl in datum.labels]


def singleton_orbits():
    """Holomorphic Z_2 case: every element its own orbit, the full group as
    stabilizer, one twisted module per element."""
    elems = Z2.elements()
    return [OrbitSpec(f"V{g}", g, elems, z2_table()) for g in elems]


def dual_table(group):
    """Oracle: the character table of ``group``, row ``t`` holding
    ``x -> exp(2 pi i sum_f t_f x_f / n_f)``."""
    elems = group.elements()
    factors = group.invariant_factors
    rows = [
        [cmath.exp(2j * cmath.pi * sum(a * b / n for a, b, n in zip(t, x, factors)))
         for x in elems]
        for t in elems
    ]
    return CharacterTable(elems, np.array(rows, dtype=complex), (1,) * len(elems))


# ---------------------------------------------------------------------------
# groups and character tables
# ---------------------------------------------------------------------------

def test_group_basics():
    assert Z2.elements() == ((0,), (1,))
    g = FiniteAbelianGroup((2, 4))
    assert len(g.elements()) == 8
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 3)
    assert g.sub((1, 1), (1, 1)) == (0, 0)
    assert not g.contains((0, 4))
    assert TRIVIAL.elements() == ((),)


def test_group_rejects_bad_factors():
    with pytest.raises(ValueError, match="positive"):
        FiniteAbelianGroup((0,))


@pytest.mark.parametrize("factors", [(), (2,), (3,), (2, 2), (2, 4)])
def test_character_table_orthogonality(factors):
    # the character table of each group, fully stabilized, passes validation
    g = FiniteAbelianGroup(factors)
    elems = g.elements()
    table = dual_table(g)
    gram = table.rows @ table.rows.conj().T
    assert_allclose(gram, len(elems) * np.eye(len(elems)), atol=1e-12)
    assert validate_group_data([OrbitSpec("full", elems[-1], elems, table)]).ok


def test_character_table_domain_errors():
    table = z2_table()
    assert table.column((1,))[1] == -1
    with pytest.raises(ValueError, match="not in character domain"):
        table.column((2,))
    with pytest.raises(ValueError, match="shape"):
        CharacterTable(((0,),), np.array([[1, 1]]), (1,))


def test_orbit_spec_requires_matching_domain():
    with pytest.raises(ValueError, match="does not match"):
        OrbitSpec("bad", (0,), ((0,),), z2_table())


# ---------------------------------------------------------------------------
# group-data validation
# ---------------------------------------------------------------------------

def test_validate_group_data_passes_standard_cases():
    orbits = [
        OrbitSpec("trivial", (), ((),), CharacterTable(((),), [[1.0]], (1,))),
        OrbitSpec("z2", (1,), ((0,), (1,)), z2_table()),
    ]
    report = validate_group_data(orbits)
    assert report.ok


def test_validate_group_data_detects_corrupted_character():
    rows = np.array([[1, 1], [1, -0.9]], dtype=complex)
    orbits = [
        OrbitSpec("z2", (1,), ((0,), (1,)), CharacterTable(((0,), (1,)), rows, (1, 1)))
    ]
    report = validate_group_data(orbits)
    assert not report["character_orthogonality"].passed


def test_validate_group_data_detects_nan_character():
    # NaN compares False with any tolerance, so it must fail explicitly
    good = OrbitSpec("z2", (1,), ((0,), (1,)), z2_table())
    rows = np.array([[1, 1], [1, np.nan]], dtype=complex)
    bad = OrbitSpec("broken", (1,), ((0,), (1,)), CharacterTable(((0,), (1,)), rows, (1, 1)))
    for orbits in ([bad, good], [good, bad]):
        check = validate_group_data(orbits)["character_orthogonality"]
        assert not check.passed
        assert check.detail == "worst orbit: broken"


def test_validate_group_data_detects_twist_outside_stabilizer():
    table = CharacterTable(((0,),), np.array([[1.0]]), (1,))
    orbits = [OrbitSpec("stray", (1,), ((0,),), table)]
    report = validate_group_data(orbits)
    assert not report["twist_in_stabilizer"].passed


def test_validate_group_data_detects_dimension_mismatch():
    table = CharacterTable(((0,), (1,)), np.array([[1, 1], [1, -1]]), (1, 2))
    orbits = [OrbitSpec("z2", (0,), ((0,), (1,)), table)]
    report = validate_group_data(orbits)
    assert not report["dimension_sum"].passed


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_trivial_group_collapse(ising):
    orbits = trivial_orbits_for(ising)
    blocks = {
        (i, j): [((), complex(ising.s_matrix[i, j]))]
        for i in range(3)
        for j in range(3)
    }
    pairs, out = assemble_restricted_S(orbits, blocks, TRIVIAL)
    assert pairs == [(i, 0) for i in range(3)]
    assert np.array_equal(out, ising.s_matrix)


def test_empty_blocks_give_zero(ising):
    orbits = trivial_orbits_for(ising)
    pairs, out = assemble_restricted_S(orbits, {}, TRIVIAL)
    assert np.array_equal(out, np.zeros((3, 3)))


def test_empty_entry_list_gives_zero_block(ising):
    orbits = trivial_orbits_for(ising)
    blocks = {(0, 0): [], (1, 2): [((), 0.5)]}
    _, out = assemble_restricted_S(orbits, blocks, TRIVIAL)
    expected = np.zeros((3, 3))
    expected[1, 2] = 0.5
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("key", [(3, 0), (0, 3), (-1, 0), (0, -1)])
def test_block_key_out_of_range_rejected(ising, key):
    with pytest.raises(ValueError, match=rf"^block key \({key[0]}, {key[1]}\) out of range$"):
        assemble_restricted_S(trivial_orbits_for(ising), {key: [((), 1.0)]}, TRIVIAL)


@pytest.mark.parametrize(
    "group,kappa,others,message",
    [
        # one entry: no pair to compare, yet the kappa must lie in the group
        (Z2, (5,), [], "(5,) is not an element of Z_2"),
        (Z2, (5,), [(0,)], "(5,) is not an element of Z_2"),
        (Z2, (1,), [(-1,)], "(-1,) is not an element of Z_2"),
        (TRIVIAL, (5,), [], "(5,) is not an element of Z_1"),
        (TRIVIAL, (), [(0,)], "(0,) is not an element of Z_1"),
        (FiniteAbelianGroup((2, 4)), (0, 4), [], "(0, 4) is not an element of Z_2 x Z_4"),
        (FiniteAbelianGroup((2, 4)), (1,), [(0, 0)], "(1,) is not an element of Z_2 x Z_4"),
    ],
)
def test_every_kappa_must_lie_in_the_group(group, kappa, others, message):
    elems = group.elements()
    orbits = [OrbitSpec("full", elems[0], elems, dual_table(group))] * 2
    blocks = {(0, 1): [(kappa, 1.0)] + [(k, 1.0) for k in others]}
    with pytest.raises(ValueError) as info:
        assemble_restricted_S(orbits, blocks, group)
    assert str(info.value) == message


def test_duplicate_transversal_coset_rejected():
    orbits = [OrbitSpec("a", (0,), ((0,), (1,)), z2_table())] * 2
    blocks = {(0, 1): [((0,), 1.0), ((1,), 1.0)]}
    with pytest.raises(ValueError, match="same module"):
        assemble_restricted_S(orbits, blocks, Z2)


def test_conjugation_invariance_violation_rejected():
    # row orbit fully stabilized, column orbit free: both kappas are valid
    # transversal members but the values must then agree
    full = OrbitSpec("full", (0,), ((0,), (1,)), z2_table())
    free = OrbitSpec(
        "free", (0,), ((0,),), CharacterTable(((0,),), [[1.0]], (1,))
    )
    blocks = {(0, 1): [((0,), 1.0), ((1,), 1.0 + 1e-3)]}
    with pytest.raises(ValueError, match="conjugation invariance"):
        assemble_restricted_S([full, free], blocks, Z2)
    blocks_ok = {(0, 1): [((0,), 1.0), ((1,), 1.0)]}
    pairs, out = assemble_restricted_S([full, free], blocks_ok, Z2)
    assert out.shape == (3, 3)


def test_nonempty_block_requires_twist_in_domain():
    free = OrbitSpec("free", (0,), ((0,),), CharacterTable(((0,),), [[1.0]], (1,)))
    twisted = OrbitSpec("tw", (1,), ((0,), (1,)), z2_table())
    blocks = {(0, 1): [((0,), 1.0)]}  # lam would be evaluated at (1,)
    with pytest.raises(ValueError, match="outside"):
        assemble_restricted_S([free, twisted], blocks, Z2)


# ---------------------------------------------------------------------------
# holomorphic specialization
# ---------------------------------------------------------------------------

def test_holomorphic_z2_against_manual_formula():
    block = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    blocks = {(i, j): [((0,), block[i, j])] for i in range(2) for j in range(2)}
    pairs, out = assemble_restricted_S(singleton_orbits(), blocks, Z2)
    table = z2_table()
    for x, (i, a) in enumerate(pairs):
        for y, (j, b) in enumerate(pairs):
            g, h = Z2.elements()[i], Z2.elements()[j]
            expected = (
                block[i, j]
                * np.conj(table.column(h)[a])
                * table.column(Z2.neg(g))[b]
                / 2
            )
            assert abs(out[x, y] - expected) < 1e-12


def test_transversal_choice_independence():
    # any single kappa is a valid transversal for singleton orbits; the
    # assembled entries must not depend on the choice
    block = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    elems = Z2.elements()
    orbits = singleton_orbits()
    blocks_id = {(i, j): [((0,), block[i, j])] for i in range(2) for j in range(2)}
    blocks_h = {(i, j): [(elems[j], block[i, j])] for i in range(2) for j in range(2)}
    _, out_id = assemble_restricted_S(orbits, blocks_id, Z2)
    _, out_h = assemble_restricted_S(orbits, blocks_h, Z2)
    assert_allclose(out_id, out_h, atol=1e-12)


# ---------------------------------------------------------------------------
# oracle equivalence with the permutation pipeline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,k",
    [("ising", 2), ("fibonacci", 3), ("holomorphic_c8", 2), ("fibonacci", 5), ("holomorphic_c8", 5)],
)
def test_restricted_matches_orbifold_pipeline(name, k):
    from orbmod import fixtures

    datum = fixtures.load(name)
    orbits, blocks, group = permutation_restriction_data(datum, k)
    assert validate_group_data(orbits).ok
    pairs, out = assemble_restricted_S(orbits, blocks, group)
    s_orb = assemble_orbifold_S(datum, k)
    assert out.shape == s_orb.shape
    assert np.max(np.abs(out - s_orb)) < 1e-12
    # consistent block data must yield a symmetric matrix
    assert np.max(np.abs(out - out.T)) < 1e-12


def test_vacuum_row_shortcut_matches_general_assembly(ising):
    # vacuum-orbit rows from one S-entry per orbit:
    # S[(vac, lam), (j, mu)] = s_vac[j] / |H_j| * lam(-g_j) * dim(mu)
    orbits, blocks, group = permutation_restriction_data(ising, 2)
    _, out = assemble_restricted_S(orbits, blocks, group)
    vac = orbits[0].characters
    rows = np.concatenate(
        [
            blocks[(0, j)][0][1]
            / len(spec.stabilizer)
            * np.outer(vac.column(group.neg(spec.twist)), spec.characters.dims)
            for j, spec in enumerate(orbits)
        ],
        axis=1,
    )
    assert_allclose(rows, out[:2], atol=1e-12)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def spec_document(datum):
    orbits = trivial_orbits_for(datum)
    return {
        "group": [],
        "orbits": [
            {
                "label": o.label,
                "twist": [],
                "stabilizer": [[]],
                "characters": {
                    "dims": [1],
                    "elements": [[]],
                    "table": [[{"re": "1", "im": "0"}]],
                },
            }
            for o in orbits
        ],
        "blocks": [
            {
                "i": i,
                "j": j,
                "entries": [
                    {
                        "kappa": [],
                        "value": {
                            "re": repr(float(datum.s_matrix[i, j].real)),
                            "im": repr(float(datum.s_matrix[i, j].imag)),
                        },
                    }
                ],
            }
            for i in range(datum.rank)
            for j in range(datum.rank)
        ],
    }


def test_spec_serialization_round_trip_nontrivial(fibonacci):
    # full Z_3 permutation data through the JSON schema and back
    orbits, blocks, group = permutation_restriction_data(fibonacci, 3)
    doc = restricted_spec_to_dict(orbits, blocks, group)
    orbits2, blocks2, group2 = parse_restricted_spec(json.dumps(doc))
    assert group2.invariant_factors == (3,)
    assert [o.label for o in orbits2] == [o.label for o in orbits]
    _, out = assemble_restricted_S(orbits, blocks, group)
    _, out2 = assemble_restricted_S(orbits2, blocks2, group2)
    assert np.array_equal(out, out2)


def test_parse_restricted_spec_round_trip(ising):
    orbits, blocks, group = parse_restricted_spec(json.dumps(spec_document(ising)))
    assert group.elements() == ((),)
    pairs, out = assemble_restricted_S(orbits, blocks, group)
    assert_allclose(out, ising.s_matrix, atol=1e-15)
    doc = restricted_result_to_dict(pairs, out, orbits)
    assert [p["orbit"] for p in doc["pairs"]] == list(ising.labels)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.pop("group"),
        lambda doc: doc["orbits"][0].pop("twist"),
        lambda doc: doc["orbits"][0]["characters"].pop("dims"),
        lambda doc: doc["blocks"][0].pop("entries"),
        lambda doc: doc.update(group=[0]),
        lambda doc: doc.update(orbits=5),
        lambda doc: doc.update(blocks=7),
        lambda doc: doc["orbits"][0]["characters"]["table"][0][0].update(re="nan"),
        lambda doc: doc["blocks"][0]["entries"][0]["value"].update(re="inf"),
        # numbers beyond the float range (json.dumps writes 1e400 as Infinity)
        lambda doc: doc["orbits"][0]["characters"]["table"][0][0].update(re=10**400),
        lambda doc: doc["blocks"][0]["entries"][0]["value"].update(re=10**400),
        lambda doc: doc["blocks"][0].update(i=1e400),
        lambda doc: doc.update(group=[1e400]),
        lambda doc: doc["orbits"][0]["characters"].update(dims=[1e400, 1]),
        # integers must be JSON integers: no float, string or bool is coerced
        lambda doc: doc.update(group=[2.7]),
        lambda doc: doc.update(group=["2"]),
        lambda doc: doc.update(group=[True]),
        lambda doc: doc.update(group="23"),
        lambda doc: doc["blocks"][0].update(i=1.9),
        lambda doc: doc["blocks"][0].update(i="0"),
        lambda doc: doc["blocks"][0].update(j=False),
        lambda doc: doc["orbits"][0]["characters"].update(dims=[1.5]),
        lambda doc: doc["orbits"][0]["characters"].update(dims=["1"]),
        lambda doc: doc["orbits"][0]["characters"].update(dims=[True]),
        lambda doc: doc["blocks"][0]["entries"][0].update(kappa=[True]),
        lambda doc: doc["blocks"][0]["entries"][0].update(kappa=[False]),
        lambda doc: doc["orbits"][0].update(twist=[True]),
        lambda doc: doc["orbits"][0].update(twist=[1.5]),
        lambda doc: doc["orbits"][0].update(stabilizer=[[False]]),
        # an element that is no list
        lambda doc: doc["orbits"][0].update(twist="0"),
        lambda doc: doc["blocks"][0]["entries"][0].update(kappa=0),
        # one dimension per character row, and no element twice in the domain
        lambda doc: doc["orbits"][0]["characters"].update(dims=[1, 1]),
        lambda doc: doc["orbits"][0]["characters"].update(
            elements=[[], []], table=[[{"re": "1", "im": "0"}] * 2]
        ),
        # labels are JSON strings; str() made null the label "None"
        lambda doc: doc["orbits"][1].update(label=None),
        lambda doc: doc["orbits"][2].update(label=5),
    ],
)
def test_parse_restricted_spec_rejects_malformed(ising, mutate):
    doc = spec_document(ising)
    mutate(doc)
    with pytest.raises(InvalidDatum):
        parse_restricted_spec(json.dumps(doc))


def test_parse_restricted_spec_names_the_orbit_of_a_non_string_label(ising):
    doc = spec_document(ising)
    doc["orbits"][1]["label"] = None
    with pytest.raises(
        InvalidDatum, match=r"^bad orbit entry orbits\[1\]: label must be a string, not NoneType$"
    ):
        parse_restricted_spec(doc)
