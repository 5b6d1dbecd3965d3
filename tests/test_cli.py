import json
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from orbmod import fixtures, modular_data
from orbmod.cli import format_complex_csv, main, render_fusion_table
from orbmod.modular_data import parse_modular_datum, verlinde_fusion


@pytest.fixture()
def runner():
    return CliRunner()


def ising_path():
    return str(fixtures.path("ising"))


def write_near_zero_vacuum(tmp_path):
    """Unitary, symmetric and with a positive vacuum row at --eps 1e-14, but
    S_00 = 1e-13 is too close to zero for the Verlinde formula."""
    a = 1e-13
    b = (1 - a * a) ** 0.5
    doc = {
        "central_charge": "0",
        "modules": [{"label": "0", "h": "0"}, {"label": "x", "h": "1/2"}],
        "S": [
            [{"re": repr(a), "im": "0"}, {"re": repr(b), "im": "0"}],
            [{"re": repr(b), "im": "0"}, {"re": repr(-a), "im": "0"}],
        ],
    }
    path = tmp_path / "near_zero.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_perturbed_ising(tmp_path):
    doc = json.loads(fixtures.path("ising").read_text())
    doc["S"][0][0]["re"] = "0.51"
    out = tmp_path / "bad.json"
    out.write_text(json.dumps(doc))
    return str(out)


# ---------------------------------------------------------------------------
# validate / check
# ---------------------------------------------------------------------------

def test_validate_fixture_passes(runner):
    result = runner.invoke(main, ["validate", ising_path()])
    assert result.exit_code == 0
    assert "verdict: PASS (6/6 checks)" in result.output


def test_validate_json_format(runner):
    result = runner.invoke(main, ["validate", "--format", "json", ising_path()])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ok"] is True
    assert len(doc["checks"]) == 6


def test_validate_json_is_strict_json_when_fusion_undefined(runner, tmp_path):
    result = runner.invoke(main, ["validate", "--format", "json", write_near_zero_vacuum(tmp_path)])
    assert result.exit_code == 1

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    doc = json.loads(result.output, parse_constant=reject)
    fusion = next(c for c in doc["checks"] if c["name"] == "fusion_integrality")
    assert fusion["passed"] is False and fusion["residual"] is None


def test_validate_csv_format(runner):
    result = runner.invoke(main, ["validate", "--format", "csv", ising_path()])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "check,passed,residual,detail"
    assert len(lines) == 7


def test_validate_fails_on_perturbed_datum(runner, tmp_path):
    result = runner.invoke(main, ["validate", write_perturbed_ising(tmp_path)])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_validate_missing_file_is_input_error(runner):
    result = runner.invoke(main, ["validate", "/nonexistent/x.json"])
    assert result.exit_code == 2


def test_validate_schema_error_is_input_error(runner, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 2


def test_validate_env_tolerance_override(runner):
    result = runner.invoke(
        main, ["validate", ising_path()], env={"ORBMOD_EPS": "1e-20"}
    )
    assert result.exit_code == 1


def test_check_terse_output(runner):
    result = runner.invoke(main, ["check", ising_path()])
    assert result.exit_code == 0
    assert result.output.startswith("PASS")


def test_validate_deterministic(runner):
    a = runner.invoke(main, ["validate", "--format", "json", ising_path()])
    b = runner.invoke(main, ["validate", "--format", "json", ising_path()])
    assert a.output == b.output


# ---------------------------------------------------------------------------
# fusion / tmatrix
# ---------------------------------------------------------------------------

def test_fusion_pretty_table(runner):
    result = runner.invoke(main, ["fusion", ising_path()])
    assert result.exit_code == 0
    assert "sigma x sigma = 1 + eps" in result.output
    assert "1 x eps = eps" in result.output
    assert "1 x sigma = sigma" in result.output


def test_fusion_json(runner):
    result = runner.invoke(main, ["fusion", "--format", "json", ising_path()])
    doc = json.loads(result.output)
    assert doc["labels"] == ["1", "eps", "sigma"]
    assert doc["residual"] < 1e-9
    assert doc["fusion"][2][2] == [1, 1, 0]


def test_fusion_csv(runner):
    result = runner.invoke(main, ["fusion", "--format", "csv", ising_path()])
    lines = result.output.splitlines()
    assert lines[0] == "i,j,m,N"
    assert "sigma,sigma,eps,1" in lines


def test_fusion_gate_on_invalid_datum(runner, tmp_path):
    result = runner.invoke(main, ["fusion", write_perturbed_ising(tmp_path)])
    assert result.exit_code == 1


def test_fusion_reports_undefined_verlinde(runner, tmp_path):
    result = runner.invoke(main, ["fusion", "--eps", "1e-14", write_near_zero_vacuum(tmp_path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "fusion failed: vacuum S-matrix row has a near-zero entry; fusion is undefined\n"
    )


def test_fusion_computes_verlinde_once(runner, monkeypatch):
    calls = []

    def counting(d):
        calls.append(d.rank)
        return original(d)

    # rebind every orbmod name for the function, however it was imported
    original = modular_data.verlinde_fusion
    for name, module in list(sys.modules.items()):
        if name.startswith("orbmod") and getattr(module, "verlinde_fusion", None) is original:
            monkeypatch.setattr(module, "verlinde_fusion", counting)
    result = runner.invoke(main, ["fusion", ising_path()])
    assert result.exit_code == 0
    assert calls == [3]


def test_render_fusion_table_multiplicity():
    tensor = verlinde_fusion(fixtures.load("fibonacci"))
    table = render_fusion_table(tensor, ["1", "tau"])
    assert "tau x tau = 1 + tau" in table


def test_format_complex_csv():
    assert format_complex_csv(0.5 + 0j) == "0.5+0*i"
    assert format_complex_csv(-1.25 - 2e-3j) == "-1.25-0.002*i"


def test_tmatrix_pretty(runner):
    result = runner.invoke(main, ["tmatrix", ising_path()])
    assert result.exit_code == 0
    assert "47/48" in result.output
    assert "1/24" in result.output


def test_tmatrix_json(runner):
    result = runner.invoke(main, ["tmatrix", "--format", "json", ising_path()])
    doc = json.loads(result.output)
    assert [e["angle"] for e in doc["t_phases"]] == ["47/48", "23/48", "1/24"]


# ---------------------------------------------------------------------------
# perm
# ---------------------------------------------------------------------------

def test_perm_requires_prime_k(runner):
    result = runner.invoke(main, ["perm", "--k", "4", ising_path()])
    assert result.exit_code == 2
    assert "prime" in result.stderr


def test_perm_then_check_pipeline(runner, tmp_path):
    out = tmp_path / "orb.json"
    result = runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(out)])
    assert result.exit_code == 0
    assert "modules: 15" in result.output
    assert "convention 'minus' validated" in result.output

    doc = json.loads(out.read_text())
    assert doc["k"] == 2
    assert {m["label_kind"] for m in doc["modules"]} == {"diag", "offdiag", "twisted"}

    checked = runner.invoke(main, ["check", str(out)])
    assert checked.exit_code == 0


def test_perm_output_byte_identical(runner, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        result = runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(out)])
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_perm_stdout_mode_is_parseable(runner):
    result = runner.invoke(main, ["perm", "--k", "2", ising_path()])
    assert result.exit_code == 0
    datum = parse_modular_datum(result.stdout)
    assert datum.rank == 15
    assert "validation: PASS" in result.stderr


def test_perm_convention_flag(runner, tmp_path):
    out = tmp_path / "orb.json"
    result = runner.invoke(
        main,
        ["perm", "--k", "2", "--convention", "plus", ising_path(), "-o", str(out)],
    )
    # for k = 2 the two conventions coincide, so plus also validates
    assert result.exit_code == 0
    assert json.loads(out.read_text())["convention"] == "plus"


def test_perm_rejects_invalid_input_datum(runner, tmp_path):
    result = runner.invoke(
        main, ["perm", "--k", "2", write_perturbed_ising(tmp_path)]
    )
    assert result.exit_code == 1
    assert "input check FAIL" in result.stderr


def test_perm_rejects_colliding_orbifold_labels(runner, tmp_path):
    # a valid U(1)_4 datum whose labels make off(x, y,z) and off(x,y, z)
    # print alike
    labels = ["x", "y,z", "x,y", "z"]
    s = np.exp(-2j * np.pi * np.outer(range(4), range(4)) / 4) / 2
    doc = {
        "central_charge": "1",
        "modules": [{"label": l, "h": f"{a * a}/8"} for a, l in enumerate(labels)],
        "S": [[{"re": repr(float(z.real)), "im": repr(float(z.imag))} for z in row] for row in s],
    }
    path = tmp_path / "u1_4.json"
    path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["check", str(path)]).exit_code == 0
    result = runner.invoke(main, ["perm", "--k", "2", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {path}: duplicate module labels: ['off(x,y,z)']\n"


# ---------------------------------------------------------------------------
# restricted
# ---------------------------------------------------------------------------

def make_trivial_spec(tmp_path):
    datum = fixtures.load("ising")
    doc = {
        "group": [],
        "orbits": [
            {
                "label": lbl,
                "twist": [],
                "stabilizer": [[]],
                "characters": {
                    "dims": [1],
                    "elements": [[]],
                    "table": [[{"re": "1", "im": "0"}]],
                },
            }
            for lbl in datum.labels
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
            for i in range(3)
            for j in range(3)
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path, datum


def test_restricted_cli_round_trip(runner, tmp_path):
    spec_path, datum = make_trivial_spec(tmp_path)
    out = tmp_path / "restricted.json"
    result = runner.invoke(main, ["restricted", str(spec_path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    values = np.array(
        [[complex(float(e["re"]), float(e["im"])) for e in row] for row in doc["S"]]
    )
    assert np.allclose(values, datum.s_matrix, atol=1e-15)


def test_restricted_cli_rejects_bad_spec(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": [2]}))
    result = runner.invoke(main, ["restricted", str(bad)])
    assert result.exit_code == 2


@pytest.mark.parametrize("key,value", [("orbits", 5), ("blocks", 7)])
def test_restricted_cli_rejects_non_list_sections(runner, tmp_path, key, value):
    spec_path, _ = make_trivial_spec(tmp_path)
    doc = json.loads(spec_path.read_text())
    doc[key] = value
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["restricted", str(spec_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f'error: {spec_path}: "{key}" must be a list\n'


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["orbits"][0]["characters"]["table"][0][0].update(re="nan"),
        lambda doc: doc["blocks"][0]["entries"][0]["value"].update(re="inf"),
    ],
)
def test_restricted_cli_rejects_non_finite_values(runner, tmp_path, mutate):
    spec_path, _ = make_trivial_spec(tmp_path)
    doc = json.loads(spec_path.read_text())
    mutate(doc)
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["restricted", str(spec_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "non-finite complex value" in result.stderr


def test_restricted_cli_permutation_spec(runner, tmp_path):
    # nontrivial Z_2 spec exported from the permutation pipeline must
    # reproduce the orbifold S-matrix through the CLI
    from orbmod.perm_orbifold import assemble_orbifold_S, permutation_restriction_data
    from orbmod.restricted import restricted_spec_to_dict

    datum = fixtures.load("ising")
    spec = restricted_spec_to_dict(*permutation_restriction_data(datum, 2))
    spec_path = tmp_path / "perm_spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["restricted", str(spec_path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    values = np.array(
        [[complex(float(e["re"]), float(e["im"])) for e in row] for row in doc["S"]]
    )
    assert np.max(np.abs(values - assemble_orbifold_S(datum, 2))) < 1e-9


# ---------------------------------------------------------------------------
# sl2z decompose
# ---------------------------------------------------------------------------

def test_sl2z_decompose_s_generator(runner):
    result = runner.invoke(main, ["sl2z", "decompose", "0", "-1", "1", "0"])
    assert result.exit_code == 0
    assert "word: S" in result.output
    assert "exact: yes" in result.output


def test_sl2z_decompose_negative_entries(runner):
    result = runner.invoke(main, ["sl2z", "decompose", "2", "-1", "-1", "1"])
    assert result.exit_code == 0
    assert "round-trip: (2, -1; -1, 1)" in result.output


def test_sl2z_decompose_rejects_non_unimodular(runner):
    result = runner.invoke(main, ["sl2z", "decompose", "1", "0", "0", "2"])
    assert result.exit_code == 2
    assert "determinant" in result.stderr
