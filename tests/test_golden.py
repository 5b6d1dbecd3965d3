"""Golden bytes of the CLI outputs built from the serializers, the
fusion table and the generator words, pinned by their sha256 digests.

Any change to an output byte fails here; change a digest only together
with an intended change of the output format.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import orbmod
from orbmod import fixtures
from orbmod.cli import main
from orbmod.modular_data import modular_datum_to_dict, parse_modular_datum
from orbmod.perm_orbifold import permutation_restriction_data
from orbmod.restricted import restricted_spec_to_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

GOLDEN = {
    "perm-ising-2": "e054d68f46102059d25d70c3cc89fa4b3bcd93400199906ac3cdc7e137216308",
    "perm-fibonacci-3": "56920429eab6f762f97caf0a446def0d1481071a9ea14bb345876fe501bbc48f",
    "perm-fibonacci-5": "df59b7bbca95df986e76e6516bb470f79590b23a841b7604df8f73d85756ebda",
    "perm-fibonacci-7": "b87658609e86f7677604523d24486422eeb8b2f868f8fef68b4cd722dfd4548e",
    "perm-ising-3": "64872c42663fc94e29aa3a07eda862c9662a338e176e4bda5fb2dad25880ae05",
    # exit 1: "plus" fails the modular relation at k = 3; pins the JSON on
    # stdout and the "check FAIL:" summary on stderr
    "permplus-ising-3": "527b05eee641acd944a698a8e939949d619cbb54498214ddeebc42e3345fc255",
    # commands run on an orbifold written by `perm -o`; the fusion csv holds
    # the integer table without the floating residual
    "orbcheck-ising-3": "a2226dbd2fc6a1929596e2620c798792f9bed9e31a469914d9c5202d9772ff12",
    "orbfusion-ising-2-csv": "20c208b2bfce830549aa3f3003cdf3557fc07c742f2f74b1346ccd417969b294",
    "orbfusion-ising-3-csv": "8d45175924ce7d45df7a994da1688d8983992f4b739f256cd3e6eba071b798f4",
    # the 35^3 table as nested JSON lists, with the residual of this build
    "orbfusion-ising-3-json": "c78b27f198725c70eea0a2bfc5984d6b5fb2458014fd67e84026eb13a8b37800",
    # a generated source whose S has nonzero imaginary parts
    "permsrc-u1:4-2": "06afb2a0aede2b22249eac756188881c0b42a366fc1bef46f1a1c25dc3865cf5",
    "tmatrix-ising-pretty": "16fd2f6b67a4cc1b0fded8601fc8524c0db60e4684bd47564fa9a9fd2c6025d7",
    "tmatrix-ising-json": "3be032d79277695957fa9d04b8ec9a88dd706fcad7c6122f54d665841bac3b9b",
    "tmatrix-ising-csv": "96c4f2ca631c86b95cda0ed64b17aca498171591bd632f2107beab0ef6aeeef7",
    "fusion-ising-pretty": "476a305c7752538d9a32e99299ffaf5dda3c65a11bc75195e6d4f5f332ecac86",
    "fusion-ising-csv": "5601e052c2df9876056d66d006a4b43c2c06e871b1c41bada71a8b792f6753f6",
    "fusion-ising-json": "c5b982172b89576bba5b10cef5adc28f280c2bdf595f511c9109768cb480a552",
    "fusion-fibonacci-pretty": "917438e6b79b0ae7356c5a3478552a4ad383de108b0d584d90bfc342f6660f7b",
    "fusion-fibonacci-csv": "826ab00549bf4c43f1d488a6ccbfdc05875e46df81d53faa349a88bd4af135af",
    "spec-ising-2": "0bfd980a94d17b99c72809ded8726b096623c7006b423f16d676cc5285d6db0e",
    "restricted-ising-2": "e1f92ab7e5cc80b8ba528f35fd5e467866b244755406a1bf4f5fc896225f5bbf",
    # the oracle at k = 5: 2 and 1 source modules, 16 twisted x twisted blocks
    "spec-fibonacci-5": "7f49f8494de1bfe8447377a32093cd2343ee1fc6fb25d8382822541d0ad7f02f",
    "restricted-fibonacci-5": "5cc12cbe3d5bfdb71a3aa5fde71c15abd9f96399bac5ecd0f9d72d1b0d788eec",
    "spec-holomorphic_c8-5": "11f0417a1326fe2b035cd8e2db6fae40f82dc5043198bfd3e023972b632bd308",
    "restricted-holomorphic_c8-5": "704d08cd0fe030c05940f3a6ba78e4e78a55460bd8b2b97858f1b0ee9ab08074",
    # the oracle on a generated complex S, read back from its JSON
    "specsrc-u1:4-3": "ef22f37d9a1cbd36ff55aa17fe2db93d9d728b7a5e975e98bcf61264a42ebdac",
    "restrictedsrc-u1:4-3": "c0b45f56a2f1ca5181b9d243d99d9b080188e82ca0105b929fdade9fad55cc1c",
    # a 40-bit matrix whose continued fraction holds the quotient 1000
    "decompose-856145336725 194079139008 606087388278 137393633341": (
        "25894f08a8760ac02cd84e26c35a5a528708adbea7da9326a085dcd2764be633"
    ),
    "decompose--1 0 0 -1": "41b3b968e2fd447afcbf8a24d4cddb7c99a7da8f183b94719e34c29725f36804",
    "decompose-0 -1 1 0": "74f1cc0193bf34627bcc263e9ce7e67251f6ae45a8370ccd8f4d3960c4681c40",
    "decompose-1 0 0 1": "9270829ca0c0c411267b0ec467bafee11e6cd126785e50d6eea155e5aadade50",
    "decompose-1 0 1000 1": "018a4890085ae83a921057a6f95724430088c69040c09c2337641a72360e83f2",
}


def _invoke(args, exit_code=0):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == exit_code, result.output
    return result.stdout_bytes + result.stderr_bytes


def _perm(tmp_path, source, k):
    out = tmp_path / "orb.json"
    _invoke(["perm", "--k", str(k), str(source), "-o", str(out)])
    return out.read_bytes()


def _source_file(tmp_path, spec):
    # a source family of the benchmark's inputs, defined once in perfbench
    loader = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(inputs)
    path = tmp_path / "source.json"
    path.write_text(json.dumps(modular_datum_to_dict(inputs.source(spec))))
    return path


def _on_orbifold(tmp_path, name, k, args):
    # `check` prints its input path, so the orbifold goes to a relative one
    _perm(tmp_path, fixtures.path(name), k)
    return _invoke([*args, "orb.json"])


def _spec_text(source, k):
    spec = restricted_spec_to_dict(*permutation_restriction_data(source, k))
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


def _restricted(tmp_path, source, k):
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec_path.write_text(_spec_text(source, k))
    _invoke(["restricted", str(spec_path), "-o", str(out)])
    return out.read_bytes()


def _output(case, tmp_path):
    kind, rest = case.split("-", 1)
    if kind == "perm":
        name, k = rest.split("-")
        return _perm(tmp_path, fixtures.path(name), int(k))
    if kind == "permsrc":
        spec, k = rest.split("-")
        return _perm(tmp_path, _source_file(tmp_path, spec), int(k))
    if kind == "permplus":
        name, k = rest.split("-")
        return _invoke(["perm", "--convention", "plus", "--k", k, str(fixtures.path(name))], 1)
    if kind == "orbcheck":
        name, k = rest.split("-")
        return _on_orbifold(tmp_path, name, int(k), ["check"])
    if kind == "orbfusion":
        name, k, fmt = rest.split("-")
        return _on_orbifold(tmp_path, name, int(k), ["fusion", "--format", fmt])
    if kind in ("tmatrix", "fusion"):
        name, fmt = rest.split("-")
        return _invoke([kind, "--format", fmt, str(fixtures.path(name))])
    if kind == "decompose":
        return _invoke(["sl2z", "decompose", *rest.split()])
    if kind in ("spec", "specsrc", "restricted", "restrictedsrc"):
        name, k = rest.split("-")
        if kind.endswith("src"):
            source = parse_modular_datum(_source_file(tmp_path, name).read_text())
        else:
            source = fixtures.load(name)
        if kind.startswith("spec"):
            return _spec_text(source, int(k)).encode()
        return _restricted(tmp_path, source, int(k))
    raise ValueError(f"unknown golden case {case!r}")


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_bytes_match_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256(_output(case, tmp_path)).hexdigest()
    assert digest == GOLDEN[case]


def test_perm_to_a_pipe_matches_golden():
    # a real process: stdout is a pipe with a binary buffer, not CliRunner's
    src = str(Path(orbmod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-m", "orbmod.cli", "perm", "--k", "2", str(fixtures.path("ising"))],
        capture_output=True, env=env, check=True,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN["perm-ising-2"]
    assert b"validation: PASS" in result.stderr
