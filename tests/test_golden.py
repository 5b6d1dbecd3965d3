"""Golden bytes of the CLI outputs built from the serializers, the
fusion table and the generator words, pinned by their sha256 digests.

Any change to an output byte fails here; change a digest only together
with an intended change of the output format.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from orbmod import fixtures
from orbmod.cli import main
from orbmod.perm_orbifold import permutation_restriction_data
from orbmod.restricted import restricted_spec_to_dict

GOLDEN = {
    "perm-ising-2": "e054d68f46102059d25d70c3cc89fa4b3bcd93400199906ac3cdc7e137216308",
    "perm-fibonacci-3": "56920429eab6f762f97caf0a446def0d1481071a9ea14bb345876fe501bbc48f",
    "perm-fibonacci-5": "df59b7bbca95df986e76e6516bb470f79590b23a841b7604df8f73d85756ebda",
    "perm-fibonacci-7": "b87658609e86f7677604523d24486422eeb8b2f868f8fef68b4cd722dfd4548e",
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
    # a 40-bit matrix whose continued fraction holds the quotient 1000
    "decompose-856145336725 194079139008 606087388278 137393633341": (
        "25894f08a8760ac02cd84e26c35a5a528708adbea7da9326a085dcd2764be633"
    ),
    "decompose--1 0 0 -1": "41b3b968e2fd447afcbf8a24d4cddb7c99a7da8f183b94719e34c29725f36804",
    "decompose-0 -1 1 0": "74f1cc0193bf34627bcc263e9ce7e67251f6ae45a8370ccd8f4d3960c4681c40",
    "decompose-1 0 0 1": "9270829ca0c0c411267b0ec467bafee11e6cd126785e50d6eea155e5aadade50",
    "decompose-1 0 1000 1": "018a4890085ae83a921057a6f95724430088c69040c09c2337641a72360e83f2",
}


def _invoke(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


def _perm(tmp_path, name, k):
    out = tmp_path / "orb.json"
    _invoke(["perm", "--k", str(k), str(fixtures.path(name)), "-o", str(out)])
    return out.read_bytes()


def _spec_text():
    spec = restricted_spec_to_dict(*permutation_restriction_data(fixtures.load("ising"), 2))
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


def _restricted(tmp_path):
    spec_path, out = tmp_path / "spec.json", tmp_path / "out.json"
    spec_path.write_text(_spec_text())
    _invoke(["restricted", str(spec_path), "-o", str(out)])
    return out.read_bytes()


def _output(case, tmp_path):
    kind, rest = case.split("-", 1)
    if kind == "perm":
        name, k = rest.split("-")
        return _perm(tmp_path, name, int(k))
    if kind in ("tmatrix", "fusion"):
        name, fmt = rest.split("-")
        return _invoke([kind, "--format", fmt, str(fixtures.path(name))])
    if kind == "decompose":
        return _invoke(["sl2z", "decompose", *rest.split()])
    if kind == "spec":
        return _spec_text().encode()
    return _restricted(tmp_path)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_cli_output_bytes_match_golden(case, tmp_path):
    digest = hashlib.sha256(_output(case, tmp_path)).hexdigest()
    assert digest == GOLDEN[case]
