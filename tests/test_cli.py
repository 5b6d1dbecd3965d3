import io
import json
import os
import resource
import stat
import sys
import threading
import time

import numpy as np
import pytest
from click.testing import CliRunner

from orbmod import cli, fixtures, modular_data, perm_orbifold
from orbmod.cli import format_complex_csv, main, render_fusion_table
from orbmod.modular_data import parse_modular_datum, verlinde_fusion
from orbmod.perm_orbifold import module_count, permutation_restriction_data
from orbmod.restricted import restricted_spec_to_dict


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


def test_check_prints_failing_checks(runner, tmp_path):
    path = write_perturbed_ising(tmp_path)
    result = runner.invoke(main, ["check", path])
    assert result.exit_code == 1
    *fails, verdict = result.stdout.splitlines()
    assert fails and all(line.startswith("FAIL ") for line in fails)
    assert fails[0].startswith("FAIL unitary residual=")
    assert verdict == f"FAIL {path}: {6 - len(fails)}/6 checks"


@pytest.mark.parametrize("command", [["check"], ["perm", "--k", "2"], ["restricted"]])
@pytest.mark.parametrize("content", [None, b"\xff\xfe{"], ids=["missing", "not-utf8"])
def test_unreadable_input_is_input_error(runner, tmp_path, command, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    result = runner.invoke(main, [*command, str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize(
    "command,name,mutate,text",
    [
        # str() of the orbifold's central charge failed while writing it
        (["perm", "--k", "2"], "holomorphic_c8", lambda doc: doc.update(central_charge="8e5000"), "8e5000"),
        # str() of the T angle failed
        (["tmatrix"], "ising", lambda doc: doc["modules"][1].update(h="1e-5000"), "1e-5000"),
        # Fraction expanded 10**10000000 for seconds
        (["check"], "ising", lambda doc: doc["modules"][1].update(h="1e10000000"), "1e10000000"),
    ],
    ids=["perm-c", "tmatrix-h", "check-h"],
)
def test_rational_out_of_range_is_input_error(runner, tmp_path, command, name, mutate, text):
    doc = json.loads(fixtures.path(name).read_text())
    mutate(doc)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = runner.invoke(main, [*command, str(path)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == (
        f"error: {path}: rational number out of range (more than 4300 digits): {text!r}\n"
    )


@pytest.mark.parametrize(
    "command,name,mutate,where",
    [
        # each input has 4300 digits; the orbifold's k*c has 4301
        (
            ["perm", "--k", "2", "-o", "orb.json"],
            "holomorphic_c8",
            lambda doc: doc.update(central_charge="8" * 4300),
            "central_charge",
        ),
        # the T angle h - c/24 has the lcm of both denominators
        *(
            (
                ["tmatrix", "--format", fmt],
                "ising",
                lambda doc: doc["modules"][1].update(h="1/" + "7" * 4300),
                "T angle of module 'eps'",
            )
            for fmt in ("pretty", "json", "csv")
        ),
    ],
    ids=["perm-kc", "tmatrix-pretty", "tmatrix-json", "tmatrix-csv"],
)
def test_computed_rational_out_of_range_is_input_error(
    runner, tmp_path, monkeypatch, command, name, mutate, where
):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(fixtures.path(name).read_text())
    mutate(doc)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [*command, str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == (
        f"error: {path}: rational number out of range (more than 4300 digits) in {where}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["datum.json"]


@pytest.mark.parametrize("labels", [[None, 5], ["None", None], [5, "x"]])
def test_non_string_labels_are_input_errors(runner, tmp_path, labels):
    doc = json.loads(fixtures.path("ising").read_text())
    for module, label in zip(doc["modules"][1:], labels):
        module["label"] = label
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["tmatrix", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    pos = 1 if not isinstance(labels[0], str) else 2
    kind = type(labels[pos - 1]).__name__
    assert result.stderr == f"error: {path}: module #{pos} label must be a string, not {kind}\n"


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


def test_fusion_fails_and_prints_negative_coefficients(runner, tmp_path):
    # row tau of Fibonacci negated: unitary with a positive vacuum row, so
    # fusion runs, but tau x tau = 1 - tau fails integrality
    doc = json.loads(fixtures.path("fibonacci").read_text())
    for entry in doc["S"][1]:
        entry["re"] = repr(-float(entry["re"]))
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    pretty = runner.invoke(main, ["fusion", str(path)])
    assert pretty.exit_code == 1
    assert "tau x tau = 1 + -1*tau\n" in pretty.stdout
    as_json = runner.invoke(main, ["fusion", "--format", "json", str(path)])
    assert as_json.exit_code == 1
    assert json.loads(as_json.stdout)["fusion"][1][1] == [1, -1]
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 1


def test_fusion_reports_undefined_verlinde(runner, tmp_path):
    result = runner.invoke(main, ["fusion", "--eps", "1e-14", write_near_zero_vacuum(tmp_path)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "fusion failed: vacuum S-matrix row has a near-zero entry; fusion is undefined\n"
    )


def test_fusion_computes_verlinde_once(runner, monkeypatch):
    calls = []

    def counting(d, **kwargs):
        calls.append((d.rank, kwargs.get("keep_table", True)))
        return original(d, **kwargs)

    # rebind every orbmod name for the function, however it was imported
    original = modular_data.verlinde_fusion
    for name, module in list(sys.modules.items()):
        if name.startswith("orbmod") and getattr(module, "verlinde_fusion", None) is original:
            monkeypatch.setattr(module, "verlinde_fusion", counting)
    # one pass per datum (perm validates its input and the orbifold), and
    # only fusion keeps the table
    passes = {
        ("fusion",): [(3, True)],
        ("check",): [(3, False)],
        ("validate",): [(3, False)],
        ("perm", "--k", "2"): [(3, False), (15, False)],
    }
    for command, expected in passes.items():
        calls.clear()
        result = runner.invoke(main, [*command, ising_path()])
        assert result.exit_code == 0
        assert calls == expected, command


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


class FailingFile:
    """A file that takes the first ``whole`` chunks it is given, then half of
    the next one, then fails as a full disk would."""

    def __init__(self, fh, whole=0):
        self.fh = fh
        self.whole = whole

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.whole:
            self.whole -= 1
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("step", ["write", "second-chunk", "replace"])
def test_perm_failed_write_leaves_old_target(runner, tmp_path, monkeypatch, step):
    out = tmp_path / "orb.json"
    out.write_text("old\n")
    if step != "replace":
        real_fdopen = os.fdopen
        whole = int(step == "second-chunk")
        monkeypatch.setattr(
            os, "fdopen", lambda fd, mode: FailingFile(real_fdopen(fd, mode), whole)
        )
    else:
        def fail(src, dst):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "replace", fail)
    result = runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(out)])
    assert result.exit_code == 2
    assert f"error: cannot write {out}" in result.stderr
    assert "Traceback" not in result.output
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["orb.json"]  # no temp file left


def test_perm_output_mode_matches_plain_write(runner, tmp_path):
    new, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_text("")
    kept.chmod(0o600)
    umask = os.umask(0o027)
    try:
        for out in (new, kept):
            result = runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(out)])
            assert result.exit_code == 0
    finally:
        os.umask(umask)
    assert new.stat().st_mode & 0o777 == 0o640
    assert kept.stat().st_mode & 0o777 == 0o600
    assert new.read_bytes() == kept.read_bytes()


def test_perm_output_writes_through_symlink(runner, tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    link.symlink_to(real)
    result = runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(link)])
    assert result.exit_code == 0
    assert link.is_symlink()
    assert parse_modular_datum(real.read_text()).rank == 15


def test_perm_output_writes_a_fifo_in_place(runner, tmp_path):
    # A device or FIFO target (/dev/null, /dev/stdout, a process
    # substitution) is written, not replaced by a regular file.
    plain, fifo = tmp_path / "plain.json", tmp_path / "fifo"
    assert runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(plain)]).exit_code == 0
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    result = runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(fifo)])
    reader.join(timeout=30)
    assert result.exit_code == 0
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == [plain.read_bytes()]


def test_perm_output_in_place_when_directory_refuses_temp(runner, tmp_path, monkeypatch):
    # A writable file in a directory the user cannot write to is still
    # written, in place.
    out = tmp_path / "orb.json"
    out.write_text("old\n")
    inode = out.stat().st_ino
    real_open = os.open

    def refuse_in_tmp_path(path, flags, mode=0o777, **kw):
        if os.path.dirname(path) == str(tmp_path):
            raise PermissionError(13, "Permission denied", path)
        return real_open(path, flags, mode, **kw)

    monkeypatch.setattr(os, "open", refuse_in_tmp_path)
    result = runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(out)])
    assert result.exit_code == 0
    assert out.stat().st_ino == inode
    assert parse_modular_datum(out.read_text()).rank == 15
    assert [p.name for p in tmp_path.iterdir()] == ["orb.json"]


def test_perm_stdout_mode_is_parseable(runner):
    result = runner.invoke(main, ["perm", "--k", "2", ising_path()])
    assert result.exit_code == 0
    datum = parse_modular_datum(result.stdout)
    assert datum.rank == 15
    assert "validation: PASS" in result.stderr


def test_json_reaches_a_stdout_without_a_binary_buffer(runner, monkeypatch):
    # JSON is printed as bytes where stdout has a buffer; io.StringIO has none
    args = ["fusion", "--format", "json", ising_path()]
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(SystemExit) as exit_:
        main(args, standalone_mode=False)
    monkeypatch.undo()
    assert exit_.value.code == 0
    assert stdout.getvalue() == runner.invoke(main, args).stdout
    assert json.loads(stdout.getvalue())["labels"] == ["1", "eps", "sigma"]


def pipe_bytes(chunks, monkeypatch):
    """What a process reading a pipe on stdout gets."""
    read_end, write_end = os.pipe()
    received = []
    reader = threading.Thread(target=lambda: received.append(os.fdopen(read_end, "rb").read()))
    reader.start()
    with io.TextIOWrapper(os.fdopen(write_end, "wb"), encoding="ascii") as stdout:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stdout)
            cli._write_output(chunks, None)
    reader.join(timeout=30)
    assert not reader.is_alive()
    return received[0]


def text_stdout_bytes(chunks, monkeypatch):
    stdout = io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        cli._write_output(chunks, None)
    return stdout.getvalue().encode("ascii")


def file_bytes(chunks, path):
    cli._write_output(chunks, str(path))
    return path.read_bytes()


@pytest.mark.parametrize(
    "table",
    [
        # every entry one digit wide: the grids are cut at their heads
        np.arange(5**3).reshape(5, 5, 5) % 10,
        # widths from 1 to 5 digits, and negative entries
        (np.arange(5**3).reshape(5, 5, 5) - 60) ** 3 // 7,
    ],
    ids=["one-width", "mixed-widths"],
)
@pytest.mark.parametrize("grid_entries", [7, 1 << 16])
def test_every_sink_gets_the_same_json_bytes(table, grid_entries, tmp_path, monkeypatch):
    monkeypatch.setattr(modular_data, "_GRID_ENTRIES", grid_entries)
    doc = {"labels": ["a", "b"], "fusion": table, "residual": 1e-15}
    expected = (json.dumps({**doc, "fusion": table.tolist()}, indent=2, sort_keys=True) + "\n").encode()
    assert pipe_bytes(modular_data._dump_json(doc), monkeypatch) == expected
    assert text_stdout_bytes(modular_data._dump_json(doc), monkeypatch) == expected
    assert file_bytes(modular_data._dump_json(doc), tmp_path / "out.json") == expected


def test_perm_output_file_keeps_its_summary_on_stdout(runner, tmp_path):
    out = tmp_path / "orb.json"
    result = runner.invoke(main, ["perm", "--k", "2", ising_path(), "-o", str(out)])
    assert result.exit_code == 0
    assert result.stdout.splitlines() == [
        "modules: 15",
        "convention: minus",
        "validation: PASS",
        "convention 'minus' validated",
    ]
    assert result.stderr == ""


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


def test_perm_quotes_source_labels_holding_commas(runner, tmp_path):
    # a valid U(1)_4 datum whose labels would print off(x, y,z) and
    # off(x,y, z) alike if the factors were joined unquoted
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
    assert result.exit_code == 0, result.stderr
    out = [m["label"] for m in json.loads(result.stdout)["modules"]]
    assert len(set(out)) == len(out) == module_count(4, 2)
    assert {'off(x,"y,z")', 'off("x,y",z)', 'off(x,z)'} <= set(out)
    assert 'off("y,z","x,y")' in out and "diag(y,z;1)" in out
    # the exported restricted spec names its orbits the same way
    spec = restricted_spec_to_dict(*permutation_restriction_data(parse_modular_datum(doc), 2))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["restricted", str(spec_path)])
    assert result.exit_code == 0, result.stderr
    pairs = [(p["orbit"], p["character"]) for p in json.loads(result.stdout)["pairs"]]
    assert len(set(pairs)) == len(pairs) == module_count(4, 2)
    assert {'off(x,"y,z")', 'off("x,y",z)', 'off("y,z","x,y")'} <= {o for o, _ in pairs}


@pytest.mark.parametrize(
    "k, count",
    # at k=13 the dense S alone would take about 243 GB; the k=10007 count
    # has too many digits for str()
    [(13, "123147"), (10007, "about 10^4771")],
)
def test_perm_refuses_orbifold_larger_than_memory(runner, monkeypatch, k, count):
    def no_allocation(*args, **kwargs):
        raise AssertionError("orbifold modules enumerated")

    monkeypatch.setattr(perm_orbifold, "enumerate_orbifold_modules", no_allocation)
    result = runner.invoke(main, ["perm", "--k", str(k), ising_path()])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: the k={k} orbifold of {ising_path()} has {count} modules;")


def test_perm_refuses_a_huge_prime_k_at_once(runner):
    started = time.perf_counter()
    result = runner.invoke(main, ["perm", "--k", "1000000007", ising_path()])
    assert time.perf_counter() - started < 1
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(
        f"error: the k=1000000007 orbifold of {ising_path()} has about 10^477121249 modules;"
    )


def test_perm_refuses_a_64_bit_prime_k_at_once(runner):
    # 2**61 - 1 is prime; trial division took minutes to say so
    started = time.perf_counter()
    result = runner.invoke(main, ["perm", "--k", str(2**61 - 1), ising_path()])
    assert time.perf_counter() - started < 1
    assert result.exit_code == 2
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"error: the k={2**61 - 1} orbifold of {ising_path()} has about 10^")


@pytest.mark.parametrize(
    "command,subject",
    [
        (["validate"], "{path}"),
        (["check"], "{path}"),
        (["fusion", "--format", "json"], "{path}"),
        (["perm", "--k", "2"], "the k=2 orbifold of {path}"),
    ],
    ids=["validate", "check", "fusion", "perm"],
)
def test_every_validating_command_refuses_a_datum_larger_than_memory(
    runner, monkeypatch, command, subject
):
    def no_validation(*args, **kwargs):
        raise AssertionError("validation started")

    monkeypatch.setattr(cli, "validate_modular_datum", no_validation)
    monkeypatch.setattr(os, "sysconf", lambda name: 1)  # one page of one byte
    result = runner.invoke(main, [*command, ising_path()])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    count = 3 if command[0] != "perm" else module_count(3, 2)
    assert result.stderr == (
        f"error: {subject.format(path=ising_path())} has {count} modules; validating it "
        "needs more than the 9.31e-10 GiB of physical memory\n"
    )


def test_fusion_alone_needs_memory_for_its_table(runner, monkeypatch):
    # physical memory that holds the streamed validation of Ising, but not
    # its 3^3 fusion table beside it
    have = modular_data.validation_bytes(3) + 8
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": have, "SC_PAGE_SIZE": 1}.__getitem__)
    assert runner.invoke(main, ["validate", ising_path()]).exit_code == 0
    assert runner.invoke(main, ["check", ising_path()]).exit_code == 0
    result = runner.invoke(main, ["fusion", ising_path()])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {ising_path()} has 3 modules; validating it needs")


def test_fusion_refuses_a_table_beyond_the_address_space_limit(runner, monkeypatch):
    # ulimit -v below what the 3^3 table needs, far below physical memory,
    # in a process that maps nothing else
    limit = modular_data.validation_bytes(3, keep_fusion=True) - 1
    monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
    monkeypatch.setattr(modular_data, "_mapped_bytes", lambda: 0)
    result = runner.invoke(main, ["fusion", ising_path()])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == (
        f"error: {ising_path()} has 3 modules; validating it needs more than the "
        f"{limit / 2**30:.3g} GiB of address space allowed by RLIMIT_AS\n"
    )
    assert runner.invoke(main, ["check", ising_path()]).exit_code == 0


def test_address_space_limit_counts_what_the_process_maps(runner, monkeypatch):
    # the 3^3 table fits under the limit, but not beside what is mapped
    need = modular_data.validation_bytes(3, keep_fusion=True)
    limit = need + 4096
    monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
    monkeypatch.setattr(modular_data, "_mapped_bytes", lambda: 4096)
    assert runner.invoke(main, ["fusion", ising_path()]).exit_code == 0
    monkeypatch.setattr(modular_data, "_mapped_bytes", lambda: 4097)
    result = runner.invoke(main, ["fusion", ising_path()])
    assert result.exit_code == 2
    assert result.stderr == (
        f"error: {ising_path()} has 3 modules; validating it needs more than the "
        f"{limit / 2**30:.3g} GiB of address space allowed by RLIMIT_AS\n"
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="no /proc/self/statm")
def test_mapped_bytes_reads_the_virtual_size():
    # a process that imported numpy maps tens of MB at least
    assert modular_data._mapped_bytes() > 2**20


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
        lambda doc: doc["orbits"][0]["characters"]["table"][0][0].update(re=10**400),
        lambda doc: doc["blocks"][0]["entries"][0]["value"].update(re=10**400),
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


@pytest.mark.parametrize("dims", [[2], [10**400]])
def test_restricted_cli_reports_failing_group_data(runner, tmp_path, dims):
    spec_path, datum = make_trivial_spec(tmp_path)
    doc = json.loads(spec_path.read_text())
    doc["orbits"][1]["characters"]["dims"] = dims
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["restricted", str(spec_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"group data FAIL: dimension_sum worst orbit: {datum.labels[1]}\n"


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda doc: doc.update(group=[2.7]), 'bad "group" entry: invariant factor must be an integer, got 2.7'),
        (lambda doc: doc.update(group=["2"]), "bad \"group\" entry: invariant factor must be an integer, got '2'"),
        (lambda doc: doc.update(group=[True]), 'bad "group" entry: invariant factor must be an integer, got True'),
        (lambda doc: doc["blocks"][0].update(i=1.9), "bad block entry blocks[0]: i must be an integer, got 1.9"),
        (lambda doc: doc["blocks"][0].update(j="0"), "bad block entry blocks[0]: j must be an integer, got '0'"),
        (
            lambda doc: doc["orbits"][1]["characters"].update(dims=[1.5]),
            "bad orbit entry orbits[1]: dimension must be an integer, got 1.5",
        ),
        (
            lambda doc: doc["blocks"][2]["entries"][0].update(kappa=[True]),
            "bad block entry blocks[2]: group element component must be an integer, got True",
        ),
        # the desk-mix message for a zero invariant factor stays as it was
        (lambda doc: doc.update(group=[0]), 'bad "group" entry: invariant factors must be positive, got (0,)'),
    ],
    ids=["group-float", "group-string", "group-bool", "i-float", "j-string", "dims-float",
         "kappa-bool", "group-zero"],
)
def test_restricted_cli_rejects_non_integer_numbers(runner, tmp_path, mutate, message):
    spec_path, _ = make_trivial_spec(tmp_path)
    doc = json.loads(spec_path.read_text())
    mutate(doc)
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["restricted", str(spec_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"error: {spec_path}: {message}\n"


@pytest.mark.parametrize("n_entries", [1, 2])
def test_restricted_cli_rejects_kappa_outside_group(runner, tmp_path, n_entries):
    spec = restricted_spec_to_dict(*permutation_restriction_data(fixtures.load("ising"), 2))
    block = next(b for b in spec["blocks"] if len(b["entries"]) == n_entries)
    block["entries"][0]["kappa"] = [5]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["restricted", str(spec_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == "error: (5,) is not an element of Z_2\n"


def test_restricted_cli_rejects_duplicate_transversal(runner, tmp_path):
    spec_path, _ = make_trivial_spec(tmp_path)
    doc = json.loads(spec_path.read_text())
    entries = doc["blocks"][0]["entries"]
    entries.append(entries[0])
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["restricted", str(spec_path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("error: block (0, 0): transversal elements () and ()")


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
