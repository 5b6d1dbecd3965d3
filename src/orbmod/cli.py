"""Command-line front end.

Exit codes: 0 when the requested computation succeeds and every check
passes, 1 when tolerance-based checks fail, 2 on input errors (unreadable
files, schema violations, non-prime k, bad flags).  Identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from .modular_data import (
    DEFAULT_EPS,
    DEFAULT_EPS_INT,
    FusionTensor,
    InvalidDatum,
    ModularDatum,
    ValidationReport,
    format_complex,
    parse_modular_datum,
    t_matrix,
    validate_modular_datum,
)
from .perm_orbifold import build_orbifold_datum, orbifold_datum_to_dict
from .restricted import (
    assemble_restricted_S,
    parse_restricted_spec,
    restricted_result_to_dict,
    validate_group_data,
)
from .sl2z import SL2Matrix, decompose_to_generators, evaluate_word, is_prime

__all__ = ["main"]

_FORMATS = click.Choice(["pretty", "json", "csv"])

_eps_option = click.option(
    "--eps",
    type=float,
    default=DEFAULT_EPS,
    envvar="ORBMOD_EPS",
    show_default=True,
    help="Tolerance for matrix identities (env: ORBMOD_EPS).",
)
_eps_int_option = click.option(
    "--eps-int",
    type=float,
    default=DEFAULT_EPS_INT,
    envvar="ORBMOD_EPS_INT",
    show_default=True,
    help="Tolerance for fusion integrality (env: ORBMOD_EPS_INT).",
)
_format_option = click.option(
    "--format", "fmt", type=_FORMATS, default="pretty", show_default=True
)


def format_complex_csv(z: complex) -> str:
    """Fixed 12-significant-digit ``re+im*i`` rendering for CSV cells."""
    return f"{z.real:.12g}{z.imag:+.12g}*i"


def _fail_input(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_datum(path: str) -> ModularDatum:
    try:
        return parse_modular_datum(Path(path).read_text())
    except OSError as exc:
        _fail_input(f"cannot read {path}: {exc}")
    except InvalidDatum as exc:
        _fail_input(f"{path}: {exc}")


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text)


def _report_dict(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                # JSON has no Infinity: an undefined residual is null
                "residual": c.residual if math.isfinite(c.residual) else None,
                "detail": c.detail,
            }
            for c in report.checks
        ],
    }


def _render_report(report: ValidationReport, fmt: str) -> str:
    if fmt == "json":
        return _dump_json(_report_dict(report))
    if fmt == "csv":
        lines = ["check,passed,residual,detail"]
        for c in report.checks:
            lines.append(f'{c.name},{str(c.passed).lower()},{c.residual:.6e},"{c.detail}"')
        return "\n".join(lines) + "\n"
    width = max(len(c.name) for c in report.checks)
    lines = []
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        line = f"{c.name:<{width}}  {status}  residual={c.residual:.6e}"
        if c.detail:
            line += f"  ({c.detail})"
        lines.append(line)
    verdict = "PASS" if report.ok else "FAIL"
    n_pass = sum(c.passed for c in report.checks)
    lines.append(f"verdict: {verdict} ({n_pass}/{len(report.checks)} checks)")
    return "\n".join(lines) + "\n"


def render_fusion_table(fusion: FusionTensor, labels) -> str:
    """One line per unordered module pair: ``a x b = m1 + 2*m2 + ...``."""
    n = fusion.rank
    table = fusion.table
    lines = []
    for i in range(n):
        for j in range(i, n):
            terms = []
            for m in range(n):
                mult = int(table[i, j, m])
                if mult == 1:
                    terms.append(labels[m])
                elif mult > 1:
                    terms.append(f"{mult}*{labels[m]}")
            lines.append(f"{labels[i]} x {labels[j]} = " + (" + ".join(terms) or "0"))
    return "\n".join(lines) + "\n"


@click.group()
def main():
    """Compute and validate modular data of rational chiral algebras and
    their cyclic permutation orbifolds."""


@main.command()
@click.argument("input_path", metavar="INPUT")
@_eps_option
@_eps_int_option
@_format_option
def validate(input_path, eps, eps_int, fmt):
    """Run the full validation suite on a modular-datum JSON file."""
    datum = _load_datum(input_path)
    report = validate_modular_datum(datum, eps, eps_int)
    click.echo(_render_report(report, fmt), nl=False)
    sys.exit(0 if report.ok else 1)


@main.command()
@click.argument("input_path", metavar="INPUT")
@_eps_option
@_eps_int_option
def check(input_path, eps, eps_int):
    """Terse validation: verdict plus any failing checks."""
    datum = _load_datum(input_path)
    report = validate_modular_datum(datum, eps, eps_int)
    for c in report.failures():
        click.echo(f"FAIL {c.name} residual={c.residual:.6e} {c.detail}".rstrip())
    n_pass = sum(c.passed for c in report.checks)
    verdict = "PASS" if report.ok else "FAIL"
    click.echo(f"{verdict} {input_path}: {n_pass}/{len(report.checks)} checks")
    sys.exit(0 if report.ok else 1)


@main.command()
@click.argument("input_path", metavar="INPUT")
@_eps_option
@_eps_int_option
@_format_option
def fusion(input_path, eps, eps_int, fmt):
    """Verlinde fusion rules of a validated datum."""
    datum = _load_datum(input_path)
    report = validate_modular_datum(datum, eps, eps_int)
    gate = [report["unitary"], report["vacuum_row_positive"]]
    if not all(c.passed for c in gate):
        click.echo("datum fails unitarity/positivity; fusion not computed", err=True)
        sys.exit(1)
    tensor = report.fusion
    if tensor is None:
        click.echo(f"fusion failed: {report['fusion_integrality'].detail}", err=True)
        sys.exit(1)
    labels = datum.labels
    if fmt == "json":
        doc = {
            "labels": list(labels),
            "fusion": tensor.table.tolist(),
            "residual": tensor.residual,
        }
        click.echo(_dump_json(doc), nl=False)
    elif fmt == "csv":
        lines = ["i,j,m,N"]
        n = tensor.rank
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    if tensor.table[i, j, m]:
                        lines.append(f"{labels[i]},{labels[j]},{labels[m]},{tensor.table[i, j, m]}")
        click.echo("\n".join(lines))
    else:
        click.echo(render_fusion_table(tensor, labels), nl=False)
        click.echo(f"max rounding residual: {tensor.residual:.3e}")
    sys.exit(0 if tensor.residual <= eps_int else 1)


@main.command()
@click.argument("input_path", metavar="INPUT")
@_format_option
def tmatrix(input_path, fmt):
    """Diagonal T-matrix phases of a datum."""
    datum = _load_datum(input_path)
    phases = t_matrix(datum)
    if fmt == "json":
        doc = [
            {"label": m.label, "angle": str(p.angle), **format_complex(p.value)}
            for m, p in zip(datum.modules, phases)
        ]
        click.echo(_dump_json({"t_phases": doc}), nl=False)
    elif fmt == "csv":
        lines = ["label,angle,value"]
        for m, p in zip(datum.modules, phases):
            lines.append(f'{m.label},{p.angle},"{format_complex_csv(p.value)}"')
        click.echo("\n".join(lines))
    else:
        width = max(len(m.label) for m in datum.modules)
        for m, p in zip(datum.modules, phases):
            click.echo(
                f"{m.label:<{width}}  angle={str(p.angle):<8}  "
                f"value={format_complex_csv(p.value)}"
            )
    sys.exit(0)


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.option("--k", "k", type=int, required=True, help="Prime order of the cyclic group.")
@click.option("-o", "--output", type=click.Path(dir_okay=False, writable=True))
@click.option(
    "--convention",
    type=click.Choice(["minus", "plus"]),
    default="minus",
    show_default=True,
    help="Eigenvalue-residue sign convention for twisted component weights.",
)
@_eps_option
@_eps_int_option
def perm(input_path, k, output, convention, eps, eps_int):
    """Build the modular datum of the cyclic permutation orbifold."""
    if not is_prime(k):
        _fail_input(f"k must be prime, got {k}")
    datum = _load_datum(input_path)
    in_report = validate_modular_datum(datum, eps, eps_int)
    if not in_report.ok:
        for c in in_report.failures():
            click.echo(f"input check FAIL: {c.name} residual={c.residual:.6e}", err=True)
        sys.exit(1)
    try:
        orb = build_orbifold_datum(
            datum, k, convention, eps=eps, eps_int=eps_int, validate_input=False
        )
    except InvalidDatum as exc:  # e.g. two orbifold modules with one label
        _fail_input(f"{input_path}: {exc}")
    text = _dump_json(orbifold_datum_to_dict(orb))
    summary = sys.stdout if output is not None else sys.stderr
    _write_output(text, output)
    click.echo(f"modules: {orb.datum.rank}", file=summary)
    click.echo(f"convention: {orb.convention}", file=summary)
    verdict = "PASS" if orb.report.ok else "FAIL"
    click.echo(f"validation: {verdict}", file=summary)
    if orb.report.ok:
        click.echo(f"convention {orb.convention!r} validated", file=summary)
    else:
        for c in orb.report.failures():
            click.echo(
                f"check FAIL: {c.name} residual={c.residual:.6e} {c.detail}".rstrip(),
                file=summary,
            )
    sys.exit(0 if orb.report.ok else 1)


@main.command()
@click.argument("input_path", metavar="SPEC")
@click.option("-o", "--output", type=click.Path(dir_okay=False, writable=True))
@_eps_option
def restricted(input_path, output, eps):
    """Assemble a restricted S-matrix from orbit/character/block data."""
    try:
        text = Path(input_path).read_text()
    except OSError as exc:
        _fail_input(f"cannot read {input_path}: {exc}")
    try:
        orbits, blocks, group = parse_restricted_spec(text)
    except InvalidDatum as exc:
        _fail_input(f"{input_path}: {exc}")
    report = validate_group_data(orbits, eps)
    if not report.ok:
        for c in report.failures():
            click.echo(f"group data FAIL: {c.name} {c.detail}".rstrip(), err=True)
        sys.exit(1)
    try:
        pairs, matrix = assemble_restricted_S(orbits, blocks, group, eps=eps)
    except ValueError as exc:
        _fail_input(str(exc))
    _write_output(_dump_json(restricted_result_to_dict(pairs, matrix, orbits)), output)
    if output is not None:
        click.echo(f"pairs: {len(pairs)}")
    sys.exit(0)


@main.group()
def sl2z():
    """Integer SL(2, Z) utilities."""


@sl2z.command(context_settings={"ignore_unknown_options": True})
@click.argument("entries", metavar="A B C D", nargs=4)
def decompose(entries):
    """Factor (a, b; c, d) into S and T generators and verify the round trip."""
    try:
        m = SL2Matrix(*(int(v) for v in entries))
    except ValueError as exc:
        _fail_input(str(exc))
    word = decompose_to_generators(m)
    back = evaluate_word(word)
    click.echo(f"word: {word}")
    click.echo(f"round-trip: {back}")
    exact = back == m
    click.echo(f"exact: {'yes' if exact else 'NO'}")
    sys.exit(0 if exact else 1)


if __name__ == "__main__":
    main()
