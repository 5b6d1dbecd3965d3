"""Command-line front end: the commands, their pretty and CSV rendering,
and the writing of output.  Every JSON document is encoded by
:func:`orbmod.modular_data._dump_json` and written by :func:`_write_output`.

Exit codes: 0 when the requested computation succeeds and every check
passes, 1 when tolerance-based checks fail, 2 on input errors (unreadable
files, schema violations, non-prime k, bad flags, an unwritable ``-o``
file).  Identical inputs produce byte-identical outputs on one machine;
the last digits of the Verlinde rounding residual (printed by ``validate``
and ``fusion``) depend on the summation order of the BLAS build.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from collections.abc import Iterable
from pathlib import Path

import click
import numpy as np

from .modular_data import (
    DEFAULT_EPS,
    DEFAULT_EPS_INT,
    FusionTensor,
    InvalidDatum,
    ModularDatum,
    ValidationReport,
    _dump_json,
    _rational_text,
    _require_memory,
    format_complex,
    parse_modular_datum,
    t_matrix,
    validate_modular_datum,
)
from .perm_orbifold import (
    _orbifold_document,
    _require_orbifold_memory,
    build_orbifold_datum,
)
from .restricted import (
    _negated_twists,
    _result_document,
    assemble_restricted_S,
    parse_restricted_spec,
    validate_group_data,
)
from .sl2z import SL2Matrix, decompose_to_generators, evaluate_word, is_prime

__all__ = ["main"]

_FORMATS = click.Choice(["pretty", "json", "csv"])


class _Tolerance(click.types.FloatParamType):
    # finite and >= 0: a NaN tolerance fails every check, a negative one
    # every exact identity, an infinite one passes almost anything
    def convert(self, value, param, ctx):
        tol = super().convert(value, param, ctx)
        if math.isfinite(tol) and tol >= 0:
            return tol
        self.fail(f"{value!r} is not a finite float >= 0.", param, ctx)


_eps_option = click.option(
    "--eps", type=_Tolerance(), default=DEFAULT_EPS, envvar="ORBMOD_EPS", show_default=True,
    help="Tolerance for matrix identities (env: ORBMOD_EPS).",
)
_eps_int_option = click.option(
    "--eps-int", type=_Tolerance(), default=DEFAULT_EPS_INT, envvar="ORBMOD_EPS_INT",
    show_default=True, help="Tolerance for fusion integrality (env: ORBMOD_EPS_INT).",
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


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail_input(f"cannot read {path}: {exc}")


def _load_datum(path: str) -> ModularDatum:
    try:
        return parse_modular_datum(_read_input(path))
    except InvalidDatum as exc:
        _fail_input(f"{path}: {exc}")


def _validated(
    path: str, eps: float, eps_int: float, *, keep_fusion: bool = False
) -> tuple[ModularDatum, ValidationReport]:
    """The datum of the file ``path`` and its validation report.  Exits 2
    on an input error, and, before anything is allocated, when validating
    the datum would need more memory than the machine has or allows (see
    :func:`orbmod.modular_data.validation_bytes`)."""
    datum = _load_datum(path)
    try:
        _require_memory(datum.rank, path, keep_fusion=keep_fusion)
    except InvalidDatum as exc:
        _fail_input(str(exc))
    return datum, validate_modular_datum(datum, eps, eps_int, keep_fusion=keep_fusion)


def _write_output(chunks: Iterable[bytes], output: str | None) -> None:
    """Write the ASCII byte ``chunks`` of a JSON document, in order, to
    stdout or to the file ``output``; no text of the whole document is
    made.

    Printed chunks go to stdout's binary buffer, which ``click.echo`` does
    not scan for ANSI codes as it scans text for a pipe; a stdout with no
    buffer, such as an ``io.StringIO``, gets them as text.

    A regular or new file is replaced atomically: the chunks go to a temp
    file in the target's directory that is renamed over the target, so a
    run that fails or is killed mid-write leaves the old file (or none),
    never a truncated one.  No fsync is made, so this does not hold across
    a system crash.  The new file keeps the old one's permission bits, or
    gets ``0o666`` less the umask, but not its hard links, owner, ACLs or
    xattrs.  Anything else (``/dev/null``, ``/dev/stdout``, a FIFO), and a
    file whose directory refuses a temp file, is written in place."""
    if output is None:
        stream = getattr(sys.stdout, "buffer", None)
        if stream is None:
            for chunk in chunks:
                sys.stdout.write(chunk.decode("ascii"))
        else:
            sys.stdout.flush()  # text echoed before, if any
            for chunk in chunks:
                stream.write(chunk)
            stream.flush()
        return
    try:
        try:
            old = os.stat(output)  # through a symlink, as open goes
        except FileNotFoundError:
            old = None
        if old is not None and not stat.S_ISREG(old.st_mode):
            _write_in_place(output, chunks)
        else:
            _replace_file(Path(output).resolve(), chunks, old)
    except OSError as exc:
        _fail_input(f"cannot write {output}: {exc}")


def _write_in_place(path, chunks: Iterable[bytes]) -> None:
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _replace_file(target: Path, chunks: Iterable[bytes], old: os.stat_result | None) -> None:
    tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}")
    try:
        # mode 0o666 less the umask, as open creates a file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except PermissionError:
        if old is None:
            raise
        _write_in_place(target, chunks)
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        if old is not None:
            os.chmod(tmp, old.st_mode & 0o777)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


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
    """One line per unordered module pair: ``a x b = m1 + 2*m2 + ...``,
    negative coefficients included (``-1*m``)."""
    n = len(labels)
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for i, j, m, mult in _nonzero_entries(fusion.table):
        if j >= i:
            terms[i][j].append(labels[m] if mult == 1 else f"{mult}*{labels[m]}")
    lines = [
        f"{labels[i]} x {labels[j]} = " + (" + ".join(terms[i][j]) or "0")
        for i in range(n)
        for j in range(i, n)
    ]
    return "\n".join(lines) + "\n"


def _nonzero_entries(table: np.ndarray):
    """``(i, j, m, table[i, j, m])`` as Python ints for every nonzero
    entry, in C order."""
    where = np.nonzero(table)
    return zip(*(a.tolist() for a in where), table[where].tolist())


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
    _, report = _validated(input_path, eps, eps_int)
    if fmt == "json":
        _write_output(_dump_json(_report_dict(report)), None)
    else:
        click.echo(_render_report(report, fmt), nl=False)
    sys.exit(0 if report.ok else 1)


@main.command()
@click.argument("input_path", metavar="INPUT")
@_eps_option
@_eps_int_option
def check(input_path, eps, eps_int):
    """Terse validation: verdict plus any failing checks."""
    _, report = _validated(input_path, eps, eps_int)
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
    datum, report = _validated(input_path, eps, eps_int, keep_fusion=True)
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
            "fusion": tensor.table,
            "residual": tensor.residual,
        }
        _write_output(_dump_json(doc), None)
    elif fmt == "csv":
        lines = ["i,j,m,N"]
        for i, j, m, mult in _nonzero_entries(tensor.table):
            lines.append(f"{labels[i]},{labels[j]},{labels[m]},{mult}")
        click.echo("\n".join(lines))
    else:
        click.echo(render_fusion_table(tensor, labels), nl=False)
        click.echo(f"max rounding residual: {tensor.residual:.3e}")
    sys.exit(0 if report["fusion_integrality"].passed else 1)


@main.command()
@click.argument("input_path", metavar="INPUT")
@_format_option
def tmatrix(input_path, fmt):
    """Diagonal T-matrix phases of a datum."""
    datum = _load_datum(input_path)
    phases = t_matrix(datum)
    try:
        angles = [
            _rational_text(p.angle, f"T angle of module {m.label!r}")
            for m, p in zip(datum.modules, phases)
        ]
    except InvalidDatum as exc:
        _fail_input(f"{input_path}: {exc}")
    rows = list(zip(datum.modules, angles, phases))
    if fmt == "json":
        doc = [
            {"label": m.label, "angle": angle, **format_complex(p.value)}
            for m, angle, p in rows
        ]
        _write_output(_dump_json({"t_phases": doc}), None)
    elif fmt == "csv":
        lines = ["label,angle,value"]
        for m, angle, p in rows:
            lines.append(f'{m.label},{angle},"{format_complex_csv(p.value)}"')
        click.echo("\n".join(lines))
    else:
        width = max(len(m.label) for m in datum.modules)
        for m, angle, p in rows:
            click.echo(
                f"{m.label:<{width}}  angle={angle:<8}  "
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
    try:
        _require_orbifold_memory(datum.rank, k, f"the k={k} orbifold of {input_path}")
    except InvalidDatum as exc:
        _fail_input(str(exc))
    in_report = validate_modular_datum(datum, eps, eps_int)
    if not in_report.ok:
        for c in in_report.failures():
            click.echo(f"input check FAIL: {c.name} residual={c.residual:.6e}", err=True)
        sys.exit(1)
    try:
        orb = build_orbifold_datum(
            datum, k, convention, eps=eps, eps_int=eps_int, validate_input=False
        )
        doc = _orbifold_document(orb)
    except InvalidDatum as exc:
        # a ModularDatum invariant (unique labels, finite S), or a rational
        # too long to write
        _fail_input(f"{input_path}: {exc}")
    summary = sys.stdout if output is not None else sys.stderr
    _write_output(_dump_json(doc), output)
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
        orbits, blocks, group = parse_restricted_spec(_read_input(input_path))
    except InvalidDatum as exc:
        _fail_input(f"{input_path}: {exc}")
    try:
        _negated_twists(orbits, group)  # an element outside the group is malformed input
    except ValueError as exc:
        _fail_input(str(exc))
    report = validate_group_data(orbits, eps)
    if not report.ok:
        for c in report.failures():
            click.echo(f"group data FAIL: {c.name} {c.detail}".rstrip(), err=True)
        sys.exit(1)
    try:
        pairs, matrix = assemble_restricted_S(orbits, blocks, group, eps=eps)
    except ValueError as exc:
        _fail_input(str(exc))
    _write_output(_dump_json(_result_document(pairs, matrix, orbits)), output)
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
