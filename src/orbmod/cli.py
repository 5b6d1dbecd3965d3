"""Command-line front end.

Exit codes: 0 when the requested computation succeeds and every check
passes, 1 when tolerance-based checks fail, 2 on input errors (unreadable
files, schema violations, non-prime k, bad flags, an unwritable ``-o``
file).  Identical inputs produce byte-identical outputs on one machine;
the last digits of the Verlinde rounding residual (printed by ``validate``
and ``fusion``) depend on the summation order of the BLAS build.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii
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
    _rational_text,
    _require_memory,
    format_complex,
    parse_modular_datum,
    t_matrix,
    validate_modular_datum,
)
from .perm_orbifold import _orbifold_document, build_orbifold_datum, module_count
from .restricted import (
    _result_document,
    assemble_restricted_S,
    parse_restricted_spec,
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


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        _fail_input(f"cannot read {path}: {exc}")


def _load_datum(path: str) -> ModularDatum:
    try:
        return parse_modular_datum(_read_input(path))
    except InvalidDatum as exc:
        _fail_input(f"{path}: {exc}")


def _check_memory(rank: int, subject: str, *, keep_fusion: bool = False) -> None:
    """Exit 2, before anything is allocated, when validating a datum of
    this rank would need more than physical memory (see
    :func:`orbmod.modular_data.validation_bytes`)."""
    try:
        _require_memory(rank, subject, keep_fusion=keep_fusion)
    except InvalidDatum as exc:
        _fail_input(str(exc))


def _text_rows(texts) -> np.ndarray:
    """The ASCII ``texts`` as the rows of a uint8 matrix, NUL-padded to the
    longest."""
    a = np.array(list(texts), dtype=bytes)
    return a.view(np.uint8).reshape(len(a), a.itemsize)


# fusion tables hold small ints: their texts, looked up by value
_SMALL_INTS = _text_rows(map(str, range(1024)))


def _dump_json(doc: dict) -> Iterator[bytes]:
    """The ASCII bytes of ``json.dumps(doc, indent=2, sort_keys=True) +
    "\\n"``, byte for byte, for any document whose dict keys are strings,
    as a stream of chunks to be written in order.

    With ``indent`` set, CPython's ``json`` leaves its C encoder for a
    pure-Python one that yields one chunk per token (over a million for a
    6.9 MB fusion table).  This encoder collects the text of ``doc``'s
    parts, and yields each run of it between two arrays as one chunk.

    An ``np.ndarray`` of int or complex dtype may stand anywhere in
    ``doc``.  It is written as its ``.tolist()`` would be, except that each
    complex entry ``z`` is written as its ``format_complex(z)`` dict.  Its
    text is built by numpy as byte grids of up to ``_GRID_ENTRIES`` entries
    (see :func:`_grid_chunks`) when its chunks are reached, so S-matrices
    and fusion tables need no per-entry Python objects, and no text of the
    whole document is ever held."""
    parts: list = []  # texts, and the lazy chunks of each array
    _encode(doc, "\n", parts)
    parts.append("\n")
    texts: list[str] = []
    for part in parts:
        if isinstance(part, str):
            texts.append(part)
            continue
        yield "".join(texts).encode("ascii")
        texts.clear()
        yield from part
    yield "".join(texts).encode("ascii")


def _encode(o, newline: str, out: list) -> None:
    # appends the text of ``o`` to ``out``, an array's as an iterator of
    # byte chunks; ``newline`` is "\n" plus the indent of the line ``o``
    # starts on
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif isinstance(o, np.ndarray):
        _encode_array(o, newline, out)
    elif type(o) is int:  # not bool
        out.append(int.__repr__(o))
    elif not isinstance(o, (dict, list, tuple)):
        out.append(json.dumps(o))  # float, bool and None, spelled as json does
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    else:
        inner = newline + "  "
        if isinstance(o, dict):
            opener = "{" + inner
            for k, v in sorted(o.items()):
                out.append(opener + encode_basestring_ascii(k) + ": ")
                opener = "," + inner
                _encode(v, inner, out)
            out.append(newline + "}")
        else:
            opener = "[" + inner
            for v in o:
                out.append(opener)
                opener = "," + inner
                _encode(v, inner, out)
            out.append(newline + "]")


def _encode_array(a: np.ndarray, newline: str, out: list) -> None:
    """Append the text of an int or complex array, as an iterator over
    byte grids of at most ``_GRID_ENTRIES`` entries with a row per
    innermost list."""
    if a.size == 0 or a.dtype.kind not in "iuc":
        return _encode(a.tolist(), newline, out)
    n = a.ndim
    levels = [newline + "  " * d for d in range(n + 1)]  # the lines lists open on
    sep = "," + levels[n]  # before each entry but the first of its row
    # heads[t] opens a row where t lists close; heads[0] opens the array
    heads = ["".join("[" + level for level in levels[1:])] + [
        "".join(level + "]" for level in reversed(levels[n - t:n]))
        + "," + levels[n - t] + "".join("[" + level for level in levels[n - t + 1:])
        for t in range(1, n)
    ]
    head_lengths = [len(head) for head in heads]
    width = max(map(len, [*heads, sep]))  # a 0-d array has no sep
    # NUL-padded on the left, so a row's text starts where its head does
    heads = "".join(head.rjust(width, "\0") for head in heads)
    heads = np.frombuffer(heads.encode(), np.uint8).reshape(-1, width)
    m = a.reshape(-1, a.shape[-1]) if n else a.reshape(1, 1)
    kinds = np.ones(len(m), np.intp)
    for t in range(2, n):
        kinds[::math.prod(a.shape[n - t:n - 1])] = t
    kinds[0] = 0
    step = max(1, _GRID_ENTRIES // m.shape[1])
    out.append(
        chunk
        for r in range(0, len(m), step)
        for chunk in _grid_chunks(
            m[r:r + step], levels[n], heads, head_lengths, kinds[r:r + step]
        )
    )
    out.append("".join(level + "]" for level in reversed(levels[:-1])))


# entries written as one grid: scratch stays O(N^2) for an N^3 fusion table
_GRID_ENTRIES = 1 << 16


def _grid_chunks(
    m: np.ndarray, line: str, heads: np.ndarray, head_lengths: list[int], kinds: np.ndarray
) -> Iterator[bytes]:
    """The ASCII text of the rows of the int or complex matrix ``m``, whose
    entries start on ``line``.  Row ``i`` opens on the head
    ``heads[kinds[i]]``, NUL-padded on the left from its length in
    ``head_lengths``.

    The grid is filled from one template row of cells (the commas, and the
    ``format_complex`` scaffolding of a complex entry); each cell's
    NUL-padded slots are then filled from a table of the distinct leaf
    texts.  When these texts all have one width, only the heads hold NULs,
    and each run of rows of one kind is cut at its head's padding.
    Otherwise dropping the NULs leaves the text: JSON strings hold none, as
    they are written through ``encode_basestring_ascii``."""
    if m.dtype.kind == "c":
        parts = np.stack([m.imag, m.real], dtype=np.float64)
        # over the bit patterns, so that 0.0 and -0.0 stay apart
        bits, slots = np.unique(parts.view(np.int64), return_inverse=True)
        table = _text_rows(map(float.__repr__, bits.view(np.float64).tolist()))
        slots = slots.reshape(parts.shape)
        pieces = ["{" + line + '  "im": "', '",' + line + '  "re": "', '"' + line + "}"]
        same_width = table.all()
    elif (low := m.min()) >= 0 and (high := m.max()) < len(_SMALL_INTS):
        table = _SMALL_INTS[:, :len(str(high))]
        slots, pieces = [m], ["", ""]
        same_width = len(str(low)) == len(str(high))
    else:
        values, slots = np.unique(m, return_inverse=True)
        table = _text_rows(map(int.__repr__, values.tolist()))
        slots, pieces = [slots.reshape(m.shape)], ["", ""]
        same_width = table.all()
    cell = "," + line + pieces[0]
    offsets = []
    for piece in pieces[1:]:
        offsets.append(len(cell))
        cell += "\0" * table.shape[1] + piece
    rows, cols = m.shape
    indent = heads.shape[1] - len(line) - 1  # where the first cell starts
    grid = np.empty((rows, indent + cols * len(cell)), np.uint8)
    grid[:, indent:] = np.frombuffer((cell * cols).encode(), np.uint8)
    grid[:, :heads.shape[1]] = heads[kinds]
    cells = grid[:, indent:].reshape(rows, cols, len(cell))  # a view
    for offset, index in zip(offsets, slots):
        cells[:, :, offset:offset + table.shape[1]] = table[index]
    if not same_width:
        yield grid[grid != 0].tobytes()
        return
    starts = np.flatnonzero(np.diff(kinds, prepend=-1))
    for start, stop in zip(starts.tolist(), [*starts[1:].tolist(), rows]):
        yield grid[start:stop, heads.shape[1] - head_lengths[kinds[start]]:].tobytes()


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
    """One line per unordered module pair: ``a x b = m1 + 2*m2 + ...``."""
    n = fusion.rank
    terms = [[[] for _ in range(n)] for _ in range(n)]
    for i, j, m, mult in _nonzero_entries(fusion.table):
        if j >= i and mult > 0:
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
    datum = _load_datum(input_path)
    _check_memory(datum.rank, input_path)
    report = validate_modular_datum(datum, eps, eps_int)
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
    datum = _load_datum(input_path)
    _check_memory(datum.rank, input_path)
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
    _check_memory(datum.rank, input_path, keep_fusion=True)
    report = validate_modular_datum(datum, eps, eps_int, keep_fusion=True)
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
    sys.exit(0 if tensor.residual <= eps_int else 1)


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
    _check_memory(module_count(datum.rank, k), f"the k={k} orbifold of {input_path}")
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
