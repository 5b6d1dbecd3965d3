"""Core types for the modular data of a rational chiral algebra.

A *modular datum* bundles a central charge, an ordered list of irreducible
modules with their conformal weights, and the complex S-matrix acting on the
span of the module characters.  The vacuum module sits at index 0 and has
weight 0.  Central charges and weights are exact rationals
(:class:`fractions.Fraction`); S-matrix entries are complex floating point
numbers compared against a configurable tolerance ``eps``.

The module also provides the standard consistency checks (unitarity,
symmetry, positivity of the vacuum row, charge conjugation, the modular
relation ``(S T)^3 = S^2``, and integrality of the Verlinde fusion
coefficients), the diagonal T-matrix, Verlinde fusion, and quantum/global
dimensions.

It also holds the package's one JSON codec: the parse side of the schemas
(:func:`parse_modular_datum` and the helpers :mod:`orbmod.restricted`
reuses) and the encoder :func:`_dump_json`.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import re
import resource
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, pairwise
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

__all__ = [
    "DEFAULT_EPS",
    "DEFAULT_EPS_INT",
    "InvalidDatum",
    "Phase",
    "ModuleInfo",
    "ModularDatum",
    "FusionTensor",
    "CheckResult",
    "ValidationReport",
    "parse_modular_datum",
    "modular_datum_to_dict",
    "validate_modular_datum",
    "t_matrix",
    "verlinde_fusion",
    "validation_bytes",
    "quantum_dimensions",
    "format_complex",
]

DEFAULT_EPS = 1e-9
DEFAULT_EPS_INT = 1e-6
# a vacuum-row entry closer to zero than this makes Verlinde fusion undefined
_VACUUM_ZERO_TOL = 1e-12
# entries S_il S_jl (pairs times N) per matrix product of verlinde_fusion:
# small data run as one product, and the scratch stays O(N**2) at large N
_FUSION_BLOCK_PRODUCTS = 2**14
# str() and json.loads refuse ints of more digits than this
_MAX_DIGITS = 4300
_DIGITS_BOUND = 10**_MAX_DIGITS
_EXPONENT = re.compile(r"[-+]?\d+(?:_\d+)*")


class InvalidDatum(ValueError):
    """Raised when input data violates the modular-datum contracts."""


@dataclass(frozen=True)
class Phase:
    """The unit complex number ``exp(2*pi*i*angle)`` with exact rational angle.

    The angle is stored reduced modulo 1 into ``[0, 1)``, so phases with
    rational angle compare exactly; conversion to a floating complex number
    happens only on demand via :attr:`value`.
    """

    angle: Fraction

    def __post_init__(self):
        object.__setattr__(self, "angle", Fraction(self.angle) % 1)

    @property
    def value(self) -> complex:
        return _phase(self.angle.numerator, self.angle.denominator)


@dataclass(frozen=True)
class ModuleInfo:
    """An irreducible module: display label and exact conformal weight."""

    label: str
    weight: Fraction

    def __post_init__(self):
        if not isinstance(self.weight, Fraction):
            object.__setattr__(self, "weight", Fraction(self.weight))


@dataclass(frozen=True)
class ModularDatum:
    """Central charge, module list and S-matrix of a rational chiral algebra.

    Attributes
    ----------
    central_charge : Fraction
        The central charge ``c``.
    modules : tuple of ModuleInfo
        Ordered irreducible modules.  Index 0 is the vacuum and must have
        weight 0; labels must be unique.
    s_matrix : ndarray
        Complex square matrix indexed like ``modules``.  Stored read-only.

    Construction validates shape and labeling invariants only; the numeric
    consistency checks live in :func:`validate_modular_datum` and may be run
    (or deferred) by the caller.
    """

    central_charge: Fraction
    modules: tuple[ModuleInfo, ...]
    s_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "central_charge", Fraction(self.central_charge))
        object.__setattr__(self, "modules", tuple(self.modules))
        if not self.modules:
            raise InvalidDatum("a modular datum needs at least one module")
        s = np.array(self.s_matrix, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise InvalidDatum(f"S-matrix must be square, got shape {s.shape}")
        if s.shape[0] != len(self.modules):
            raise InvalidDatum(
                f"dimension mismatch: {len(self.modules)} modules but "
                f"{s.shape[0]}x{s.shape[1]} S-matrix"
            )
        if not np.all(np.isfinite(s.view(float))):
            raise InvalidDatum("S-matrix entries must be finite")
        labels = self.labels
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise InvalidDatum(f"duplicate module labels: {dupes}")
        if self.modules[0].weight != 0:
            raise InvalidDatum(
                f"vacuum module (index 0) must have weight 0, got {self.modules[0].weight}"
            )
        s.setflags(write=False)
        object.__setattr__(self, "s_matrix", s)

    @property
    def rank(self) -> int:
        return len(self.modules)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.modules)

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(m.weight for m in self.modules)


@dataclass(frozen=True)
class FusionTensor:
    """Verlinde fusion multiplicities ``N[i, j, m]`` plus rounding residual.

    ``residual`` is the largest distance of any raw coefficient from the
    nearest integer (including its imaginary part), and ``smallest`` is the
    smallest rounded coefficient (NaN when a coefficient is NaN); callers
    gate on both to decide whether the rounded table is trustworthy.

    ``table`` is ``None`` when :func:`verlinde_fusion` was asked not to keep
    it.  A ``table`` that already is an int ndarray is kept, not copied, and
    is made read-only in place.
    """

    table: np.ndarray | None
    residual: float
    smallest: float

    def __post_init__(self):
        if self.table is not None:
            t = np.asarray(self.table, dtype=int)
            if t.ndim != 3 or len({t.shape[0], t.shape[1], t.shape[2]}) != 1:
                raise ValueError(f"fusion tensor must be cubic, got shape {t.shape}")
            t.setflags(write=False)
            object.__setattr__(self, "table", t)
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "smallest", float(self.smallest))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named validation check."""

    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Collection of named check results with an overall verdict.

    ``fusion`` is the Verlinde :class:`FusionTensor`, table included, that
    :func:`validate_modular_datum` built for its ``fusion_integrality``
    check when asked to keep it (``keep_fusion=True``), so callers can reuse
    it instead of computing it again.  It is ``None`` otherwise: when the
    table was not asked for, when Verlinde fusion is undefined for the
    datum (the check's detail says why), and for reports that run no
    fusion check.
    """

    checks: tuple[CheckResult, ...]
    fusion: FusionTensor | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def parse_rational(value) -> Fraction:
    """Parse an exact rational from a string like ``"1/2"`` or ``"8"``.

    A numerator or denominator of more than ``_MAX_DIGITS`` digits, which
    ``str`` could not print, is refused as out of range."""
    if isinstance(value, str):
        try:
            q = _fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidDatum(f"not a rational number: {value!r}") from exc
    elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        q = Fraction(value)
    else:
        raise InvalidDatum(f"not a rational number: {value!r}")
    if q is None or _out_of_range(q):
        shown = value if isinstance(value, str) else type(value).__name__
        raise InvalidDatum(
            f"rational number out of range (more than {_MAX_DIGITS} digits): {shown!r}"
        )
    return q


def _out_of_range(q: Fraction) -> bool:
    return max(abs(q.numerator), q.denominator) >= _DIGITS_BOUND


def _rational_text(q: Fraction, where: str) -> str:
    """``str(q)`` for a writer.  A rational computed from accepted inputs
    (a product, sum or lcm of them) can outgrow the ``_MAX_DIGITS`` digits
    that ``str`` prints; it is refused as :class:`InvalidDatum` naming
    ``where``, before any text is written."""
    if _out_of_range(q):
        raise InvalidDatum(
            f"rational number out of range (more than {_MAX_DIGITS} digits) in {where}"
        )
    return str(q)


def _fraction(text: str) -> Fraction | None:
    """``Fraction(text)``, or ``None`` when its exponent alone makes the
    numerator or denominator longer than ``_MAX_DIGITS`` digits.
    ``Fraction`` would expand that ``10**exponent`` first, which takes
    seconds once the exponent has 8 digits."""
    mantissa, e, exponent = text.lower().partition("e")
    if not e:
        return Fraction(text)
    m = Fraction(mantissa + "e0")  # the mantissa's syntax and value
    if not _EXPONENT.fullmatch(exponent):
        raise ValueError(f"malformed exponent {exponent!r}")
    x = int(exponent)
    if not m:
        return m
    # m's numerator and denominator are below 10**len(mantissa), so a
    # larger |x| leaves one of m * 10**x's with more than _MAX_DIGITS digits
    if abs(x) > _MAX_DIGITS + len(mantissa):
        return None
    return m * Fraction(10) ** x


def _parse_decimal(value, where: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError as exc:  # an int beyond the float range
            raise InvalidDatum(f"non-finite complex value (int too large) in {where}") from exc
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError as exc:
            raise InvalidDatum(f"bad decimal string {value!r} in {where}") from exc
    raise InvalidDatum(f"bad decimal value {value!r} in {where}")


def _parse_complex(entry, where: str) -> complex:
    if not isinstance(entry, dict) or not {"re", "im"} <= set(entry):
        raise InvalidDatum(f'expected {{"re": ..., "im": ...}} in {where}')
    z = complex(_parse_decimal(entry["re"], where), _parse_decimal(entry["im"], where))
    if not cmath.isfinite(z):
        raise InvalidDatum(f"non-finite complex value {entry!r} in {where}")
    return z


def format_complex(z: complex) -> dict:
    """Inverse of :func:`_parse_complex`: ``{"re": ..., "im": ...}`` with the
    shortest decimal strings that round-trip each float exactly."""
    return {"re": repr(float(z.real)), "im": repr(float(z.imag))}


def _json_object(document: str | dict, required: set[str]) -> dict:
    """Decode a JSON document (text or parsed) that must be an object
    holding every key in ``required``."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:  # also too many digits, too deep
            raise InvalidDatum(f"malformed JSON document: {exc}") from exc
    if not isinstance(document, dict):
        raise InvalidDatum("top-level JSON value must be an object")
    missing = required - set(document)
    if missing:
        raise InvalidDatum(f"missing required keys: {sorted(missing)}")
    return document


def parse_modular_datum(document: str | dict) -> ModularDatum:
    """Parse a modular datum from its JSON document (text or parsed dict).

    Schema::

        {"central_charge": "<p/q>",
         "modules": [{"label": "<str>", "h": "<p/q>"}, ...],
         "S": [[{"re": "<decimal>", "im": "<decimal>"}, ...], ...]}

    Unknown keys are ignored, so extended documents (e.g. orbifold output
    with per-module ``label_kind`` fields) parse as plain data.

    S is read by :func:`_complex_rows`.
    """
    document = _json_object(document, {"central_charge", "modules", "S"})
    c = parse_rational(document["central_charge"])
    raw_modules = document["modules"]
    if not isinstance(raw_modules, list) or not raw_modules:
        raise InvalidDatum('"modules" must be a non-empty list')
    modules = []
    for pos, entry in enumerate(raw_modules):
        if not isinstance(entry, dict) or "label" not in entry or "h" not in entry:
            raise InvalidDatum(f"module #{pos} must have 'label' and 'h'")
        label = entry["label"]
        if not isinstance(label, str):
            raise InvalidDatum(
                f"module #{pos} label must be a string, not {type(label).__name__}"
            )
        modules.append(ModuleInfo(label, parse_rational(entry["h"])))

    raw_s = document["S"]
    if not isinstance(raw_s, list) or any(not isinstance(row, list) for row in raw_s):
        raise InvalidDatum('"S" must be a list of rows')
    n_cols = {len(row) for row in raw_s}
    if len(raw_s) != len(modules) or n_cols != {len(modules)}:
        raise InvalidDatum(
            f"dimension mismatch: {len(modules)} modules but S has "
            f"{len(raw_s)} rows of lengths {sorted(n_cols)}"
        )
    return ModularDatum(c, tuple(modules), _complex_rows(raw_s, "S[{i}][{j}]"))


def _complex_rows(raw, where: str) -> np.ndarray:
    """The complex matrix of the ``{"re", "im"}`` rows ``raw``: an S-matrix
    or a character table.

    It is read in one flat pass by :func:`_flat_s` when it can be.
    Otherwise it is read again entry by entry, which raises the error for
    the first bad entry in row-major order; ``where`` names that entry,
    formatted with its row ``i`` and column ``j``."""
    values = _flat_s(raw)
    if values is None:
        values = np.array(
            [
                [_parse_complex(v, where.format(i=i, j=j)) for j, v in enumerate(row)]
                for i, row in enumerate(raw)
            ],
            dtype=complex,
        )
    return values


def _flat_s(raw) -> np.ndarray | None:
    """The complex matrix of the ``{"re", "im"}`` rows ``raw``, or ``None``
    unless ``raw`` is a list of equally long lists whose every entry is one
    that :func:`_parse_complex` reads as a finite value.

    Every part must be a string, as orbmod writes them; a document with
    number parts takes the per-entry path.  Each distinct text is converted
    once and then looked up (S-matrices repeat few values), one pass for
    the ``"re"`` column of the result and one for the ``"im"`` column."""
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        return None
    if len(set(map(len, raw))) > 1:
        return None
    entries = list(chain.from_iterable(raw))
    if set(map(type, entries)) != {dict}:
        return None
    try:
        re = list(map(itemgetter("re"), entries))
        im = list(map(itemgetter("im"), entries))
        # a part that is not a str equals no str, so it stays in the set
        texts = set(re)
        texts.update(im)
        if set(map(type, texts)) != {str}:
            return None
        value = dict(zip(texts, map(float, texts))).__getitem__
        values = np.empty((len(entries), 2))
        values[:, 0] = np.fromiter(map(value, re), float, len(re))
        values[:, 1] = np.fromiter(map(value, im), float, len(im))
    except (KeyError, TypeError, ValueError):  # TypeError: an unhashable part
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(complex).reshape(len(raw), -1)


def modular_datum_to_dict(d: ModularDatum) -> dict:
    """Serialize a datum back to the documented JSON structure."""
    return _plain(_datum_document(d))


def _plain(doc: dict) -> dict:
    """The JSON value of the bytes that :func:`_dump_json` writes."""
    return json.loads(b"".join(_dump_json(doc)))


def _datum_document(d: ModularDatum) -> dict:
    """:func:`modular_datum_to_dict` with ``"S"`` still the complex array,
    as :func:`_dump_json` writes it."""
    return {
        "central_charge": _rational_text(d.central_charge, "central_charge"),
        "modules": [
            {"label": m.label, "h": _rational_text(m.weight, f"h of module {m.label!r}")}
            for m in d.modules
        ],
        "S": d.s_matrix,
    }


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
    as a stream of chunks to be written in order: every CLI output, and
    (through :func:`_plain`) the ``*_to_dict`` writers of S-matrices.

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
    width = max(map(len, [*heads, sep]))  # a 0-d array has no sep
    pads = np.array([width - len(head) for head in heads])
    # NUL-padded on the left, so a row's text starts where its head does
    heads = "".join(head.rjust(width, "\0") for head in heads)
    heads = np.frombuffer(heads.encode(), np.uint8).reshape(-1, width)
    m = a.reshape(-1, a.shape[-1]) if n else a.reshape(1, 1)
    kinds = np.ones(len(m), np.intp)
    for t in range(2, n):
        kinds[::math.prod(a.shape[n - t:n - 1])] = t
    kinds[0] = 0
    starts = np.flatnonzero(np.diff(kinds, prepend=-1))  # of the runs of one kind
    runs = (starts, pads[kinds[starts]].tolist())
    heads = heads[kinds]
    step = max(1, _GRID_ENTRIES // m.shape[1])
    out.append(
        chunk
        for r in range(0, len(m), step)
        for chunk in _grid_chunks(m[r:r + step], levels[n], heads[r:r + step], runs, r)
    )
    out.append("".join(level + "]" for level in reversed(levels[:-1])))


# entries written as one grid: scratch stays O(N^2) for an N^3 fusion table
_GRID_ENTRIES = 1 << 16


def _grid_chunks(
    m: np.ndarray, line: str, heads: np.ndarray, runs: tuple[np.ndarray, list], first: int
) -> Iterator[bytes]:
    """The ASCII text of the rows of the int or complex matrix ``m``, whose
    entries start on ``line``.  Row ``i`` opens on the left-NUL-padded head
    ``heads[i]``.  ``m`` is rows ``first:`` of an array whose runs of rows
    with one head start at its rows ``runs[0]``, with ``runs[1]`` NULs.

    The grid is filled from one template row of cells (the commas, and the
    ``format_complex`` scaffolding of a complex entry); each cell's
    NUL-padded slots are then filled from a table of the distinct leaf
    texts.  When these texts all have one width, only the heads hold NULs,
    and each run of rows of one kind is cut at its head's padding.
    Otherwise dropping the NULs leaves the text: JSON strings hold none, as
    they are written through ``encode_basestring_ascii``."""
    digits = False  # whether every leaf is one of the digits 0-9
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
        digits = high < 10
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
    grid[:, :heads.shape[1]] = heads
    cells = grid[:, indent:].reshape(rows, cols, len(cell))  # a view
    for offset, index in zip(offsets, slots):
        if digits:  # a digit's byte is its value plus ord("0")
            np.add(index, ord("0"), out=cells[:, :, offset], casting="unsafe")
        else:
            cells[:, :, offset:offset + table.shape[1]] = table[index]
    if not same_width:
        yield grid[grid != 0].tobytes()
        return
    starts, pads = runs
    i, j = np.searchsorted(starts, [first + 1, first + rows])  # row 0 is in run i - 1
    cuts = [first, *starts[i:j].tolist(), first + rows]
    for start, stop, pad in zip(cuts, cuts[1:], pads[i - 1:]):
        yield grid[start - first:stop - first, pad:].tobytes()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def t_matrix(d: ModularDatum) -> tuple[Phase, ...]:
    """Diagonal of the T-matrix: ``Phase(h_i - c/24 mod 1)`` per module."""
    return tuple(Phase(Fraction(*a)) for a in _t_angles(d.central_charge, d.weights))


def _t_angles(central_charge: Fraction, weights) -> list[tuple[int, int]]:
    """The T-angles ``h - c/24`` of the ``weights`` by :func:`_lcm_sum`, each
    over its own lcm: a common one could have the digits of all of theirs."""
    c = (-central_charge.numerator, 24 * central_charge.denominator)
    return [_lcm_sum([(h.numerator, h.denominator), c]) for h in weights]


def _lcm_sum(terms) -> tuple[int, int]:
    """The sum of the ``p/q`` of the int pairs ``terms`` as ``(num, den)`` over
    the lcm of the ``q``, not reduced: the one rule of every exact weight and T-angle."""
    den = math.lcm(*[q for _, q in terms])
    num = 0
    for p, q in terms:  # a loop: a comprehension's frame costs more for two terms
        num += p * (den // q)
    return num, den


def _phase(num: int, den: int) -> complex:
    """``exp(2 pi i num/den)`` for integers ``num`` and ``den > 0``, the one
    formula of every exact phase (:attr:`Phase.value` included).  The int
    true division ``(num % den) / den`` is correctly rounded, so any pair
    of terms of the same rational gives the same double, and the phase
    depends on the rational alone."""
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def _t_phases(d: ModularDatum, times: int = 1, over: int = 1) -> np.ndarray:
    """The phases of ``times/over`` times the T-angles, as :func:`_phase` of
    ``times num`` over ``over den``: bit for bit the ``Phase`` of each angle."""
    angles = _t_angles(d.central_charge, d.weights)
    return np.array([_phase(times * num, over * den) for num, den in angles])


def _roots(k: int) -> np.ndarray:
    """The ``k``-th roots of unity ``exp(2 pi i m/k)``, indexed by ``m % k``."""
    return np.array([_phase(m, k) for m in range(k)])


def verlinde_fusion(
    d: ModularDatum,
    *,
    keep_table: bool = True,
    conjugation: np.ndarray | None = None,
) -> FusionTensor:
    """Fusion multiplicities ``N[i, j, m] = sum_l S_il S_jl conj(S_ml) / S_0l``.

    Raises :class:`InvalidDatum` if a vacuum-row entry is closer to zero than
    ``1e-12``, which signals an invalid datum (the formula divides by it).
    The returned tensor is rounded; inspect :attr:`FusionTensor.residual`
    and :attr:`FusionTensor.smallest` before trusting the integers.

    ``conjugation`` is the charge conjugation ``m -> m̄`` as an int array,
    for an S that is unitary and symmetric with ``S**2`` a permutation: then
    ``conj(S_ml) = S_m̄l``, so ``N[i, j, m] = Ñ[i, j, m̄]`` for the totally
    symmetric ``Ñ[i, j, k] = sum_l S_il S_jl S_kl / S_0l``.  The default
    ``None`` sums over ``conj(S)``, for any datum.
    :func:`validate_modular_datum` passes the map that it reads off
    ``S**2`` when its three checks of S pass, and ``None`` otherwise.

    The pairs ``i <= j`` (``N[j, i] = N[i, j]``) are taken in blocks of
    whole columns ``j``, at most ``2**14 // N`` pairs or one column each,
    and each block is one matrix product of its rows ``S_il S_jl``, in
    order of ``j`` and then ``i``.  The first block, whose columns are
    short, gathers those rows by its pair indices; every later block
    multiplies ``S[:j + 1]`` by ``S[j]`` once per column ``j``, into one
    scratch array that the call allocates once.  With a conjugation and more
    than one block, a block from column ``j0`` on multiplies only the
    columns ``k >= j0`` of ``S / S_0``, which gives every ``Ñ[i, j, k]``
    with ``i <= j <= k``: about ``N**4 / 6`` complex multiply-adds.
    Otherwise every block multiplies all ``N`` columns of ``conj(S) / S_0``:
    about ``N**4 / 2``.  A block holds at most ``max(2**14, N**2)`` products
    ``S_il S_jl``, and is folded into the residual and the smallest
    coefficient as it is made.  With ``keep_table=False`` it is then
    dropped, so the pass holds ``O(N**2)`` memory and the tensor's
    ``table`` is ``None``; otherwise it is stored in the ``N**3`` integer
    table, which the symmetric form completes slab by slab.  Both give the
    same residual, whose last digits depend on the form and on the
    summation order of the BLAS build.
    """
    s = d.s_matrix
    n = d.rank
    if abs(s[0]).min() < _VACUUM_ZERO_TOL:
        raise InvalidDatum(
            "vacuum S-matrix row has a near-zero entry; fusion is undefined"
        )
    cuts = _column_blocks(n)
    # one block multiplies every column k in either form
    symmetric = conjugation is not None and len(cuts) > 2
    w = ((s if symmetric else s.conj()) / s[0]).T  # w[l, k] = S_kl / S_0l, or conj
    table = np.empty((n, n, n), dtype=int) if keep_table else None
    # S_il is the left factor of every product: numpy's complex multiply
    # need not commute bit for bit.  The first block's columns are short,
    # so gathering its pairs i <= j (in order of j) costs less than a
    # multiply per column.
    pair_j, pair_i = np.nonzero(np.tri(cuts[1], dtype=bool))
    r, residual, smallest = _rounded((s[pair_i] * s[pair_j]) @ w, 0.0, np.inf)
    if table is not None:
        table[pair_i, pair_j] = r
        table[pair_j, pair_i] = r
    later = list(pairwise(cuts[1:]))
    if later:  # one scratch for the products S_il S_jl of each later block
        most = max((j1 * (j1 + 1) - j0 * (j0 + 1)) // 2 for j0, j1 in later)
        products = np.empty((most, n), complex)
    for j0, j1 in later:
        k0 = j0 if symmetric else 0
        # column j's pairs i <= j are the rows a:b of the block
        starts = [(j * (j + 1) - j0 * (j0 + 1)) // 2 for j in range(j0, j1 + 1)]
        columns = list(zip(range(j0, j1), pairwise(starts)))
        for j, (a, b) in columns:
            np.multiply(s[:j + 1], s[j], out=products[a:b])
        r, residual, smallest = _rounded(products[:starts[-1]] @ w[:, k0:], residual, smallest)
        if table is not None:
            for j, (a, b) in columns:
                table[:j + 1, j, k0:] = r[a:b]
                table[j, :j + 1, k0:] = r[a:b]
    if table is not None and symmetric:
        _complete_table(table, conjugation)
    return FusionTensor(table, residual, smallest)


def _rounded(raw: np.ndarray, residual, smallest) -> tuple[np.ndarray, float, float]:
    """The raw Verlinde coefficients ``raw`` rounded, and ``residual`` and
    ``smallest`` folded with their distance from the rounding and their
    smallest rounded value; ``raw`` is overwritten."""
    r = np.rint(raw.real)
    raw.real -= r  # the bits of raw - r, without a second block
    # np.maximum and np.minimum keep a NaN
    return r, np.maximum(residual, abs(raw).max()), np.minimum(smallest, r.min())


def _column_blocks(n: int) -> list[int]:
    """The cuts ``0 = j0 < j1 < ... = n`` of the columns ``j`` into the
    blocks of :func:`verlinde_fusion`: a block holds its columns' pairs
    ``i <= j``, at most ``2**14 // n`` of them unless it is one column."""
    most = max(1, _FUSION_BLOCK_PRODUCTS // n)
    cuts, pairs = [0], 0
    for j in range(n):
        if pairs and pairs + j + 1 > most:
            cuts.append(j)
            pairs = 0
        pairs += j + 1
    cuts.append(n)
    return cuts


def _complete_table(table: np.ndarray, conjugation: np.ndarray) -> None:
    """Turn, in place, a table that holds ``Ñ[a, b, c]`` wherever
    ``c >= max(a, b)`` into ``N[a, b, m] = Ñ[a, b, m̄]``.  Each slab ``a``
    is symmetric, so below its diagonal the rows ``b >= a`` are its
    transpose, and the entries with ``b, c < a`` are ``Ñ[b, a, c]``, the
    rows ``a`` of the slabs ``b`` completed before it.  Then each slab's
    columns ``m̄`` are taken: for a symmetric slab they are its rows ``m̄``
    transposed, which numpy gathers faster."""
    n = len(table)
    below = np.tri(n, k=-1, dtype=bool)
    for a in range(n):
        slab = table[a]
        np.copyto(slab[a:], slab.T[a:], where=below[a:])  # copies the overlap first
        slab[:a, :a] = table[:a, a, :a]
    if (conjugation != np.arange(n)).any():
        for slab in table:
            slab[...] = slab[conjugation].T


# complex N x N arrays that validate_modular_datum holds at once, S included,
# and the W and slab temporaries of verlinde_fusion
_VALIDATION_SQUARES = 8
# bytes per entry S_il S_jl of a verlinde_fusion block, at most: its complex
# products (the scratch that the later blocks share) and raw coefficients,
# its rounded coefficients and their distances (float), and the previous
# block's rounded coefficients until the new ones replace them.  The first
# block's two gathered factors are freed before its raw coefficients exist.
_BLOCK_ENTRY_BYTES = 56


def validation_bytes(rank: int, *, keep_fusion: bool = False) -> int:
    """Bytes that :func:`validate_modular_datum` holds at most at once for
    a datum of this rank: the complex S-matrix with its few ``rank**2``
    temporaries and one block of :func:`verlinde_fusion`, plus with
    ``keep_fusion`` the ``rank**3`` integer fusion table."""
    need = (
        np.dtype(complex).itemsize * _VALIDATION_SQUARES * rank**2
        + _BLOCK_ENTRY_BYTES * max(_FUSION_BLOCK_PRODUCTS, rank**2)
    )
    if keep_fusion:
        need += np.dtype(int).itemsize * rank**3
    return need


def _require_memory(rank: int, subject: str, *, keep_fusion: bool = False) -> None:
    """Refuse, before anything is allocated, to validate a datum of this
    rank when :func:`validation_bytes` exceed physical memory, the
    ``memory.max`` of the process's cgroup, or what the soft address-space
    limit (``ulimit -v``) leaves beside the address space the process
    already maps, whichever leaves least room (see :func:`_memory_bound`):
    raises :class:`InvalidDatum`, whose message names ``subject`` and the
    bound."""
    need = validation_bytes(rank, keep_fusion=keep_fusion)
    have, taken, bound = _memory_bound(need)
    if need + taken > have:
        # str() refuses ints of more than 4300 digits, which k ~ 10**4 reaches
        count = rank if rank < 10**15 else f"about 10^{math.log10(rank):.0f}"
        raise _memory_refusal(subject, count, have, bound)


def _memory_bound(need: float = math.inf) -> tuple[int, int, str]:
    """The bytes that bound a validation needing ``need`` bytes, the bytes
    of them already taken, and their name: physical memory, the
    ``memory.max`` of the process's cgroup v2 when that is a number and
    smaller, or the soft ``RLIMIT_AS`` when that is set and leaves less
    room.  The virtual size of the process counts against the address-space
    limit (the interpreter, numpy and BLAS map some hundred MB); it is read
    from ``/proc/self/statm``, and taken as 0 where that cannot be read.

    The cgroup's files are read only for a need above the peak resident
    size of the process, which its cgroup has held already: a smaller need
    cannot exceed ``memory.max``, and the reads cost some 100 µs.
    ``MemAvailable`` is left out: it moves with the page cache and other
    processes, so the same command would be refused at one moment and not
    at the next."""
    bounds = [(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), 0, "physical memory")]
    if need > resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024:  # KiB on Linux
        cgroup = _cgroup_memory_max()
        if cgroup is not None:
            bytes_max, path = cgroup
            bounds.append((bytes_max, 0, f"memory allowed by cgroup {path} (memory.max)"))
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        bounds.append((limit, _mapped_bytes(), "address space allowed by RLIMIT_AS"))
    return min(bounds, key=lambda bound: bound[0] - bound[1])  # the first of a tie


def _cgroup_memory_max() -> tuple[int, str] | None:
    """The ``memory.max`` of the process's cgroup v2 in bytes, with the
    cgroup's path; ``None`` when it reads ``max`` or a file cannot be read.
    The cgroup is the ``0::`` line of ``/proc/self/cgroup``, and its
    directory lies under the ``cgroup2`` mount of ``/proc/self/mountinfo``."""
    cgroup, mountinfo = _read_proc("/proc/self/cgroup"), _read_proc("/proc/self/mountinfo")
    if cgroup is None or mountinfo is None:
        return None
    paths = [line[3:].rstrip("/") for line in cgroup.splitlines() if line.startswith("0::")]
    # fields: id, parent, device, root, mount point, options..., "-", type, ...
    mounts = [
        fields[3:5]
        for fields in map(str.split, mountinfo.splitlines())
        if "-" in fields[:-1] and fields[fields.index("-") + 1] == "cgroup2"
    ]
    if not paths or not mounts:
        return None
    path, (root, point) = paths[0], mounts[0]
    root = root.rstrip("/")
    if not (path + "/").startswith(root + "/"):
        return None
    text = _read_proc(f"{point}{path[len(root):]}/memory.max")
    if text is None or not text.strip().isdigit():
        return None
    return int(text), path or "/"


def _read_proc(path: str) -> str | None:
    """The text of a file under ``/proc`` or ``/sys``, or ``None``."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError):
        return None


def _mapped_bytes() -> int:
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[0]) * resource.getpagesize()
    except (OSError, ValueError, IndexError):
        return 0


def _memory_refusal(subject: str, count, have: int, bound: str) -> InvalidDatum:
    return InvalidDatum(
        f"{subject} has {count} modules; validating it needs more than "
        f"the {have / 2**30:.3g} GiB of {bound}"
    )


def quantum_dimensions(d: ModularDatum) -> tuple[np.ndarray, float]:
    """Quantum dimensions ``S_0i / S_00`` and the global dimension.

    Returns the real parts (imaginary parts vanish for a valid datum) and
    ``glob = sum_i qdim_i**2``.  ``qdim[0] == 1`` exactly by construction.
    """
    row = d.s_matrix[0]
    qdim = (row / row[0]).real.copy()
    qdim.setflags(write=False)
    return qdim, float(np.sum(qdim**2))


def _s_checks(
    s: np.ndarray, eps: float
) -> tuple[CheckResult, CheckResult, CheckResult, np.ndarray, np.ndarray | None]:
    """The ``unitary``, ``symmetric`` and ``charge_conjugation`` checks of
    S, then ``S**2`` and the charge conjugation ``m -> m̄`` read off its
    rounding (``None`` unless all three pass).  Together they give
    ``S**-1 = conj(S).T = conj(S)`` and ``S**-1 = C**-1 S`` for the
    permutation matrix ``C = S**2``, so ``conj(S_ml) = S_m̄l`` with
    ``C[m̄, m] = 1``."""
    n = len(s)
    res = float(np.max(np.abs(s @ s.conj().T - np.eye(n))))
    unitary = CheckResult("unitary", res <= eps, res)

    res = float(np.max(np.abs(s - s.T)))
    symmetric = CheckResult("symmetric", res <= eps, res)

    s2 = s @ s
    rounded = np.round(s2.real)
    res = float(np.max(np.abs(s2 - rounded)))
    p = rounded.argmax(axis=0)  # C[p] is the identity exactly when C is a permutation
    is_perm = np.array_equal(rounded[p], np.eye(n))
    detail = "" if is_perm else "rounded S^2 is not a permutation matrix"
    charge = CheckResult("charge_conjugation", res <= eps and is_perm, res, detail)

    passed = unitary.passed and symmetric.passed and charge.passed
    return unitary, symmetric, charge, s2, p if passed else None


def validate_modular_datum(
    d: ModularDatum,
    eps: float = DEFAULT_EPS,
    eps_int: float = DEFAULT_EPS_INT,
    *,
    keep_fusion: bool = False,
) -> ValidationReport:
    """Run the full consistency suite on a datum.

    Checks (all tolerance based, never raising):

    - ``unitary``: ``S S^dagger = I`` within ``eps``;
    - ``symmetric``: ``S = S^T`` within ``eps``;
    - ``vacuum_row_positive``: row 0 real within ``eps`` and strictly positive;
    - ``charge_conjugation``: ``S^2`` is a 0/1 permutation matrix within ``eps``;
    - ``modular_relation``: ``(S T)^3 = S^2`` within ``eps``;
    - ``fusion_integrality``: Verlinde coefficients within ``eps_int`` of
      nonnegative integers.

    ``fusion_integrality`` streams Verlinde fusion in ``O(N**2)`` memory
    (see :func:`validation_bytes`).  With ``keep_fusion=True`` it keeps the
    ``N**3`` table instead, and the report holds the tensor as
    :attr:`ValidationReport.fusion` (``None`` when fusion is undefined);
    both give the same residual and verdict.
    """
    s = d.s_matrix
    n = d.rank
    unitary, symmetric, charge, s2, conjugation = _s_checks(s, eps)
    checks = [unitary, symmetric]

    imag = float(np.max(np.abs(s[0].imag)))
    min_re = float(np.min(s[0].real))
    checks.append(
        CheckResult(
            "vacuum_row_positive",
            imag <= eps and min_re > eps,
            imag,
            f"min Re(S[0, j]) = {min_re:.6g}",
        )
    )

    checks.append(charge)

    st = s * _t_phases(d)  # S T: column j scaled by T_jj
    rel = np.linalg.matrix_power(st, 3)
    res = float(np.max(np.abs(rel - s2)))
    detail = ""
    if res > eps:
        # report a residual global phase rather than silently renormalizing
        z = np.trace(rel @ s2.conj().T) / n
        if abs(abs(z) - 1) < 1e-6 and np.max(np.abs(rel - z * s2)) <= max(eps, 1e-12):
            detail = f"(S T)^3 differs from S^2 by the global phase {z:.12g}"
    checks.append(CheckResult("modular_relation", res <= eps, res, detail))

    try:
        fusion = verlinde_fusion(d, keep_table=keep_fusion, conjugation=conjugation)
    except InvalidDatum as exc:
        fusion = None
        checks.append(CheckResult("fusion_integrality", False, float("inf"), str(exc)))
    else:
        nonneg = fusion.smallest >= 0
        detail = "" if nonneg else "rounded fusion coefficients contain negatives"
        checks.append(
            CheckResult(
                "fusion_integrality",
                fusion.residual <= eps_int and nonneg,
                fusion.residual,
                detail,
            )
        )

    return ValidationReport(tuple(checks), fusion if keep_fusion else None)
