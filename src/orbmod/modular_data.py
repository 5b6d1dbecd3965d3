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
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from fractions import Fraction

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
    "quantum_dimensions",
    "format_complex",
]

DEFAULT_EPS = 1e-9
DEFAULT_EPS_INT = 1e-6
# a vacuum-row entry closer to zero than this makes Verlinde fusion undefined
_VACUUM_ZERO_TOL = 1e-12


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
        return cmath.exp(2j * cmath.pi * float(self.angle))


@dataclass(frozen=True)
class ModuleInfo:
    """An irreducible module: display label and exact conformal weight."""

    label: str
    weight: Fraction

    def __post_init__(self):
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
        labels = [m.label for m in self.modules]
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

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.modules)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(m.weight for m in self.modules)


@dataclass(frozen=True)
class FusionTensor:
    """Verlinde fusion multiplicities ``N[i, j, m]`` plus rounding residual.

    ``residual`` is the largest distance of any raw coefficient from the
    nearest integer (including its imaginary part); callers gate on it to
    decide whether the rounded table is trustworthy.
    """

    table: np.ndarray
    residual: float

    def __post_init__(self):
        t = np.array(self.table, dtype=int)
        if t.ndim != 3 or len({t.shape[0], t.shape[1], t.shape[2]}) != 1:
            raise ValueError(f"fusion tensor must be cubic, got shape {t.shape}")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "residual", float(self.residual))

    @property
    def rank(self) -> int:
        return self.table.shape[0]


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

    ``fusion`` is the Verlinde :class:`FusionTensor` that
    :func:`validate_modular_datum` built for its ``fusion_integrality``
    check, so callers can reuse it instead of computing it again; it is
    ``None`` when Verlinde fusion is undefined for the datum (the check's
    detail says why) and for reports that run no fusion check.
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
    """Parse an exact rational from a string like ``"1/2"`` or ``"8"``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidDatum(f"not a rational number: {value!r}") from exc
    raise InvalidDatum(f"not a rational number: {value!r}")


def _parse_decimal(value, where: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
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
        except json.JSONDecodeError as exc:
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
        modules.append(ModuleInfo(str(entry["label"]), parse_rational(entry["h"])))

    raw_s = document["S"]
    if not isinstance(raw_s, list) or any(not isinstance(row, list) for row in raw_s):
        raise InvalidDatum('"S" must be a list of rows')
    n_cols = {len(row) for row in raw_s}
    if len(raw_s) != len(modules) or n_cols != {len(modules)}:
        raise InvalidDatum(
            f"dimension mismatch: {len(modules)} modules but S has "
            f"{len(raw_s)} rows of lengths {sorted(n_cols)}"
        )
    s = np.array(
        [
            [_parse_complex(raw_s[i][j], f"S[{i}][{j}]") for j in range(len(modules))]
            for i in range(len(raw_s))
        ],
        dtype=complex,
    )
    return ModularDatum(c, tuple(modules), s)


def modular_datum_to_dict(d: ModularDatum) -> dict:
    """Serialize a datum back to the documented JSON structure."""
    return {
        "central_charge": str(d.central_charge),
        "modules": [{"label": m.label, "h": str(m.weight)} for m in d.modules],
        "S": [[format_complex(z) for z in row] for row in d.s_matrix],
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def t_matrix(d: ModularDatum) -> tuple[Phase, ...]:
    """Diagonal of the T-matrix: ``Phase(h_i - c/24 mod 1)`` per module."""
    c24 = d.central_charge / 24
    return tuple(Phase(m.weight - c24) for m in d.modules)


def _t_array(d: ModularDatum) -> np.ndarray:
    return np.array([p.value for p in t_matrix(d)])


def verlinde_fusion(d: ModularDatum) -> FusionTensor:
    """Fusion multiplicities ``N[i, j, m] = sum_l S_il S_jl conj(S_ml) / S_0l``.

    Raises :class:`InvalidDatum` if a vacuum-row entry is closer to zero than
    ``1e-12``, which signals an invalid datum (the formula divides by it).
    The returned tensor is rounded; inspect :attr:`FusionTensor.residual`
    before trusting the integers.
    """
    s = d.s_matrix
    vac = s[0]
    if np.min(np.abs(vac)) < _VACUUM_ZERO_TOL:
        raise InvalidDatum(
            "vacuum S-matrix row has a near-zero entry; fusion is undefined"
        )
    raw = np.einsum("il,jl,ml->ijm", s, s, s.conj() / vac)
    rounded = np.round(raw.real)
    residual = float(np.max(np.abs(raw - rounded)))
    return FusionTensor(rounded.astype(int), residual)


def quantum_dimensions(d: ModularDatum) -> tuple[np.ndarray, float]:
    """Quantum dimensions ``S_0i / S_00`` and the global dimension.

    Returns the real parts (imaginary parts vanish for a valid datum) and
    ``glob = sum_i qdim_i**2``.  ``qdim[0] == 1`` exactly by construction.
    """
    row = d.s_matrix[0]
    qdim = (row / row[0]).real.copy()
    qdim.setflags(write=False)
    return qdim, float(np.sum(qdim**2))


def _permutation_residual(p: np.ndarray) -> tuple[float, bool]:
    """Distance of ``p`` from the nearest 0/1 matrix, and whether that
    rounding is a permutation matrix."""
    rounded = np.round(p.real)
    residual = float(np.max(np.abs(p - rounded)))
    is_perm = (
        np.all((rounded == 0) | (rounded == 1))
        and np.all(rounded.sum(axis=0) == 1)
        and np.all(rounded.sum(axis=1) == 1)
    )
    return residual, bool(is_perm)


def validate_modular_datum(
    d: ModularDatum,
    eps: float = DEFAULT_EPS,
    eps_int: float = DEFAULT_EPS_INT,
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

    The report keeps the Verlinde tensor built for ``fusion_integrality``
    as :attr:`ValidationReport.fusion` (``None`` when fusion is undefined).
    """
    s = d.s_matrix
    n = d.rank
    checks = []

    res = float(np.max(np.abs(s @ s.conj().T - np.eye(n))))
    checks.append(CheckResult("unitary", res <= eps, res))

    res = float(np.max(np.abs(s - s.T)))
    checks.append(CheckResult("symmetric", res <= eps, res))

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

    s2 = s @ s
    res, is_perm = _permutation_residual(s2)
    detail = "" if is_perm else "rounded S^2 is not a permutation matrix"
    checks.append(CheckResult("charge_conjugation", res <= eps and is_perm, res, detail))

    st = s @ np.diag(_t_array(d))
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
        fusion = verlinde_fusion(d)
    except InvalidDatum as exc:
        fusion = None
        checks.append(CheckResult("fusion_integrality", False, float("inf"), str(exc)))
    else:
        nonneg = bool(np.min(fusion.table) >= 0)
        detail = "" if nonneg else "rounded fusion coefficients contain negatives"
        checks.append(
            CheckResult(
                "fusion_integrality",
                fusion.residual <= eps_int and nonneg,
                fusion.residual,
                detail,
            )
        )

    return ValidationReport(tuple(checks), fusion)
