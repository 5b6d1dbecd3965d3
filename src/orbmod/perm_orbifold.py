"""Modular data of the cyclic permutation orbifold ``(V^k)^{Z_k}``, k prime.

Starting from the modular datum of a rational chiral algebra ``V`` with
``p + 1`` irreducible modules, the fixed-point subalgebra of the k-fold
tensor power under the cyclic group generated by the full k-cycle has

- one module per rotation orbit of non-constant index tuples
  (*off-diagonal*, ``((p+1)^k - (p+1)) / k`` of them),
- ``k`` eigencomponents of each diagonal tensor power (*diagonal*,
  ``(p+1) k``), and
- ``k`` eigencomponents of each twisted module in each of the ``k - 1``
  twisted sectors (*twisted*, ``(p+1) k (k-1)``).

This module enumerates those labels with their conformal weights mod 1,
assembles the full S-matrix (twisted-sector blocks are transported onto the
untwisted conformal block through :func:`orbmod.sl2z.sector_congruence` and
the representation ``rho``), builds the T-phases, and bundles everything
into a validated :class:`OrbifoldDatum`.

Convention note: the weight mod 1 of the eigencomponent ``a`` of a sector-r
twisted module is ``h/k + (k^2 - 1) c / (24 k) + m0/k`` with
``m0 = (-a r) mod k`` under the default ``"minus"`` convention
(``m0 = (+a r) mod k`` under ``"plus"``).  The two choices coincide for
``k = 2``; for larger primes the modular-relation check ``(S T)^3 = S^2``
on the assembled datum singles out ``"minus"``.  Likewise, in the
twisted-twisted blocks the representation of the congruence matrix acts on
the column index of the source S-matrix (``S @ rho_of(matrix, d)``); this
orientation is the one under which the assembled matrix passes the
unitarity and modular-relation checks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .modular_data import (
    DEFAULT_EPS,
    DEFAULT_EPS_INT,
    InvalidDatum,
    ModularDatum,
    ModuleInfo,
    Phase,
    ValidationReport,
    _datum_document,
    _lcm_sum,
    _memory_bound,
    _memory_refusal,
    _plain,
    _require_memory,
    _roots,
    _t_angles,
    _t_phases,
    validate_modular_datum,
)
from .restricted import CharacterTable, FiniteAbelianGroup, OrbitSpec
from .sl2z import is_prime, rho_of, sector_congruence

__all__ = [
    "OffDiagonal",
    "Diagonal",
    "Twisted",
    "OrbifoldLabel",
    "OrbifoldDatum",
    "module_count",
    "orbifold_labels",
    "enumerate_orbifold_modules",
    "twisted_sector_block",
    "assemble_orbifold_S",
    "orbifold_t_phases",
    "build_orbifold_datum",
    "orbifold_datum_to_dict",
    "permutation_restriction_data",
]

CONVENTIONS = ("minus", "plus")


def canonical_rotation(t: Sequence[int]) -> tuple[int, ...]:
    """Lexicographically minimal rotation of a tuple."""
    t = tuple(t)
    return min(t[i:] + t[:i] for i in range(len(t))) if t else t


@dataclass(frozen=True)
class OffDiagonal:
    """Rotation orbit of a non-constant index tuple; stored canonically."""

    indices: tuple[int, ...]

    def __post_init__(self):
        t = canonical_rotation(tuple(int(i) for i in self.indices))
        if len(set(t)) <= 1:
            raise ValueError(f"constant tuple {t} is a diagonal label, not off-diagonal")
        object.__setattr__(self, "indices", t)


@dataclass(frozen=True)
class Diagonal:
    """Eigencomponent ``a`` of the k-th tensor power of module ``i``."""

    i: int
    a: int


@dataclass(frozen=True)
class Twisted:
    """Eigencomponent ``a`` of the sector-``r`` twisted module built on
    module ``i`` (``0 < r < k``)."""

    r: int
    i: int
    a: int


OrbifoldLabel = OffDiagonal | Diagonal | Twisted


def module_count(n_modules: int, k: int) -> int:
    """Closed count of orbifold modules for ``n_modules`` input modules."""
    return (n_modules**k - n_modules) // k + n_modules * k + n_modules * k * (k - 1)


# n**k of more bits makes more than 2**40 orbifold modules for any k (the
# off-diagonal ones when k < 2**24, else the n k**2 others): over 2**87
# bytes to validate
_COUNT_BITS = 64


def _require_orbifold_memory(n_modules: int, k: int, subject: str) -> None:
    """:func:`~orbmod.modular_data._require_memory` for the k orbifold of
    ``n_modules`` modules.  A count beyond :data:`_COUNT_BITS` is refused
    from its logarithm: at k ~ 10**7 computing ``n**k`` alone takes seconds,
    and squaring it for the memory bound, minutes."""
    if n_modules > 1 and k * math.log2(n_modules) > _COUNT_BITS:
        have, _, bound = _memory_bound()
        digits = k * math.log10(n_modules) - math.log10(k)
        raise _memory_refusal(subject, f"about 10^{digits:.0f}", have, bound)
    _require_memory(module_count(n_modules, k), subject)


def _off_diagonal_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    """Sorted canonical tuples of the off-diagonal orbits: the non-constant
    k-tuples over ``range(n)`` that are their own :func:`canonical_rotation`.
    Raises ``ValueError`` unless ``k`` is prime."""
    if not is_prime(k):
        raise ValueError(f"k must be prime, got {k}")
    return [
        t
        for t in itertools.product(range(n), repeat=k)  # lexicographic order
        if t == canonical_rotation(t) and len(set(t)) > 1
    ]


def orbifold_labels(d: ModularDatum, k: int) -> tuple[OrbifoldLabel, ...]:
    """All orbifold module labels in canonical order: diagonal by ``(i, a)``
    (vacuum ``Diagonal(0, 0)`` first), then off-diagonal by tuple (one per
    tuple of :func:`_off_diagonal_tuples`), then twisted by ``(r, i, a)``."""
    n = d.rank
    diag = [Diagonal(i, a) for i in range(n) for a in range(k)]
    off = [OffDiagonal(t) for t in _off_diagonal_tuples(n, k)]
    twisted = [
        Twisted(r, i, a) for r in range(1, k) for i in range(n) for a in range(k)
    ]
    labels = tuple(diag) + tuple(off) + tuple(twisted)
    assert len(labels) == module_count(n, k)
    return labels


def enumerate_orbifold_modules(
    d: ModularDatum, k: int, convention: str = "minus"
) -> list[tuple[OrbifoldLabel, Fraction]]:
    """Labels with conformal weights mod 1, in the canonical ordering.

    Weights: ``k h_i`` for ``Diagonal(i, a)`` (independent of ``a``),
    ``sum_j h_{i_j}`` for off-diagonal tuples, and
    ``h_i/k + (k^2 - 1) c/(24 k) + m0/k`` for ``Twisted(r, i, a)`` with
    ``m0`` fixed by the eigenvalue-residue convention (see module notes).
    Each weight is summed by :func:`~orbmod.modular_data._lcm_sum` from
    the integer pairs of its terms, and made a ``Fraction`` once.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    sign = -1 if convention == "minus" else 1
    labels = orbifold_labels(d, k)  # checks k
    h = [(w.numerator, w.denominator) for w in d.weights]
    # (h_i + (k^2 - 1) c/24) / k, the twisted weights less m0/k
    shift = (k * k - 1) * d.central_charge / 24
    lifted = [_lcm_sum([(p, k * q), (shift.numerator, k * shift.denominator)]) for p, q in h]
    terms = [
        [(k * h[label.i][0], h[label.i][1])] if isinstance(label, Diagonal)
        else [h[i] for i in label.indices] if isinstance(label, OffDiagonal)
        else [lifted[label.i], ((sign * label.a * label.r) % k, k)]
        for label in labels
    ]
    weights = [Fraction(num % den, den) for num, den in map(_lcm_sum, terms)]
    return list(zip(labels, weights))


def twisted_sector_block(d: ModularDatum, k: int, r: int, s: int) -> np.ndarray:
    """S-entries between sector-``r`` and sector-``s`` twisted modules.

    ``block[x, y]`` is the S-matrix entry pairing the twisted module built
    on module ``x`` in sector ``r`` with the one built on module ``y`` in
    sector ``s``:

        exp(2 pi i a (-h_x/k + c/24k)) * exp(-2 pi i b (-h_y/k + c/24k))
            * (S @ rho(A))[x, y]

    with ``(a, b, A) = sector_congruence(k, r, s)``.  Requires ``k`` prime
    and ``0 < r, s < k`` (raises ``ValueError`` otherwise).

    The two phase vectors are ``_t_phases`` of ``-a/k`` and ``b/k`` times the
    T-angles ``h - c/24``, bit for bit the ``Phase`` of each exact angle.
    """
    cong = sector_congruence(k, r, s)
    rho_a = rho_of(cong.matrix, d)
    left = _t_phases(d, -cong.a, k)
    right = _t_phases(d, cong.b, k)
    return left[:, None] * (d.s_matrix @ rho_a) * right[None, :]


def assemble_orbifold_S(d: ModularDatum, k: int) -> np.ndarray:
    """Assemble the full orbifold S-matrix over :func:`orbifold_labels`.

    Entry rules (with ``S`` the input S-matrix and ``B`` the twisted-sector
    blocks):

    - diagonal ``(i, a)`` vs diagonal ``(j, b)``: ``S[i, j]**k / k``;
    - off-diagonal ``t`` vs off-diagonal ``u``: sum over rotations ``rho``
      of ``prod_j S[t_j, u_{j+rho}]``;
    - off-diagonal ``t`` vs diagonal ``(j, b)``: ``prod_m S[t_m, j]``;
    - twisted ``(r, i, a)`` vs diagonal ``(j, b)``:
      ``S[i, j] exp(2 pi i r b / k) / k``;
    - twisted ``(r, i, a)`` vs twisted ``(s, j, b)``:
      ``B[r, s][i, j] exp(2 pi i (s a + r b) / k) / k``;
    - twisted vs off-diagonal: 0.

    The off-diagonal tuples ``t`` come from :func:`_off_diagonal_tuples`,
    the producer behind the labels.  Only the blocks on or above the block
    diagonal are computed (twisted sectors ``r <= s``); the upper triangle
    is then mirrored, so the output is exactly symmetric.
    """
    n = d.rank
    s = d.s_matrix
    off_tuples = np.array(_off_diagonal_tuples(n, k), dtype=int).reshape(-1, k)
    n_diag = n * k
    n_off = off_tuples.shape[0]
    base = n_diag + n_off
    total = module_count(n, k)

    out = np.zeros((total, total), dtype=complex)

    # diagonal vs diagonal: expand (i, j) values over the (a, b) eigenindices
    out[:n_diag, :n_diag] = np.kron(s**k / k, np.ones((k, k)))

    # off-diagonal vs off-diagonal, one rotation at a time
    for rot in range(k):
        prod = np.ones((n_off, n_off), dtype=complex)
        for j in range(k):
            prod *= s[off_tuples[:, j][:, None], off_tuples[:, (j + rot) % k][None, :]]
        out[n_diag:base, n_diag:base] += prod

    # diagonal vs off-diagonal (independent of the diagonal eigenindex)
    od = np.ones((n_off, n), dtype=complex)
    for m in range(k):
        od *= s[off_tuples[:, m], :]
    out[:n_diag, n_diag:base] = np.repeat(od, k, axis=1).T

    roots, eigen = _roots(k), np.arange(k)

    def sector(r):  # rows of the (i, a) block of twisted sector r
        return slice(base + (r - 1) * n * k, base + r * n * k)

    for r in range(1, k):
        # diagonal (j, b) vs twisted (r, i, a): S[i, j] e^{2 pi i r b / k} / k
        phases_b = roots[r * eigen % k]
        out[:n_diag, sector(r)] = np.kron(s / k, np.outer(np.ones(k), phases_b)).T
        for s_idx in range(r, k):
            block = twisted_sector_block(d, k, r, s_idx)
            phase_ab = roots[np.add.outer(s_idx * eigen, r * eigen) % k]
            out[sector(r), sector(s_idx)] = np.kron(block / k, phase_ab)

    # exact symmetry: mirror the upper triangle
    return np.triu(out) + np.triu(out, 1).T


def orbifold_t_phases(
    d: ModularDatum, k: int, convention: str = "minus"
) -> tuple[Phase, ...]:
    """Diagonal T-phases of the orbifold: ``Phase(w - k c / 24)`` for the weights
    ``w`` of :func:`enumerate_orbifold_modules`, as ``t_matrix`` of the datum."""
    weights = [w for _, w in enumerate_orbifold_modules(d, k, convention)]
    return tuple(Phase(Fraction(*a)) for a in _t_angles(k * d.central_charge, weights))


def label_text(label: OrbifoldLabel, source: ModularDatum) -> str:
    """Readable unique label string, using the source module labels.

    Inside ``off(...)`` a source label holding ``,`` or ``"`` is written
    as a JSON string, so that the factor list splits one way only."""
    names = source.labels
    if isinstance(label, Diagonal):
        return f"diag({names[label.i]};{label.a})"
    if isinstance(label, OffDiagonal):
        return "off(" + ",".join(_factor_text(names[i]) for i in label.indices) + ")"
    return f"tw{label.r}({names[label.i]};{label.a})"


def _factor_text(name: str) -> str:
    return json.dumps(name) if "," in name or '"' in name else name


@dataclass(frozen=True)
class OrbifoldDatum:
    """Assembled orbifold modular datum plus its provenance.

    ``datum.modules[i].weight`` is the weight *mod 1* of ``labels[i]``;
    ``report`` is the validation of the assembled datum and records, via
    the ``modular_relation`` check, whether the chosen eigenvalue-residue
    ``convention`` is the validating one.
    """

    datum: ModularDatum
    labels: tuple[OrbifoldLabel, ...]
    k: int
    convention: str
    report: ValidationReport

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.datum.rank:
            raise ValueError("one label per module required")
        if self.labels[0] != Diagonal(0, 0):
            raise ValueError("orbifold vacuum must be Diagonal(0, 0) at index 0")


def build_orbifold_datum(
    d: ModularDatum,
    k: int,
    convention: str = "minus",
    *,
    eps: float = DEFAULT_EPS,
    eps_int: float = DEFAULT_EPS_INT,
    validate_input: bool = True,
) -> OrbifoldDatum:
    """Run the whole pipeline: enumerate, assemble S, build T, validate.

    The input datum must itself pass validation (checked unless
    ``validate_input=False``; failures raise :class:`InvalidDatum`).  An
    orbifold whose :func:`~orbmod.modular_data.validation_bytes` exceed
    physical memory or ``RLIMIT_AS`` is refused with :class:`InvalidDatum`
    before anything is enumerated.  The returned orbifold datum carries its own validation
    report; callers decide how to act on a failing report (e.g. retry with
    the flipped convention).
    """
    if not is_prime(k):
        raise ValueError(f"k must be prime, got {k}")
    _require_orbifold_memory(d.rank, k, f"the k={k} orbifold")
    labelled = enumerate_orbifold_modules(d, k, convention)  # checks convention
    if validate_input:
        in_report = validate_modular_datum(d, eps, eps_int)
        if not in_report.ok:
            names = [c.name for c in in_report.failures()]
            raise InvalidDatum(f"input datum fails validation checks: {names}")
    modules = [ModuleInfo(label_text(label, d), weight) for label, weight in labelled]
    s = assemble_orbifold_S(d, k)
    datum = ModularDatum(k * d.central_charge, tuple(modules), s)
    report = validate_modular_datum(datum, eps, eps_int)
    labels = tuple(label for label, _ in labelled)
    return OrbifoldDatum(datum, labels, k, convention, report)


def _label_fields(label: OrbifoldLabel) -> dict:
    if isinstance(label, Diagonal):
        return {"label_kind": "diag", "i": label.i, "a": label.a}
    if isinstance(label, OffDiagonal):
        return {"label_kind": "offdiag", "factors": list(label.indices)}
    return {"label_kind": "twisted", "r": label.r, "i": label.i, "a": label.a}


def orbifold_datum_to_dict(od: OrbifoldDatum) -> dict:
    """JSON structure: the plain datum schema extended with ``k``,
    ``convention`` and per-module label-kind fields."""
    return _plain(_orbifold_document(od))


def _orbifold_document(od: OrbifoldDatum) -> dict:
    """:func:`orbifold_datum_to_dict` with ``"S"`` still the complex array,
    as :func:`orbmod.modular_data._dump_json` writes it."""
    doc = _datum_document(od.datum)
    for entry, label in zip(doc["modules"], od.labels):
        entry.update(_label_fields(label))
    doc["k"] = od.k
    doc["convention"] = od.convention
    return doc


def permutation_restriction_data(
    d: ModularDatum, k: int
) -> tuple[list[OrbitSpec], dict, FiniteAbelianGroup]:
    """Express the permutation orbifold as generic orbit/character/block data.

    Returns ``(orbits, blocks, group)`` ready for
    :func:`orbmod.restricted.assemble_restricted_S`; the resulting pair
    ordering coincides with :func:`orbifold_labels`, so the assembled matrix
    must match :func:`assemble_orbifold_S` entrywise.  Character rows follow
    the eigencomponent labeling ``chi_a(g) = exp(-2 pi i a g / k)``.

    With ``n = d.rank`` and the tuples ``off`` of
    :func:`_off_diagonal_tuples`, orbit ``x < n`` is ``diag(x)``, orbit
    ``n + u`` is ``off(off[u])`` and orbit ``n + len(off) + (r - 1) n + x``
    is ``tw<r>(x)``.  The blocks come by kind: diagonal x diagonal,
    diagonal <-> off-diagonal (k transversal elements one way, one the
    other), off-diagonal x off-diagonal (one per rotation), twisted <->
    diagonal and twisted x twisted (the entries of
    :func:`twisted_sector_block`).  Off-diagonal x twisted has an empty
    transversal and no block.
    """
    n = d.rank
    off = _off_diagonal_tuples(n, k)  # checks k before the group is built
    s = d.s_matrix
    names = d.labels
    group = FiniteAbelianGroup((k,))
    g = np.arange(k)  # group.elements() is (0,), (1,), ..., (k - 1,)
    full_table = CharacterTable(group.elements(), _roots(k)[np.outer(-g, g) % k], (1,) * k)
    trivial_table = CharacterTable(((0,),), np.array([[1.0]], dtype=complex), (1,))

    orbits = [OrbitSpec(f"diag({x})", (0,), full_table) for x in names]
    orbits += [OrbitSpec(label_text(OffDiagonal(t), d), (0,), trivial_table) for t in off]
    orbits += [
        OrbitSpec(f"tw{r}({x})", (r,), full_table) for r in range(1, k) for x in names
    ]
    base = n + len(off)

    blocks: dict[tuple[int, int], list[tuple[tuple[int, ...], complex]]] = {}
    for x in range(n):
        for y in range(n):
            blocks[(x, y)] = [((0,), complex(s[x, y] ** k))]
    for u, t in enumerate(off, n):
        for y in range(n):
            value = complex(np.prod([s[y, x] for x in t]))
            blocks[(y, u)] = [((g,), value) for g in range(k)]
            blocks[(u, y)] = [((0,), complex(np.prod([s[x, y] for x in t])))]
        for v, w in enumerate(off, n):
            blocks[(u, v)] = [
                ((rot,), complex(np.prod([s[t[m], w[(m + rot) % k]] for m in range(k)])))
                for rot in range(k)
            ]
    for r in range(1, k):
        rows = base + (r - 1) * n
        for x in range(n):
            for y in range(n):
                blocks[(rows + x, y)] = [((0,), complex(s[x, y]))]
                blocks[(y, rows + x)] = [((0,), complex(s[y, x]))]
        for q in range(1, k):
            block = twisted_sector_block(d, k, r, q)
            cols = base + (q - 1) * n
            for x in range(n):
                for y in range(n):
                    blocks[(rows + x, cols + y)] = [((0,), complex(block[x, y]))]
    return orbits, blocks, group
