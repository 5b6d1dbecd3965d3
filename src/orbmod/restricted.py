"""Generic assembly of the fixed-point-subalgebra S-matrix from orbit data.

The irreducible modules of the fixed-point subalgebra under a finite abelian
automorphism group are labeled by pairs ``(orbit, character)``: an orbit of
twisted modules under the group action, together with an irreducible
character of the orbit representative's stabilizer.  Given, per orbit, the
twist element, the stabilizer and its character table, and, per ordered
orbit pair, a transversal of group elements with the corresponding
S-matrix entries between twisted modules, the restricted S-matrix entry is

    S[(i, lam), (j, mu)]
        = (1/|H_i|) * sum over kappa in C[i, j] of
          value(kappa) * conj(lam(g_j)) * mu(-g_i)

and zero when the transversal ``C[i, j]`` is empty.  This module is a
formula evaluator over explicit data; it performs no module theory of its
own.  The cyclic permutation orbifold (:mod:`orbmod.perm_orbifold`) is the
one fully self-contained producer of such data and serves as the
independent cross-check.

Only abelian groups are supported: character arguments are then fixed
group elements rather than conjugates, which is what the entry formula
above assumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .modular_data import (
    DEFAULT_EPS,
    CheckResult,
    InvalidDatum,
    ValidationReport,
    _json_object,
    _parse_complex,
    format_complex,
)

__all__ = [
    "GroupElement",
    "FiniteAbelianGroup",
    "CharacterTable",
    "OrbitSpec",
    "CrossBlocks",
    "validate_group_data",
    "assemble_restricted_S",
    "parse_restricted_spec",
    "restricted_spec_to_dict",
    "restricted_result_to_dict",
]

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group as a product of cyclic factors.

    Elements are tuples of residues, one per invariant factor, with
    componentwise addition.  The trivial group has no factors and the
    single element ``()``.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.invariant_factors)
        if any(n < 1 for n in factors):
            raise ValueError(f"invariant factors must be positive, got {factors}")
        object.__setattr__(self, "invariant_factors", factors)

    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(itertools.product(*(range(n) for n in self.invariant_factors)))

    def contains(self, x: GroupElement) -> bool:
        return len(x) == len(self.invariant_factors) and all(
            0 <= xi < n for xi, n in zip(x, self.invariant_factors)
        )

    def _check(self, x: GroupElement) -> GroupElement:
        x = tuple(int(v) for v in x)
        if not self.contains(x):
            raise ValueError(f"{x} is not an element of {self}")
        return x

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        x, y = self._check(x), self._check(y)
        return tuple((a + b) % n for a, b, n in zip(x, y, self.invariant_factors))

    def neg(self, x: GroupElement) -> GroupElement:
        x = self._check(x)
        return tuple((-a) % n for a, n in zip(x, self.invariant_factors))

    def sub(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return self.add(x, self.neg(y))

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "Z_1"
        return " x ".join(f"Z_{n}" for n in self.invariant_factors)


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters of a (sub)group, one row per character.

    ``rows[l, e]`` is the value of character ``l`` on ``elements[e]``;
    ``dims[l]`` is the dimension of the corresponding simple module
    (``rows[l, identity]`` for honest characters).  Projective tables are
    accepted as-is; row orthogonality is checked by
    :func:`validate_group_data`, not at construction.
    """

    elements: tuple[GroupElement, ...]
    rows: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        elements = tuple(tuple(int(v) for v in e) for e in self.elements)
        rows = np.array(self.rows, dtype=complex)
        dims = tuple(int(v) for v in self.dims)
        if rows.ndim != 2 or rows.shape[1] != len(elements):
            raise ValueError(
                f"character table shape {rows.shape} does not match "
                f"{len(elements)} elements"
            )
        if len(dims) != rows.shape[0]:
            raise ValueError("need one dimension per character row")
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate elements in character table domain")
        rows.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(elements)})

    @property
    def n_characters(self) -> int:
        return self.rows.shape[0]

    def column(self, element: GroupElement) -> np.ndarray:
        """All character values at one element."""
        idx = self._index.get(tuple(element))
        if idx is None:
            raise ValueError(f"element {tuple(element)} not in character domain")
        return self.rows[:, idx]


@dataclass(frozen=True)
class OrbitSpec:
    """One orbit of twisted modules: representative label, twist element,
    stabilizer, and the stabilizer's character table."""

    label: str
    twist: GroupElement
    stabilizer: tuple[GroupElement, ...]
    characters: CharacterTable

    def __post_init__(self):
        object.__setattr__(self, "twist", tuple(int(v) for v in self.twist))
        object.__setattr__(
            self, "stabilizer", tuple(tuple(int(v) for v in e) for e in self.stabilizer)
        )
        if set(self.characters.elements) != set(self.stabilizer):
            raise ValueError(
                f"orbit {self.label!r}: character table domain does not match "
                "the stabilizer"
            )


# blocks[(i, j)] lists (kappa, S-value) pairs over the transversal C[i, j];
# a missing key means the transversal is empty and the block is zero.
CrossBlocks = Mapping[tuple[int, int], Sequence[tuple[GroupElement, complex]]]


def validate_group_data(
    orbits: Sequence[OrbitSpec], eps: float = DEFAULT_EPS
) -> ValidationReport:
    """Check the orbit/character data: row orthogonality of each character
    table within ``eps``, twist contained in the stabilizer, and character
    dimensions summing to the stabilizer order."""
    worst_orth, worst_orth_at = 0.0, ""
    bad_twist = []
    worst_dim, worst_dim_at = 0.0, ""
    for spec in orbits:
        table = spec.characters
        h = len(spec.stabilizer)
        gram = table.rows @ table.rows.conj().T
        res = float(np.max(np.abs(gram - h * np.eye(table.n_characters))))
        if np.isnan(res):  # NaN compares False and would pass the check
            res = np.inf
        if res > worst_orth:
            worst_orth, worst_orth_at = res, spec.label
        if spec.twist not in set(spec.stabilizer):
            bad_twist.append(spec.label)
        res = float(abs(sum(d * d for d in table.dims) - h))
        if res > worst_dim:
            worst_dim, worst_dim_at = res, spec.label
    checks = (
        CheckResult(
            "character_orthogonality",
            worst_orth <= eps,
            worst_orth,
            f"worst orbit: {worst_orth_at}" if worst_orth_at else "",
        ),
        CheckResult(
            "twist_in_stabilizer",
            not bad_twist,
            float(len(bad_twist)),
            f"offending orbits: {bad_twist}" if bad_twist else "",
        ),
        CheckResult(
            "dimension_sum",
            worst_dim <= eps,
            worst_dim,
            f"worst orbit: {worst_dim_at}" if worst_dim_at else "",
        ),
    )
    return ValidationReport(checks)


def _check_block(
    i: int,
    j: int,
    entries: Sequence[tuple[GroupElement, complex]],
    orbits: Sequence[OrbitSpec],
    group: FiniteAbelianGroup,
    eps: float,
) -> None:
    """Reject transversals that double-count a module or contradict
    conjugation invariance of the supplied S-entries."""
    stab_i = set(orbits[i].stabilizer)
    stab_j = set(orbits[j].stabilizer)
    seen = list(entries)
    for (k1, v1), (k2, v2) in itertools.combinations(seen, 2):
        diff = group.sub(tuple(k1), tuple(k2))
        if diff in stab_j:
            raise ValueError(
                f"block ({i}, {j}): transversal elements {tuple(k1)} and {tuple(k2)} "
                "select the same module (their difference stabilizes orbit "
                f"{orbits[j].label!r})"
            )
        if diff in stab_i and abs(v1 - v2) > eps:
            raise ValueError(
                f"block ({i}, {j}): entries at {tuple(k1)} and {tuple(k2)} must agree "
                f"by conjugation invariance but differ by {abs(v1 - v2):.3g}"
            )


def assemble_restricted_S(
    orbits: Sequence[OrbitSpec],
    blocks: CrossBlocks,
    group: FiniteAbelianGroup,
    *,
    eps: float = DEFAULT_EPS,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Evaluate the restricted S-matrix over all ``(orbit, character)`` pairs.

    Returns the pair list (in orbit-major order) and the complex matrix.
    Pairs ``(i, j)`` absent from ``blocks`` contribute zero entries.  Raises
    ``ValueError`` on inconsistent block data: duplicate transversal
    elements modulo the column stabilizer, conjugation-invariance
    violations beyond ``eps``, or a nonempty block whose twists fall outside
    the character domains.
    """
    offsets = []
    pairs: list[tuple[int, int]] = []
    for i, spec in enumerate(orbits):
        offsets.append(len(pairs))
        pairs.extend((i, l) for l in range(spec.characters.n_characters))
    n = len(pairs)
    out = np.zeros((n, n), dtype=complex)

    for (i, j), entries in blocks.items():
        if not (0 <= i < len(orbits) and 0 <= j < len(orbits)):
            raise ValueError(f"block key ({i}, {j}) out of range")
        if not entries:
            continue
        _check_block(i, j, entries, orbits, group, eps)
        spec_i, spec_j = orbits[i], orbits[j]
        try:
            # abelian group: conjugation is trivial, so the character factors
            # do not depend on kappa and the transversal sum factors out
            lam = spec_i.characters.column(spec_j.twist).conj()
            mu = spec_j.characters.column(group.neg(spec_i.twist))
        except ValueError as exc:
            raise ValueError(
                f"block ({i}, {j}) is nonempty but the twist data falls outside "
                f"a stabilizer character domain: {exc}"
            ) from exc
        total = sum(complex(v) for _, v in entries) / len(spec_i.stabilizer)
        rows = slice(offsets[i], offsets[i] + spec_i.characters.n_characters)
        cols = slice(offsets[j], offsets[j] + spec_j.characters.n_characters)
        out[rows, cols] = total * np.outer(lam, mu)
    return pairs, out


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _parse_element(value, where: str) -> GroupElement:
    if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
        raise InvalidDatum(f"group element in {where} must be a list of integers")
    return tuple(value)


def parse_restricted_spec(
    document: str | dict,
) -> tuple[list[OrbitSpec], dict, FiniteAbelianGroup]:
    """Parse the orbit/character/block JSON document.

    Schema::

        {"group": [n1, n2, ...],
         "orbits": [{"label": str, "twist": [..], "stabilizer": [[..], ...],
                     "characters": {"dims": [..], "elements": [[..], ...],
                                     "table": [[{"re", "im"}, ...], ...]}}],
         "blocks": [{"i": int, "j": int,
                     "entries": [{"kappa": [..], "value": {"re", "im"}}]}]}
    """
    document = _json_object(document, {"group", "orbits", "blocks"})
    for key in ("orbits", "blocks"):
        if not isinstance(document[key], list):
            raise InvalidDatum(f'"{key}" must be a list')
    try:
        group = FiniteAbelianGroup(tuple(document["group"]))
    except (TypeError, ValueError) as exc:
        raise InvalidDatum(f'bad "group" entry: {exc}') from exc

    orbits = []
    for pos, entry in enumerate(document["orbits"]):
        where = f"orbits[{pos}]"
        try:
            chars = entry["characters"]
            table = CharacterTable(
                tuple(_parse_element(e, where) for e in chars["elements"]),
                np.array(
                    [
                        [_parse_complex(v, where) for v in row]
                        for row in chars["table"]
                    ],
                    dtype=complex,
                ),
                tuple(chars["dims"]),
            )
            orbits.append(
                OrbitSpec(
                    str(entry["label"]),
                    _parse_element(entry["twist"], where),
                    tuple(_parse_element(e, where) for e in entry["stabilizer"]),
                    table,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDatum(f"bad orbit entry {where}: {exc}") from exc

    blocks: dict[tuple[int, int], list[tuple[GroupElement, complex]]] = {}
    for pos, entry in enumerate(document["blocks"]):
        where = f"blocks[{pos}]"
        try:
            key = (int(entry["i"]), int(entry["j"]))
            blocks[key] = [
                (_parse_element(e["kappa"], where), _parse_complex(e["value"], where))
                for e in entry["entries"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidDatum(f"bad block entry {where}: {exc}") from exc
    return orbits, blocks, group


def restricted_spec_to_dict(
    orbits: Sequence[OrbitSpec],
    blocks: CrossBlocks,
    group: FiniteAbelianGroup,
) -> dict:
    """Serialize orbit/character/block data to the documented spec schema.

    Inverse of :func:`parse_restricted_spec`; useful for exporting the data
    produced by :func:`orbmod.perm_orbifold.permutation_restriction_data`
    as a worked example input for the ``restricted`` CLI subcommand.
    """
    return {
        "group": list(group.invariant_factors),
        "orbits": [
            {
                "label": o.label,
                "twist": list(o.twist),
                "stabilizer": [list(e) for e in o.stabilizer],
                "characters": {
                    "dims": list(o.characters.dims),
                    "elements": [list(e) for e in o.characters.elements],
                    "table": [[format_complex(z) for z in row] for row in o.characters.rows],
                },
            }
            for o in orbits
        ],
        "blocks": [
            {
                "i": i,
                "j": j,
                "entries": [
                    {"kappa": list(kappa), "value": format_complex(complex(v))}
                    for kappa, v in entries
                ],
            }
            for (i, j), entries in sorted(blocks.items())
        ],
    }


def restricted_result_to_dict(
    pairs: Sequence[tuple[int, int]],
    matrix: np.ndarray,
    orbits: Sequence[OrbitSpec],
) -> dict:
    """Serialize an assembled restricted S-matrix with its pair labels."""
    return {
        "pairs": [
            {"orbit": orbits[i].label, "character": l} for i, l in pairs
        ],
        "S": [[format_complex(z) for z in row] for row in np.asarray(matrix)],
    }
