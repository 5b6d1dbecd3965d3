"""Integer SL(2, Z) arithmetic and the conformal-block representation.

The modular group is generated by ``S = (0, -1; 1, 0)`` and
``T = (1, 1; 0, 1)``.  This module factors arbitrary integer matrices of
determinant one into words in those generators (Euclidean reduction on the
first column, exact integer round trip), and evaluates the representation
``rho`` attached to a modular datum -- ``rho(S)`` is the S-matrix and
``rho(T)`` the diagonal of T-phases -- on any group element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .modular_data import ModularDatum, Phase, t_matrix

__all__ = [
    "SL2Matrix",
    "GeneratorWord",
    "evaluate_word",
    "decompose_to_generators",
    "rho_of",
    "SectorCongruence",
    "sector_congruence",
    "is_prime",
]

_TOKEN_RE = re.compile(r"^(S|T\^(-?\d+))$")


@dataclass(frozen=True)
class SL2Matrix:
    """Integer matrix ``(a, b; c, d)`` with ``a d - b c = 1``."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                f"determinant must be 1, got {self.a * self.d - self.b * self.c}"
            )

    def __matmul__(self, other: "SL2Matrix") -> "SL2Matrix":
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}; {self.c}, {self.d})"


S_GEN = SL2Matrix(0, -1, 1, 0)
T_GEN = SL2Matrix(1, 1, 0, 1)
IDENTITY = SL2Matrix(1, 0, 0, 1)


def _t_power(n: int) -> SL2Matrix:
    return SL2Matrix(1, n, 0, 1)


@dataclass(frozen=True)
class GeneratorWord:
    """A word in the generators: tokens ``"S"`` or ``"T^n"`` (``n != 0``).

    Adjacent T tokens are forbidden (they must be merged), so the printed
    form is canonical for the token sequence it stores.  The empty word is
    the identity.
    """

    tokens: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        prev_t = False
        for tok in self.tokens:
            m = _TOKEN_RE.match(tok)
            if not m:
                raise ValueError(f"bad generator token {tok!r}")
            if m.group(2) is not None:
                if int(m.group(2)) == 0:
                    raise ValueError("T^0 tokens are not allowed")
                if prev_t:
                    raise ValueError("adjacent T tokens must be merged")
                prev_t = True
            else:
                prev_t = False

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return " ".join(self.tokens) if self.tokens else "<empty>"


def _token_exponent(token: str) -> int | None:
    """T-exponent of a token, or None for the S generator."""
    return None if token == "S" else int(token[2:])


def evaluate_word(word: GeneratorWord | Iterable[str]) -> SL2Matrix:
    """Exact integer product of the generator matrices in word order."""
    if not isinstance(word, GeneratorWord):
        word = GeneratorWord(tuple(word))
    out = IDENTITY
    for tok in word:
        n = _token_exponent(tok)
        out = out @ (S_GEN if n is None else _t_power(n))
    return out


def decompose_to_generators(m: SL2Matrix) -> GeneratorWord:
    """Factor ``m`` into a generator word with ``evaluate_word(word) == m``.

    Euclidean reduction on the first column: left-multiplications by powers
    of T shrink the upper-left entry modulo the lower-left one, and S swaps
    the rows, until the matrix is upper triangular.  ``-I`` comes out as
    ``S S``.

    The floor divisions follow the negative-regular continued fraction of
    ``a/c``, which turns a regular partial quotient ``q`` into a run of
    about ``q`` steps, each adding ``T^n S``.  So the word has at most
    ``2 (|q_0| + q_1 + q_2 + ...) + 6`` tokens for the regular partial
    quotients ``q_i`` of ``a/c``: linear, not logarithmic, in the entries
    at worst.  The 40-bit matrix ``(856145336725, 194079139008;
    606087388278, 137393633341)``, whose quotients include 1000, takes
    2050 tokens.
    """
    a, b, c, d = m.entries()
    # Each step left-multiplies m by T^-q or by S, until m = I; so m is
    # the product of the inverses in step order, collected here.
    # S^{-1} = S . (-I) with -I central, so each S stands for its inverse
    # and an odd number of them leaves one trailing S^2 = -I.
    tokens: list[str] = []
    while c != 0:
        q = a // c
        if q:
            a, b = a - q * c, b - q * d
            tokens.append(f"T^{q}")
        a, b, c, d = -c, -d, a, b
        tokens.append("S")
    if a == -1:  # a == d == -1: clear the sign with S^2 = -I, then the shear
        tokens += ["S", "S"]
        b = -b
    if b:
        tokens.append(f"T^{b}")
    if tokens.count("S") % 2:
        tokens += ["S", "S"]
    # The T tokens are nonzero and never adjacent, and four S in a row can
    # only stand at the end; S^4 = I, so drop them.
    if tokens[-4:] == ["S"] * 4:
        del tokens[-4:]
    return GeneratorWord(tuple(tokens))


def rho_of(m: SL2Matrix, d: ModularDatum) -> np.ndarray:
    """Evaluate the conformal-block representation of ``m`` on a datum.

    The result is the matrix product of ``rho`` over any factorization of
    ``m`` into generators; on a validated datum ``rho`` is a genuine
    representation, so the value does not depend on the chosen word.
    """
    t_angles = [p.angle for p in t_matrix(d)]
    out = np.eye(d.rank, dtype=complex)
    for tok in decompose_to_generators(m):
        n = _token_exponent(tok)
        if n is None:
            out = out @ d.s_matrix
        else:
            out = out * np.array([Phase(n * ang).value for ang in t_angles])
    return out


def is_prime(k: int) -> bool:
    if k < 2:
        return False
    f = 2
    while f * f <= k:
        if k % f == 0:
            return False
        f += 1
    return True


class SectorCongruence(NamedTuple):
    """Solution ``(a, b)`` of the sector congruences plus its SL(2, Z) matrix."""

    a: int
    b: int
    matrix: SL2Matrix


def sector_congruence(k: int, r: int, s: int) -> SectorCongruence:
    """Solve ``s = r a`` and ``-r = s b`` (mod k) with ``0 < a, b < k``.

    Returns the unique solution together with the determinant-one matrix
    ``(k, -b; -a, (1 + a b)/k)`` that transports twisted-sector trace
    functions onto the untwisted conformal block.  Requires ``k`` prime and
    ``0 < r, s < k``; primality makes ``a`` and ``b`` invertible mod ``k``
    and forces ``k | 1 + a b``.
    """
    if not is_prime(k):
        raise ValueError(f"k must be prime, got {k}")
    if not (0 < r < k and 0 < s < k):
        raise ValueError(f"r, s must lie strictly between 0 and k={k}, got r={r}, s={s}")
    # k is tiny in practice; direct search beats a modular-inverse routine
    a = next(x for x in range(1, k) if (r * x - s) % k == 0)
    b = next(x for x in range(1, k) if (s * x + r) % k == 0)
    assert (1 + a * b) % k == 0
    return SectorCongruence(a, b, SL2Matrix(k, -b, -a, (1 + a * b) // k))
