"""Integer SL(2, Z) arithmetic and the conformal-block representation.

The modular group is generated by ``S = (0, -1; 1, 0)`` and
``T = (1, 1; 0, 1)``.  This module factors arbitrary integer matrices of
determinant one into words in those generators (Euclidean reduction on the
first column, exact integer round trip), and evaluates the representation
``rho`` attached to a modular datum -- ``rho(S)`` is the S-matrix and
``rho(T)`` the diagonal of T-phases -- on any group element.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .modular_data import ModularDatum, _t_phases

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

# the canonical T token; "S" tokens are matched before it
_T_TOKEN = re.compile(r"T\^-?[1-9][0-9]*")


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

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}; {self.c}, {self.d})"


@dataclass(frozen=True)
class GeneratorWord:
    """A word in the generators: tokens ``"S"`` or ``"T^n"`` (``n != 0``).

    ``n`` is written in ASCII decimal digits with no leading zero or plus
    sign, and adjacent T tokens are forbidden (they must be merged), so the
    printed form is canonical for the token sequence it stores.  The empty
    word is the identity.
    """

    tokens: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        prev_t = False
        for tok in self.tokens:
            if tok == "S":
                prev_t = False
                continue
            if not _T_TOKEN.fullmatch(tok):
                raise ValueError(f"bad generator token {tok!r}")
            if prev_t:
                raise ValueError("adjacent T tokens must be merged")
            prev_t = True

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return " ".join(self.tokens) if self.tokens else "<empty>"


def evaluate_word(word: GeneratorWord | Iterable[str]) -> SL2Matrix:
    """Exact integer product of the generator matrices in word order.

    The product is folded on the four entries as plain ints, and made an
    :class:`SL2Matrix` once: a product of determinant-one matrices has
    determinant one."""
    if not isinstance(word, GeneratorWord):
        word = GeneratorWord(tuple(word))
    a, b, c, d = 1, 0, 0, 1
    for tok in word:
        if tok == "S":  # times (0, -1; 1, 0)
            a, b, c, d = b, -a, d, -c
        else:  # times (1, n; 0, 1)
            n = int(tok[2:])
            b += a * n
            d += c * n
    return SL2Matrix(a, b, c, d)


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

    ``rho(T^n)`` is the diagonal ``_t_phases(d, n)`` of the angles
    ``n (h_i - c/24)``, bit for bit the ``Phase`` of each exact angle.
    """
    out = np.eye(d.rank, dtype=complex)
    for tok in decompose_to_generators(m):
        if tok == "S":
            out = out @ d.s_matrix
        else:
            out = out * _t_phases(d, int(tok[2:]))
    return out


# the primes to 37: as Miller-Rabin bases they decide every k below
# 318665857834031151167461, the least strong pseudoprime to all of them
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(k: int) -> bool:
    """Whether ``k`` is prime: a deterministic Miller-Rabin test over the
    bases 2 to 37, O(log k) multiplications modulo ``k`` per base.

    Exact below 3.18e23.  Above that bound a strong pseudoprime to all
    twelve bases is taken for a prime; the k orbifold of any datum has more
    than k modules, which fit in no memory, so ``perm`` refuses such a k
    (exit 2) whichever the answer."""
    k = operator.index(k)  # a numpy int too: three-argument pow takes ints only
    if k < 2:
        return False
    for p in _BASES:
        if k % p == 0:
            return k == p
    odd, twos = k - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _BASES:
        x = pow(a, odd, k)
        if x in (1, k - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
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
