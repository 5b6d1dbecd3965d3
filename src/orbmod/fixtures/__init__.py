"""Bundled desk-scale modular data fixtures.

Three standard rational models ship with the package; none is trusted
blindly -- the test suite certifies each one with the full validation
suite before any other test uses it.
"""

from __future__ import annotations

from pathlib import Path

from ..modular_data import ModularDatum, parse_modular_datum

__all__ = ["NAMES", "path", "load"]

NAMES = ("ising", "fibonacci", "holomorphic_c8")

_HERE = Path(__file__).parent


def path(name: str) -> Path:
    """Filesystem path of a bundled fixture JSON file."""
    if name not in NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {NAMES}")
    return _HERE / f"{name}.json"


def load(name: str) -> ModularDatum:
    """Parse a bundled fixture into a :class:`ModularDatum`."""
    return parse_modular_datum(path(name).read_text(encoding="utf-8"))
