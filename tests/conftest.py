import atexit
import shutil
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from orbmod import fixtures
from orbmod.modular_data import ModularDatum, ModuleInfo

# one profile for the whole suite: the same examples on every run, and no
# example database written
settings.register_profile("orbmod", deadline=None, derandomize=True, database=None)
settings.load_profile("orbmod")
# hypothesis still caches the constants of the source files it reads; keep
# that cache out of the checkout, for this run only
_storage = tempfile.mkdtemp(prefix="orbmod-hypothesis-")
set_hypothesis_home_dir(_storage)
atexit.register(shutil.rmtree, _storage, ignore_errors=True)


@pytest.fixture(scope="session")
def ising():
    return fixtures.load("ising")


@pytest.fixture(scope="session")
def fibonacci():
    return fixtures.load("fibonacci")


@pytest.fixture(scope="session")
def holo8():
    return fixtures.load("holomorphic_c8")


# exact rationals of either sign with denominators up to 10**50
rationals = st.builds(Fraction, st.integers(-(10**55), 10**55), st.integers(1, 10**50))


def _datum(c: Fraction, weights: list[Fraction]) -> ModularDatum:
    # any unitary S: the discrete Fourier transform of the module count
    n = len(weights) + 1
    s = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    modules = [ModuleInfo(f"m{i}", h) for i, h in enumerate([Fraction(0), *weights])]
    return ModularDatum(c, modules, s)


# data of 1 to 4 modules with such a central charge and weights
rational_data = st.builds(_datum, rationals, st.lists(rationals, max_size=3))
