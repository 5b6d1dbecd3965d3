"""orbmod: modular data of rational chiral algebras and their orbifolds.

The package computes and validates modular data (central charge, conformal
weights, S- and T-matrices): consistency checks and Verlinde fusion for any
datum, exact SL(2, Z) generator arithmetic with the conformal-block
representation, the complete pipeline producing the modular datum of the
cyclic permutation orbifold of prime order, and a generic evaluator for
restricted S-matrices of fixed-point subalgebras from orbit/character data.

The public names are those of the four submodules' ``__all__`` lists.
"""

from . import modular_data, perm_orbifold, restricted, sl2z
from .modular_data import *
from .perm_orbifold import *
from .restricted import *
from .sl2z import *

__version__ = "0.1.0"

__all__ = [
    *modular_data.__all__,
    *perm_orbifold.__all__,
    *restricted.__all__,
    *sl2z.__all__,
    "__version__",
]
