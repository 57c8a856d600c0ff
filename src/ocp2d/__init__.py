"""Radial statistics of the two-dimensional trapped log-gas.

Rate functions and finite-size corrections for the extreme radius, tilted
equilibrium measures and free energies for radial moments, exact finite-n
formulas at coupling 2, exact and Metropolis samplers, and the verification
harness confronting all of the above.
"""

from . import edge, equilibrium, exact, harness, sampling
from .edge import *
from .equilibrium import *
from .errors import (
    DomainError,
    NumericalError,
    Ocp2dError,
    SingularityError,
    StabilityError,
)
from .exact import *
from .harness import *
from .sampling import *

__version__ = "0.1.0"

# Each public name is declared once, in its module's __all__; the error
# types are named here so that the validators in errors stay internal.
__all__ = [
    "__version__",
    "Ocp2dError", "DomainError", "StabilityError", "SingularityError",
    "NumericalError",
    *edge.__all__, *equilibrium.__all__, *exact.__all__, *sampling.__all__,
    *harness.__all__,
]
