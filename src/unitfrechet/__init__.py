"""unitfrechet: the UF distribution of a ratio of dependent extremes.

The UF law on (0, 1) describes X1/(X1 + X2) when (X1, X2) is a
bivariate extreme-value vector with Frechet margins sharing one shape.
This package evaluates its density, CDF and quantiles, samples from it
and from the underlying bivariate law, approximates moments by the
delta method, fits it (and Beta/Kumaraswamy comparisons) by maximum
likelihood, and validates the estimator by simulation. A CLI fronts the
lot; see ``unitfrechet --help``.
"""

from . import bivariate, core, datasets, errors, inference, moments, simulation
from .bivariate import *
from .core import *
from .datasets import *
from .errors import *
from .inference import *
from .moments import *
from .simulation import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    name
    for module in (bivariate, core, datasets, errors, inference, moments, simulation)
    for name in module.__all__
]
