"""Reliability-function bounds for the binary symmetric channel.

Numerical library and CLI covering the full computable bound stack: scalar
channel constants, the guaranteed distance-spectrum exponent, the optimized
upper bound with its exactly-known segment, Hahn-polynomial machinery, and
exact oracles for small explicit codes.
"""

from . import core, hahn, optimizer, oracle, quadrature, spectrum, verify
from .core import *
from .hahn import *
from .optimizer import *
from .oracle import *
from .quadrature import *
from .spectrum import *
from .verify import *

__version__ = "0.1.0"

# each module's __all__ is its public API; the package re-exports them all
__all__ = (core.__all__ + hahn.__all__ + optimizer.__all__ + oracle.__all__
           + quadrature.__all__ + spectrum.__all__ + verify.__all__)
