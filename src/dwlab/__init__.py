"""Numerical laboratory for the semilinear classical damped wave equation.

Submodules
----------
modulus       moduli of continuity, the forcing term, and the integral test
              separating global existence from blow-up
grid          periodic grids, spectral calculus, norms, field I/O
linear        exact Fourier-multiplier flow of the damped wave operator
semilinear    split-step time integration, blow-up detection,
              fixed-point cross-checks
testfunction  compactly supported weights and the averaged-inequality
              chain certifying blow-up
cli           command-line front end
"""

# each submodule's __all__ is the package's public API
from .modulus import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .linear import *  # noqa: F401,F403
from .semilinear import *  # noqa: F401,F403
from .testfunction import *  # noqa: F401,F403

__version__ = "0.1.0"
