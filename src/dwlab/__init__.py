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

from .modulus import (
    Kind,
    Modulus,
    ModulusError,
    Nonlinearity,
    PowerForcing,
    Verdict,
    catalog_make,
    check_h_convexity,
    check_slow_variation,
    classify_dini,
    format_modulus_spec,
    load_custom_modulus,
    parse_modulus_spec,
)
from .grid import (
    GridError,
    GridField,
    GridSpec,
    WaveState,
    field_to_csv,
    gn_check,
    hdot_norm,
    load_field,
    lp_norm,
    save_field,
    sobolev_norm,
    spectral_gradient,
)
from .linear import (
    DecayFit,
    decay_fit,
    energy,
    linear_norm_series,
    multipliers,
    propagate,
)
from .semilinear import (
    EvolveConfig,
    Outcome,
    Trajectory,
    a_norm,
    evolve,
    make_data,
    picard_verify,
    step,
    xnorm_weight,
)
from .testfunction import (
    blowup_certificate,
    eta,
    eta_d1,
    eta_d2,
    functional_ir,
    functional_y,
    functional_y_exchanged,
    jensen_check,
    kernel_k,
    psi_weights,
    weight_bound_constant,
)

__version__ = "0.1.0"
