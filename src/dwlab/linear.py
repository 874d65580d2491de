"""Exact Fourier-multiplier solution of u_tt - Delta u + u_t = 0.

Each Fourier mode obeys the damped oscillator w'' + w' + |xi|^2 w = 0
with characteristic roots lambda = -1/2 +- sqrt(1/4 - |xi|^2).  The
data-to-solution multipliers

    u_hat(t) = K0(|xi|, t) phi_hat + K1(|xi|, t) psi_hat

are evaluated in cancellation-free forms: the two real exponentials
exp(-(1/2 -+ b) t), b = sqrt(1/4 - |xi|^2), below the resonance
|xi| = 1/2 (the exp(-t/2) envelope folded into the exponents, so no
term overflows at any horizon), exp(-t/2) cos/sin above, and a power
series in sigma t^2 (sigma = 1/4 - |xi|^2) close to it.  The time
derivatives follow from the exact identities dK0 = -|xi|^2 K1 and
dK1 = K0 - K1.

The flow runs on the grid's rfft half-spectrum (`dwlab.grid.half_spectrum`):
`_flow_hat(K, u_hat, v_hat)` applies the multipliers K it is given to
half-spectra.  A grid's multipliers are built by `_grid_multipliers` alone,
once per distinct |xi|^2 (28,317 of the 131,584 modes of a 512^2 grid; in
1-d every value is distinct) and spread over the modes.  The stepper's
kernel and `propagate`, which wraps it in the transform pair, pass the last
few (grid, dt) multipliers, kept in a cache; `linear_norm_series` builds
its own for each gap between samples and takes each sample's norms from
one |u|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridField, WaveState, _sample_norms, half_spectrum

__all__ = [
    "multipliers",
    "propagate",
    "linear_norm_series",
    "DecayFit",
    "decay_fit",
]


def _phi_series(z):
    """phi0(z) = sum z^m/(2m)!, phi1(z) = sum z^m/(2m+1)!  (|z| small)."""
    phi0 = np.ones_like(z)
    phi1 = np.ones_like(z)
    term0 = np.ones_like(z)
    term1 = np.ones_like(z)
    for m in range(1, 40):
        term0 = term0 * z / ((2 * m - 1) * (2 * m))
        term1 = term1 * z / ((2 * m) * (2 * m + 1))
        phi0 += term0
        phi1 += term1
        if np.max(np.abs(term0)) < 1e-18 and np.max(np.abs(term1)) < 1e-18:
            break
    return phi0, phi1


def multipliers(xi_sq, t):
    """Return (K0, K1, dK0, dK1) for |xi|^2 array at time 0 <= t < inf."""
    if not 0 <= t < math.inf:
        raise ValueError(f"propagation time must be non-negative and finite, got {t}")
    xi_sq = np.asarray(xi_sq, dtype=float)
    sigma = 0.25 - xi_sq
    envelope = math.exp(-0.5 * t)

    K0 = np.empty_like(sigma)
    K1 = np.empty_like(sigma)
    dK1 = np.empty_like(sigma)
    with np.errstate(over="ignore"):  # an overflowed |z| = inf is simply not near
        z = sigma * t * t
    near = np.abs(z) < 0.25
    low = (sigma > 0) & ~near
    high = (sigma < 0) & ~near

    if near.any():
        phi0, phi1 = _phi_series(z[near])
        K1[near] = t * phi1 * envelope
        K0[near] = (phi0 + 0.5 * t * phi1) * envelope
        dK1[near] = K0[near] - K1[near]
    if low.any():
        # e^{-t/2} cosh(bt) = (slow + fast)/2 and e^{-t/2} sinh(bt) = (slow - fast)/2,
        # with b - 1/2 = -xi^2/(b + 1/2) kept free of cancellation
        b = np.sqrt(sigma[low])
        lag = xi_sq[low] / (b + 0.5)
        slow = np.exp(-lag * t)
        fast = np.exp(-(b + 0.5) * t)
        K1[low] = (slow - fast) / (2.0 * b)
        K0[low] = 0.5 * (slow + fast) + 0.25 * (slow - fast) / b
        # K0 - K1 = slow (1/2 - 1/(4b)) + fast (1/2 + 1/(4b)), and 1/2 - 1/(4b) = -lag/(2b)
        dK1[low] = (fast * (b + 0.5) - slow * lag) / (2.0 * b)
    if high.any():
        b = np.sqrt(-sigma[high])
        sn, cs = np.sin(b * t), np.cos(b * t)
        K1[high] = sn / b * envelope
        K0[high] = (cs + 0.5 * sn / b) * envelope
        dK1[high] = K0[high] - K1[high]

    return K0, K1, -xi_sq * K1, dK1


def _grid_multipliers(half, t):
    """(K0, K1, dK0, dK1) at time t on the half-spectrum `half`.

    `multipliers` runs once on the distinct values of |xi|^2 and its arrays
    are spread over the modes by the grid's index.  Every branch is
    elementwise and the series' stopping test sees the same set of values,
    so the result is `multipliers(half.xi_sq, t)` bit for bit.
    """
    values, index = half._distinct_xi_sq
    return tuple(np.take(K, index) for K in multipliers(values, t))


@functools.lru_cache(maxsize=4)
def _flow_multipliers(spec, dt):
    """Read-only (K0, K1, dK0, dK1) over dt on the grid's half-spectrum, as
    complex128: a real multiplier meets complex spectra, which numpy would
    otherwise cast it to on every multiply, so the products are the same bits.

    Everything cached is a function of the grid and dt alone.  Four
    entries hold a split-step run's step and the odd step clipped to a
    sample time, plus a cross-check on a second grid.
    """
    found = tuple(K.astype(complex) for K in _grid_multipliers(half_spectrum(spec), dt))
    for array in found:
        array.flags.writeable = False
    return found


def _flow_hat(K, u_hat, v_hat):
    """The half-spectra of (u, u_t) advanced under the exact linear flow whose
    multipliers over the step are K = (K0, K1, dK0, dK1)."""
    K0, K1, dK0, dK1 = K
    return K0 * u_hat + K1 * v_hat, dK0 * u_hat + dK1 * v_hat


def propagate(state, dt):
    """Evolve Cauchy data exactly by dt under the linear damped flow."""
    if not 0 <= dt < math.inf:
        raise ValueError(f"dt must be non-negative and finite, got {dt}")
    if not (state.u.is_finite() and state.v.is_finite()):
        raise ValueError("cannot propagate a non-finite state")
    if dt == 0.0:
        return state.copy()
    spec = state.spec
    half = half_spectrum(spec)
    u_hat, v_hat = _flow_hat(_flow_multipliers(spec, dt), half.forward(state.u.values),
                             half.forward(state.v.values))
    out = WaveState(state.time + dt, GridField(spec, half.inverse(u_hat)),
                    GridField(spec, half.inverse(v_hat)))
    if not (out.u.is_finite() and out.v.is_finite()):
        raise ValueError(f"linear flow over dt={dt} produced a non-finite state")
    return out


def linear_norm_series(state, times):
    """Norm diagnostics of the linear flow at the requested times.

    The spectra of (u, u_t) advance from sample to sample (the exact flow
    is a semigroup) by multipliers built per gap, outside the stepper's
    cache.  A sample costs one inverse transform for its norms; the energy
    E = 1/2 |u_t|_{L2}^2 + 1/2 |grad u|_{L2}^2 adds one Parseval sum.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or not np.all(np.isfinite(times)) \
            or np.any(np.diff(times) <= 0) or times[0] < state.time:
        raise ValueError("times must be a non-empty 1-d sequence, finite, increasing and "
                         "start at or after the state time")
    if not (state.u.is_finite() and state.v.is_finite()):
        raise ValueError("cannot propagate a non-finite state")
    half = half_spectrum(state.spec)
    u_hat, v_hat = half.forward(state.u.values), half.forward(state.v.values)
    samples = []
    for t_prev, t in zip([state.time, *times], times):
        # K stays bound until the next build, so its pages are not returned to the OS per sample
        K = _grid_multipliers(half, t - t_prev)
        u_hat, v_hat = _flow_hat(K, u_hat, v_hat)
        norms = _sample_norms(half, half.inverse(u_hat), u_hat)
        norms["energy"] = 0.5 * half.parseval(v_hat) + 0.5 * norms["H1dot"] ** 2
        if not math.isfinite(norms["energy"]):
            raise ValueError(f"linear flow to t={t} produced non-finite norms")
        samples.append(norms)
    return {"t": times.copy(), **{key: np.array([s[key] for s in samples]) for key in samples[0]}}


@dataclass
class DecayFit:
    """Least-squares slope of log(norm) against log(1+t)."""

    exponent: float
    residual: float
    n_points: int


def decay_fit(series, norm, window):
    """Fit the decay exponent of a norm series over a (1+t) window.

    Requires at least 20 samples spanning a decade of 1+t, matching how
    the decay estimates are stated (in powers of 1+t, not t).
    """
    t = series["t"]
    values = series[norm]
    t_min, t_max = window
    mask = (t >= t_min) & (t <= t_max) & (values > 0)
    if np.count_nonzero(mask) < 20:
        raise ValueError("window holds fewer than 20 usable samples")
    x = np.log1p(t[mask])
    if x[-1] - x[0] < math.log(10.0):
        raise ValueError("window spans less than one decade of 1+t")
    y = np.log(values[mask])
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return DecayFit(exponent=float(coef[1]), residual=float(np.sqrt(np.mean(resid ** 2))),
                    n_points=int(mask.sum()))
