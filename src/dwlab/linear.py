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
`_flow`, under `propagate` and the split-step stepper, keeps the last few
(grid, dt) multipliers, and `linear_norm_series` advances sample to sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridField, WaveState, half_spectrum, lp_norm

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
    """Return (K0, K1, dK0, dK1) for |xi|^2 array at time t >= 0."""
    if t < 0:
        raise ValueError(f"propagation time must be non-negative, got {t}")
    xi_sq = np.asarray(xi_sq, dtype=float)
    sigma = 0.25 - xi_sq
    envelope = math.exp(-0.5 * t)

    K0 = np.empty_like(sigma)
    K1 = np.empty_like(sigma)
    dK1 = np.empty_like(sigma)
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


@functools.lru_cache(maxsize=4)
def _flow_multipliers(spec, dt):
    """Read-only (K0, K1, dK0, dK1) over dt on the grid's half-spectrum.

    Everything cached is a function of the grid and dt alone.  Four
    entries hold a split-step run's step and the odd step clipped to a
    sample time, plus a cross-check on a second grid.
    """
    found = multipliers(half_spectrum(spec).xi_sq, dt)
    for array in found:
        array.flags.writeable = False
    return found


def _flow(spec, u, v, dt):
    """The arrays (u, u_t) advanced by dt > 0 under the exact linear flow, unchecked."""
    K0, K1, dK0, dK1 = _flow_multipliers(spec, dt)
    half = half_spectrum(spec)
    u_hat, v_hat = half.forward(u), half.forward(v)
    return half.inverse(K0 * u_hat + K1 * v_hat), half.inverse(dK0 * u_hat + dK1 * v_hat)


def propagate(state, dt):
    """Evolve Cauchy data exactly by dt under the linear damped flow."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if not (state.u.is_finite() and state.v.is_finite()):
        raise ValueError("cannot propagate a non-finite state")
    if dt == 0.0:
        return state.copy()
    spec = state.spec
    u, v = _flow(spec, state.u.values, state.v.values, dt)
    out = WaveState(state.time + dt, GridField(spec, u), GridField(spec, v))
    if not (out.u.is_finite() and out.v.is_finite()):
        raise ValueError(f"linear flow over dt={dt} produced a non-finite state")
    return out


def linear_norm_series(state, times):
    """Norm diagnostics of the linear flow at the requested times.

    The spectra of (u, u_t) advance from sample to sample (the exact flow
    is a semigroup), so each sample costs one multiplier build and one
    inverse transform, for L1/L2/Linf; H1dot and the energy
    E = 1/2 |u_t|_{L2}^2 + 1/2 |grad u|_{L2}^2 come from Parseval sums.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0) \
            or times[0] < state.time:
        raise ValueError("times must be finite, increasing and start at or after the state time")
    if not (state.u.is_finite() and state.v.is_finite()):
        raise ValueError("cannot propagate a non-finite state")
    spec = state.spec
    half = half_spectrum(spec)
    u_hat, v_hat = half.forward(state.u.values), half.forward(state.v.values)
    out = {key: [] for key in ("L1", "L2", "Linf", "H1dot", "energy")}
    for t_prev, t in zip([state.time, *times], times):
        K0, K1, dK0, dK1 = multipliers(half.xi_sq, t - t_prev)
        u_hat, v_hat = K0 * u_hat + K1 * v_hat, dK0 * u_hat + dK1 * v_hat
        grad_sq = half.parseval(u_hat, half.xi_sq)
        energy = 0.5 * half.parseval(v_hat) + 0.5 * grad_sq
        if not math.isfinite(energy):
            raise ValueError(f"linear flow to t={t} produced non-finite norms")
        u = GridField(spec, half.inverse(u_hat))
        for key, p in (("L1", 1), ("L2", 2), ("Linf", np.inf)):
            out[key].append(lp_norm(u, p))
        out["H1dot"].append(math.sqrt(grad_sq))
        out["energy"].append(energy)
    return {"t": times.copy(), **{key: np.asarray(vals) for key, vals in out.items()}}


@dataclass
class DecayFit:
    """Least-squares slope of log(norm) against log(1+t)."""

    norm: str
    window: tuple
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
    return DecayFit(norm=norm, window=(t_min, t_max), exponent=float(coef[1]),
                    residual=float(np.sqrt(np.mean(resid ** 2))), n_points=int(mask.sum()))
