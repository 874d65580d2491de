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
half-spectra.  Multipliers are built once per distinct |xi|^2 (28,317 of
the 131,584 modes of a 512^2 grid; in 1-d every value is distinct) and
spread over the modes by `_grid_multipliers`.  The stepper's kernel and
`propagate`, which wraps it in the transform pair, pass the last few
(grid, dt) multipliers, kept in a cache.

`linear_norm_series` takes each sample from the data at the full time,
and only the data fields that are not zero enter it: one spread multiplier
per such field and one inverse transform give u, and its L1 and Linf.  L2,
H1dot and the energy are quadratic forms in the multipliers over per-shell
Gram sums of those fields, so the u_t spectrum is never formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridField, WaveState, _lp_of_magnitude, _name_non_finite, half_spectrum

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
    multipliers over the step are K = (K0, K1, dK0, dK1): K0 u_hat + K1 v_hat
    and dK0 u_hat + dK1 v_hat.  Each sum is formed in place in its first
    product, and the two second products share one buffer, so the flow makes
    three arrays and writes neither argument."""
    K0, K1, dK0, dK1 = K
    u_new, v_new, term = K0 * u_hat, dK0 * u_hat, K1 * v_hat
    u_new += term
    v_new += np.multiply(dK1, v_hat, out=term)
    return u_new, v_new


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

    Each sample is taken from the data at its full time t - t0, so nothing
    is carried from one sample to the next.  Once per call the data are
    transformed and only the fields among (phi_hat, psi_hat) that are not
    zero are kept, each with its multiplier slot (K0 and dK0 for phi, K1 and
    dK1 for psi): the CLI's data have phi = 0.  A sample builds `multipliers`
    at t - t0 on the distinct values of |xi|^2, spreads one of them per kept
    field by a take into u_hat = K0 phi_hat + K1 psi_hat, and makes one
    inverse transform, in place over u_hat, for L1 and Linf from one |u|; a
    non-finite u is named by its index.  The L2 norms come from the
    per-shell Gram sums of the kept fields, formed once (`_shell_sums`):

        A = sum w |phi_hat|^2,  B = sum w Re(phi_hat conj(psi_hat)),  C = sum w |psi_hat|^2

    over the modes of each distinct |xi|^2 with the Parseval column weights
    w; a zero field's sums are zero and are not formed.  The flow multiplies
    a whole shell by the same (K0, K1), so its share of |u|_{L2}^2 is
    K0^2 A + 2 K0 K1 B + K1^2 C, and of |u_t|_{L2}^2 the same form in
    (dK0, dK1): the u_t spectrum is never formed.  L2, H1dot and the energy
    E = 1/2 |u_t|_{L2}^2 + 1/2 |grad u|_{L2}^2 are sums over the shells.
    They are taken as elementwise products and `.sum()`, not by `@` or
    `np.dot`, which hand long vectors to a threaded BLAS that spends CPU
    time on other cores for no gain in wall time.  Zero data give zero norms.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size or not np.all(np.isfinite(times)) \
            or np.any(np.diff(times) <= 0) or times[0] < state.time:
        raise ValueError("times must be a non-empty 1-d sequence, finite, increasing and "
                         "start at or after the state time")
    if not (state.u.is_finite() and state.v.is_finite()):
        raise ValueError("cannot propagate a non-finite state")
    spec = state.spec
    half = half_spectrum(spec)
    values, index = half._distinct_xi_sq
    fields = [(slot, f_hat) for slot, f_hat in
              enumerate((half.forward(state.u.values), half.forward(state.v.values)))
              if f_hat.any()]
    gram = _shell_sums(half, fields)
    scale, cell = spec.cell / spec.points ** spec.dimension, spec.cell
    # The mode-sized arrays of a sample are written into buffers made once: on
    # a 512^2 grid, fresh ones cost a 30-sample call 17k-37k minor page faults,
    # not 4k.  u_hat stays zero for zero data; a second product term is needed
    # only for a second field.
    spread, u_hat = np.empty(index.shape), np.zeros(index.shape, dtype=complex)
    products = (u_hat, np.empty_like(u_hat)) if len(fields) == 2 else (u_hat,)
    magnitude = np.empty(spec.shape)
    samples = []
    for t in times:
        K = multipliers(values, t - state.time)
        for (slot, f_hat), product in zip(fields, products):
            np.multiply(np.take(K[slot], index, out=spread), f_hat, out=product)
        if len(products) == 2:
            u_hat += products[1]
        np.abs(half.inverse(u_hat, out=magnitude, overwrite=True), out=magnitude)
        sup = _lp_of_magnitude(magnitude, np.inf, cell)
        _name_non_finite(sup, magnitude)  # |u| is not finite where u is not
        shell_u, shell_v = _shell_form(K[:2], gram), _shell_form(K[2:], gram)
        l2_sq = scale * float(np.sum(shell_u))
        h1 = math.sqrt(scale * float(np.sum(values * shell_u)))
        energy = 0.5 * scale * float(np.sum(shell_v)) + 0.5 * h1 ** 2
        if not (math.isfinite(l2_sq) and math.isfinite(energy)):
            raise ValueError(f"linear flow to t={t} produced non-finite norms")
        samples.append((_lp_of_magnitude(magnitude, 1, cell), math.sqrt(l2_sq), sup, h1, energy))
    return {"t": times.copy(), **dict(zip(("L1", "L2", "Linf", "H1dot", "energy"),
                                          map(np.array, zip(*samples))))}


def _shell_sums(half, fields):
    """The per-shell Gram sums of the data fields [(slot, f_hat), ...]: for each
    pair of fields (i, f), (j, g) with f at or before g in `fields`, the triple
    (i, j, G) with G = sum w Re(f conj(g)) over the modes of each distinct
    |xi|^2, w the Parseval column weights; `np.bincount` adds each shell's
    modes in C order.  For (phi, psi) these are A, B and C, in that order."""
    values, index = half._distinct_xi_sq
    flat = index.ravel()

    def shell_sum(f, g):
        products = f.real * g.real + f.imag * g.imag
        return np.bincount(flat, weights=(products * half.weights).ravel(), minlength=values.size)

    return [(i, j, shell_sum(f, g)) for n, (i, f) in enumerate(fields) for j, g in fields[n:]]


def _shell_form(K, gram):
    """Per shell, the sum over the Gram sums (i, j, G) of K_i K_j G with the
    cross term (i != j) doubled, added in `gram`'s order: for two fields
    ((K0 K0) A + ((2 K0) K1) B) + (K1 K1) C.  0 for no Gram sums."""
    return sum(K[i] * K[j] * G if i == j else 2.0 * K[i] * K[j] * G for i, j, G in gram)


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
