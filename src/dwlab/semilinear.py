"""Time integration of u_tt - Delta u + u_t = h(u) and blow-up detection.

The stepper is Strang splitting around the exact linear propagator:

    kick   v <- v + (dt/2) h(u)
    drift  exact linear flow over dt
    kick   v <- v + (dt/2) h(u)

which is second order and inherits the linear decay structure exactly
(h = 0 reduces to the exact flow).  `evolve` carries the real-FFT
half-spectra (u_hat, v_hat, h_hat) of u, u_t and h(u) from one accepted step
to the next and kicks and drifts them in place of the fields, so an attempt
costs two real transforms (`rfft`/`irfft`, each followed or preceded by a
complex stage along the first axis on a 2-d grid, through
`dwlab.grid.HalfSpectrum`): u_hat back, for h(u) and
max|u|, and h(u) forward, for the closing kick and the next opening one.
The growth check needs max|u_t| only to decide whether max|u| + max|u_t|
more than doubled, and `HalfSpectrum.sup_bound` bounds it from v_hat: a
grid value is a sum of the coefficients times unit phases.  When max|u|
plus that bound stays within twice a lower bound on the old size the step
is accepted at once; only otherwise does v_hat go back to the grid (and
the old v_hat, if its size was not measured) for the exact sizes.  The
cheap accept implies the exact one, so every decision is the one the exact
sizes give.  A sample takes its norms from u and the carried u_hat, with no
transform.  `evolve` is the one entry to the scheme.  Its kernel drifts
through `dwlab.linear._flow_hat` with the cached multipliers of its
(grid, dt), and it signals a non-finite h(u) or u, which `evolve` reports
as a blow-up at the attempt's start; a non-finite u_t is found where u_t
is taken back.  Blow-up is detected
operationally: |u| above `BLOWUP_THRESHOLD`, non-finite values, or the step
halving below `DT_MIN`.  True nonexistence is asymptotic and the detected
time is an upper proxy for the lifespan, not a sharp estimate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .grid import (GridError, GridField, WaveState, _sample_norms, half_spectrum, lp_norm,
                   sobolev_norm)
# propagate is unused here, but perfbench/selftest.py checks that its tracer patches this binding
from .linear import _flow_hat, _flow_multipliers, _grid_multipliers, propagate  # noqa: F401

__all__ = [
    "BLOWUP_THRESHOLD",
    "DT_MIN",
    "EvolveConfig",
    "Trajectory",
    "Outcome",
    "evolve",
    "xnorm_weight",
    "picard_verify",
    "a_norm",
    "make_data",
]


class _BlowupSignal(RuntimeError):
    """Raised inside `evolve` when a step produces non-finite values."""

    def __init__(self, time):
        super().__init__(f"non-finite values at t={time}")
        self.time = time


BLOWUP_THRESHOLD = 1e6  # a sup norm |u| above this counts as blow-up
DT_MIN = 1e-10  # a step halved below this is a StepCollapse


class Outcome:
    COMPLETED = "CompletedHorizon"
    BLEW_UP = "BlewUpAt"
    STEP_COLLAPSE = "StepCollapse"


@dataclass
class EvolveConfig:
    grid: "GridSpec"
    nonlinearity: object  # anything with h_eval
    data: WaveState
    dt: float
    t_max: float
    sample_stride: int = 10
    keep_fields: bool = True

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("t_max", self.t_max)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and exceed 0, got {value}")
        stride = self.sample_stride
        if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
            raise ValueError(f"sample_stride must be a positive integer, got {stride}")
        if self.data.spec != self.grid:
            raise ValueError("data grid does not match configured grid")
        # a Nonlinearity's exponent 1 + 2/n belongs to one dimension; a PowerForcing has none
        dimension = getattr(self.nonlinearity, "dimension", self.grid.dimension)
        if dimension != self.grid.dimension:
            raise ValueError(f"the forcing is built for dimension {dimension}, "
                             f"the grid has dimension {self.grid.dimension}")


@dataclass
class Trajectory:
    """Sampled states plus per-sample norm diagnostics."""

    spec: "GridSpec"
    times: np.ndarray
    norms: dict
    outcome: str
    t_est: float
    u_samples: list
    # step statistics: accepted steps, attempts the growth rule rejected, and
    # the smallest step the rule set (clipping to sample times and the horizon aside)
    steps_accepted: int
    steps_rejected: int
    dt_min: float

    @property
    def xnorm(self):
        """The maximum of `xnorm_weight` over the samples (NaN if one is NaN)."""
        return float(np.max(xnorm_weight(self.times, self.spec.dimension, self.norms)))


def _finite_sup(values, time):
    """max|values|, or _BlowupSignal(time) if it is not finite: a max is NaN
    or inf exactly when its field holds a non-finite value.  The max is the
    array's own method, which skips the np.max wrapper's dispatch."""
    sup = float(np.abs(values).max())
    if not math.isfinite(sup):
        raise _BlowupSignal(time)
    return sup


def _carried_step(half, carried, time, dt, nonlinearity):
    """One Strang step from `time` of the half-spectra `carried` =
    (u_hat, v_hat, h_hat) of (u, u_t, h(u)) on the grid of `half`.

    Returns the new arrays (u, h(u)), the new state's carried triple and
    max|u|; u_t stays a spectrum, which the caller takes back only if it
    needs it.  The triple passed in is left as it was, so a rejected
    attempt retries from it.  Raises _BlowupSignal(time) if h(u) is not
    finite, before its transform spreads the bad value over every mode,
    or if u is not.
    """
    u_hat, v_hat, h_hat = carried
    # the kick v_hat + (dt/2) h_hat, summed in place in the product (a sum is
    # the same bits in either order); the buffer then holds the closing kick
    kick = 0.5 * dt * h_hat
    kick += v_hat
    u_hat, v_hat = _flow_hat(_flow_multipliers(half.spec, dt), u_hat, kick)
    u = half.inverse(u_hat)
    h_u = nonlinearity.h_eval(u)
    if not np.isfinite(h_u).all():
        raise _BlowupSignal(time)
    h_hat = half.forward(h_u)
    v_hat += np.multiply(0.5 * dt, h_hat, out=kick)
    return (u, h_u), (u_hat, v_hat, h_hat), _finite_sup(u, time)


def xnorm_weight(t, dimension, norms):
    """The time-weighted sum tracked by the solution-space norm, from the
    norms "L2", "H1dot" (= |grad u|_{L2}) and "Linf" of u at time t, all
    scalars or all arrays over samples:

    sum_{k=0,1} (1+t)^{(n+2k)/4} |grad^k u|_{L2} + (1+t)^{n/2} |u|_{Linf}.
    """
    n = dimension
    return ((1.0 + t) ** (n / 4.0) * norms["L2"]
            + (1.0 + t) ** ((n + 2.0) / 4.0) * norms["H1dot"]
            + (1.0 + t) ** (n / 2.0) * norms["Linf"])


def evolve(config):
    """Advance to the horizon or until blow-up is detected.

    The step halves whenever the sup norm more than doubles across one
    step (growth control near blow-up); a step below DT_MIN is reported
    as StepCollapse with the last reliable time.  The sup norm here is
    size = max|u| + max|u_t|; max|u_t| is bounded from its spectrum and
    measured only when the bound cannot decide (see the module docstring).
    Data holding a non-finite value, or whose h(u) is not finite, raise
    ValueError: they are a bad input, not a blow-up time.
    """
    data = config.data
    if not (data.u.is_finite() and data.v.is_finite()):
        raise ValueError("cannot propagate a non-finite state")
    half = half_spectrum(config.grid)
    time, u, v = data.time, data.u.values, data.v.values
    h_u = config.nonlinearity.h_eval(u)
    if not np.isfinite(h_u).all():
        raise ValueError("the forcing h(u) of the initial data is not finite")
    carried = (half.forward(u), half.forward(v), half.forward(h_u))
    # the carried state's max|u|, and its max|u| + max|v| when it was measured (else None)
    sup_u = float(np.max(np.abs(u)))
    size = sup_u + float(np.max(np.abs(v)))
    dt = config.dt
    accepted = rejected = 0
    times = [time]
    samples = [_sample_norms(half, u, carried[0])]
    u_samples = [u.copy()] if config.keep_fields else []
    sample_dt = config.dt * config.sample_stride
    next_sample = time + sample_dt
    outcome, t_est = Outcome.COMPLETED, math.inf

    while time < config.t_max - 1e-12:
        dt_step = min(dt, config.t_max - time, next_sample - time)
        try:
            (u, _), candidate, sup_after = _carried_step(
                half, carried, time, dt_step, config.nonlinearity)
            # accept at once if max|u| plus the bound on max|u_t| stays within
            # twice a lower bound on the old size, less a margin for rounding;
            # a bound under 1e300 also proves u_t finite
            size_lo = sup_u if size is None else size
            bound = half.sup_bound(candidate[1])
            if bound < 1e300 and sup_after + bound <= 2.0 * max(size_lo, 1e-14) * (1.0 - 1e-12):
                size_after = None
            else:
                if size is None:
                    size = sup_u + _finite_sup(half.inverse(carried[1]), time)
                size_after = sup_after + _finite_sup(half.inverse(candidate[1]), time)
        except _BlowupSignal:
            outcome, t_est = Outcome.BLEW_UP, time
            break
        if size_after is not None and size_after > 2.0 * max(size, 1e-14) and dt_step > DT_MIN:
            rejected += 1
            if 0.5 * dt_step < DT_MIN:
                outcome, t_est = Outcome.STEP_COLLAPSE, time
                break
            dt = 0.5 * dt_step
            continue
        accepted += 1
        carried, sup_u, size, time = candidate, sup_after, size_after, time + dt_step
        if sup_after > BLOWUP_THRESHOLD:
            outcome, t_est = Outcome.BLEW_UP, time
            break
        if time >= next_sample - 1e-12 or time >= config.t_max - 1e-12:
            times.append(time)
            samples.append(_sample_norms(half, u, carried[0]))
            if config.keep_fields:
                u_samples.append(u.copy())
            while next_sample <= time + 1e-12:
                next_sample += sample_dt

    return Trajectory(
        spec=config.grid,
        times=np.asarray(times),
        norms={key: np.array([s[key] for s in samples]) for key in samples[0]},
        outcome=outcome,
        t_est=t_est,
        u_samples=u_samples,
        steps_accepted=accepted,
        steps_rejected=rejected,
        dt_min=dt,
    )


# -- Picard / Duhamel cross-validation --------------------------------


def _duhamel_u(half, lags, h_hat_list, dt_loc, i):
    """u-component of int_0^{t_i} Phi(t_i - s) * h(u(s)) ds by trapezoid.

    lags[k] holds the multipliers at the lag t_k - t_0 of the uniform grid.
    """
    if i == 0:
        return np.zeros(half.spec.shape)
    acc = np.zeros_like(h_hat_list[0])
    for j in range(i + 1):
        w = 0.5 if j in (0, i) else 1.0
        acc += w * dt_loc * lags[i - j][1] * h_hat_list[j]
    return half.inverse(acc)


def picard_verify(config, window_T, iterations):
    """Successive-approximation check of the Duhamel fixed point.

    Builds u^0 = linear flow, u^{k+1} = u^lin + int Phi * h(u^k) on a
    uniform grid over [0, window_T], and reports the contraction factor
    in the weighted trajectory norm together with the mismatch against
    the split-step solution at the window end.

    When window_T is a whole number of steps dt, the trapezoid sum on
    the step grid is the kick-drift-kick scheme unrolled, so the Picard
    fixed point is the split-step solution itself.  The mismatch then
    measures the unconverged Picard remainder plus round-off; it is not
    a discretisation error and does not fall 4x as dt halves.
    """
    if iterations < 3:
        raise ValueError("need at least 3 iterations")
    if not 0 < window_T < math.inf:
        raise ValueError(f"window_T must be positive and finite, got {window_T}")
    spec = config.grid
    n = spec.dimension
    m = max(int(round(window_T / config.dt)), 4)
    t_grid = np.linspace(0.0, window_T, m + 1)
    dt_loc = t_grid[1] - t_grid[0]

    data = config.data
    if not (data.u.is_finite() and data.v.is_finite()):
        raise ValueError("cannot propagate a non-finite state")
    # one multiplier build per lag t_k - t_0 serves every pair (i, j) with i - j = k
    half = half_spectrum(spec)
    lags = [_grid_multipliers(half, t - t_grid[0]) for t in t_grid]
    phi_hat, psi_hat = half.forward(data.u.values), half.forward(data.v.values)
    u_lin = [half.inverse(_flow_hat(K, phi_hat, psi_hat)[0]) for K in lags]

    def weighted_norm(diff_fields):
        return max(xnorm_weight(t, n, _sample_norms(half, vals, half.forward(vals)))
                   for t, vals in zip(t_grid, diff_fields))

    current = [u.copy() for u in u_lin]
    increments = []
    for _ in range(iterations):
        h_hat = [half.forward(config.nonlinearity.h_eval(u)) for u in current]
        nxt = [u_lin[i] + _duhamel_u(half, lags, h_hat, dt_loc, i) for i in range(m + 1)]
        increments.append(weighted_norm([a - b for a, b in zip(nxt, current)]))
        current = nxt

    factors = [increments[k + 1] / increments[k] if increments[k] > 0 else 0.0
               for k in range(len(increments) - 1)]
    split = evolve(replace(config, t_max=window_T, sample_stride=m, keep_fields=True))
    mismatch = float(np.max(np.abs(current[-1] - split.u_samples[-1])))
    return {
        "contraction_factor": max(factors) if factors else 0.0,
        "mismatch_linf": mismatch,
        "first_correction": increments[0],
    }


# -- data construction ------------------------------------------------


def a_norm(state):
    """Data-space norm: |phi|_{H^{1+[n/2]}} + |phi|_{L1} + |psi|_{H^{[n/2]}} + |psi|_{L1}."""
    n = state.spec.dimension
    k_phi = 1 + n // 2
    k_psi = n // 2
    return (sobolev_norm(state.u, k_phi) + lp_norm(state.u, 1)
            + sobolev_norm(state.v, k_psi) + lp_norm(state.v, 1))


def make_data(spec, shape="gaussian", amplitude=1.0, width=1.0, center=0.0):
    """Gaussian-type Cauchy data (0, psi) normalized so the data norm equals amplitude.

    shape 'gaussian' has positive mean; 'dgaussian' (first derivative
    along x) integrates to zero.
    """
    if shape not in ("gaussian", "dgaussian"):
        raise ValueError(f"unknown data shape {shape!r}")
    for name, value in (("amplitude", amplitude), ("center", center)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not 0 < width < math.inf:
        raise ValueError(f"width must be positive and finite, got {width}")

    def bump(*coords):
        r_sq = sum((c - center) ** 2 for c in coords)
        g = np.exp(-r_sq / width ** 2)
        if shape == "dgaussian":
            g = -2.0 * (coords[0] - center) / width ** 2 * g
        return g

    state = WaveState(0.0, GridField.zeros(spec), GridField.from_function(spec, bump))
    norm = a_norm(state)
    if norm == 0.0:
        raise GridError("data bump vanished on the grid; refine the resolution")
    scale = amplitude / norm
    return WaveState(0.0, GridField(spec, state.u.values * scale),
                     GridField(spec, state.v.values * scale))


_TORUS_MARGIN = 2.0  # free length kept between the spreading data and the boundary


def check_torus_size(spec, t_max, data_radius):
    """Wrap-around guard: unit speed propagation must not reach the boundary."""
    needed = data_radius + t_max + _TORUS_MARGIN
    if not spec.half_length >= needed:
        raise GridError(
            f"half_length {spec.half_length} too small: need >= {needed} "
            f"(data radius {data_radius} + horizon {t_max} + margin {_TORUS_MARGIN})")
