"""Time integration of u_tt - Delta u + u_t = h(u) and blow-up detection.

The stepper is Strang splitting around the exact linear propagator:

    kick   v <- v + (dt/2) h(u)
    drift  exact linear flow over dt
    kick   v <- v + (dt/2) h(u)

which is second order and inherits the linear decay structure exactly
(h = 0 reduces to the exact flow); `step` drifts raw arrays through the
flow kernel that `dwlab.linear.propagate` wraps.  Blow-up is detected
operationally: |u| above `BLOWUP_THRESHOLD`, non-finite values, or the
step halving below `DT_MIN`.  True nonexistence is asymptotic and the
detected time is an upper proxy for the lifespan, not a sharp estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import GridError, GridField, WaveState, half_spectrum, hdot_norm, lp_norm, sobolev_norm
# propagate is unused here, but perfbench/selftest.py checks that its tracer patches this binding
from .linear import _flow, multipliers, propagate  # noqa: F401

__all__ = [
    "BLOWUP_THRESHOLD",
    "DT_MIN",
    "EvolveConfig",
    "Trajectory",
    "Outcome",
    "BlowupSignal",
    "step",
    "evolve",
    "xnorm_weight",
    "picard_verify",
    "a_norm",
    "make_data",
]


class BlowupSignal(RuntimeError):
    """Raised internally when a step produces non-finite values."""

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
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be a positive integer, got {self.sample_stride}")
        if self.data.spec != self.grid:
            raise ValueError("data grid does not match configured grid")


@dataclass
class Trajectory:
    """Sampled states plus per-sample norm diagnostics."""

    spec: "GridSpec"
    times: np.ndarray
    norms: dict
    xnorm_running: np.ndarray
    outcome: str
    t_est: float
    u_samples: list = field(default_factory=list)

    @property
    def xnorm(self):
        return float(self.xnorm_running[-1]) if len(self.xnorm_running) else 0.0


def step(state, h_u, dt, nonlinearity):
    """One Strang split step from `state`, whose forcing h(u) is `h_u`.

    Returns (new_state, h(new u)).  The caller passes the second back as
    the next step's `h_u` (first same as last), so a run evaluates h once
    per accepted step.  Raises BlowupSignal on non-finite output.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    spec = state.spec
    u, v = _flow(spec, state.u.values, state.v.values + 0.5 * dt * h_u, dt)
    h_new = nonlinearity.h_eval(u)
    v += 0.5 * dt * h_new
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise BlowupSignal(state.time)
    return WaveState(state.time + dt, GridField(spec, u), GridField(spec, v)), h_new


def xnorm_weight(t, dimension, norms):
    """The time-weighted sum tracked by the solution-space norm, from the
    norms "L2", "H1dot" (= |grad u|_{L2}) and "Linf" of u at time t:

    sum_{k=0,1} (1+t)^{(n+2k)/4} |grad^k u|_{L2} + (1+t)^{n/2} |u|_{Linf}.
    """
    n = dimension
    return ((1.0 + t) ** (n / 4.0) * norms["L2"]
            + (1.0 + t) ** ((n + 2.0) / 4.0) * norms["H1dot"]
            + (1.0 + t) ** (n / 2.0) * norms["Linf"])


def _xnorm_norms(u):
    """The norms of the field u that xnorm_weight combines."""
    return {"L2": lp_norm(u, 2), "Linf": lp_norm(u, np.inf), "H1dot": hdot_norm(u, 1)}


def _record(traj_norms, state, dimension):
    norms = {"L1": lp_norm(state.u, 1), **_xnorm_norms(state.u)}
    for key, value in norms.items():
        traj_norms[key].append(value)
    return xnorm_weight(state.time, dimension, norms)


def evolve(config):
    """Advance to the horizon or until blow-up is detected.

    The step halves whenever the sup norm more than doubles across one
    step (growth control near blow-up); a step below DT_MIN is reported
    as StepCollapse with the last reliable time.
    """
    n = config.grid.dimension
    state = config.data
    h_u = config.nonlinearity.h_eval(state.u.values)
    if not np.isfinite(h_u).all():
        raise ValueError("the forcing h(u) of the initial data is not finite")
    # max|u| + max|v| of the state stepped from, measured once per accepted step
    size = float(np.max(np.abs(state.u.values)) + np.max(np.abs(state.v.values)))
    dt = config.dt
    times = [state.time]
    norms = {key: [] for key in ("L1", "L2", "Linf", "H1dot")}
    xrun = [_record(norms, state, n)]
    u_samples = [state.u.values.copy()] if config.keep_fields else []
    sample_dt = config.dt * config.sample_stride
    next_sample = state.time + sample_dt
    outcome, t_est = Outcome.COMPLETED, math.inf

    while state.time < config.t_max - 1e-12:
        dt_step = min(dt, config.t_max - state.time, next_sample - state.time)
        try:
            candidate, h_candidate = step(state, h_u, dt_step, config.nonlinearity)
        except BlowupSignal:
            outcome, t_est = Outcome.BLEW_UP, state.time
            break
        sup_after = float(np.max(np.abs(candidate.u.values)))
        size_after = sup_after + float(np.max(np.abs(candidate.v.values)))
        if size_after > 2.0 * max(size, 1e-14) and dt_step > DT_MIN:
            dt = 0.5 * dt_step
            if dt < DT_MIN:
                outcome, t_est = Outcome.STEP_COLLAPSE, state.time
                break
            continue
        state, h_u, size = candidate, h_candidate, size_after
        if sup_after > BLOWUP_THRESHOLD:
            outcome, t_est = Outcome.BLEW_UP, state.time
            break
        if state.time >= next_sample - 1e-12 or state.time >= config.t_max - 1e-12:
            times.append(state.time)
            xrun.append(max(xrun[-1], _record(norms, state, n)))
            if config.keep_fields:
                u_samples.append(state.u.values.copy())
            while next_sample <= state.time + 1e-12:
                next_sample += sample_dt

    return Trajectory(
        spec=config.grid,
        times=np.asarray(times),
        norms={key: np.asarray(vals) for key, vals in norms.items()},
        xnorm_running=np.asarray(xrun),
        outcome=outcome,
        t_est=t_est,
        u_samples=u_samples,
    )


# -- Picard / Duhamel cross-validation --------------------------------


def _duhamel_u(half, K1_lags, h_hat_list, dt_loc, i):
    """u-component of int_0^{t_i} Phi(t_i - s) * h(u(s)) ds by trapezoid.

    K1_lags[k] is K1 at the lag t_k - t_0 of the uniform grid.
    """
    if i == 0:
        return np.zeros(half.spec.shape)
    acc = np.zeros_like(h_hat_list[0])
    for j in range(i + 1):
        w = 0.5 if j in (0, i) else 1.0
        acc += w * dt_loc * K1_lags[i - j] * h_hat_list[j]
    return half.inverse(acc)


def picard_verify(config, window_T=1.0, iterations=4):
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
    lags = [multipliers(half.xi_sq, t - t_grid[0])[:2] for t in t_grid]
    phi_hat, psi_hat = half.forward(data.u.values), half.forward(data.v.values)
    u_lin = [half.inverse(K0 * phi_hat + K1 * psi_hat) for K0, K1 in lags]
    K1_lags = [K1 for _, K1 in lags]

    def weighted_norm(diff_fields):
        return max(xnorm_weight(t, n, _xnorm_norms(GridField(spec, vals)))
                   for t, vals in zip(t_grid, diff_fields))

    current = [u.copy() for u in u_lin]
    increments = []
    for _ in range(iterations):
        h_hat = [half.forward(config.nonlinearity.h_eval(u)) for u in current]
        nxt = [u_lin[i] + _duhamel_u(half, K1_lags, h_hat, dt_loc, i) for i in range(m + 1)]
        increments.append(weighted_norm([a - b for a, b in zip(nxt, current)]))
        current = nxt

    factors = [increments[k + 1] / increments[k] if increments[k] > 0 else 0.0
               for k in range(len(increments) - 1)]
    split = evolve(replace(config, t_max=window_T, sample_stride=m, keep_fields=True))
    mismatch = float(np.max(np.abs(current[-1] - split.u_samples[-1])))
    return {
        "increments": increments,
        "contraction_factors": factors,
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


def make_data(spec, shape="gaussian", amplitude=1.0, width=1.0, center=0.0,
              component="psi"):
    """Gaussian-type Cauchy data normalized so the data norm equals amplitude.

    shape 'gaussian' has positive mean; 'dgaussian' (first derivative
    along x) integrates to zero.  The bump goes into phi or psi per
    `component`; the other field is zero.
    """
    if shape not in ("gaussian", "dgaussian"):
        raise ValueError(f"unknown data shape {shape!r}")
    if component not in ("phi", "psi"):
        raise ValueError(f"component must be phi or psi, got {component!r}")
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

    f = GridField.from_function(spec, bump)
    zero = GridField.zeros(spec)
    state = WaveState(0.0, f, zero) if component == "phi" else WaveState(0.0, zero, f)
    norm = a_norm(state)
    if norm == 0.0:
        raise GridError("data bump vanished on the grid; refine the resolution")
    scale = amplitude / norm
    return WaveState(0.0, GridField(spec, state.u.values * scale),
                     GridField(spec, state.v.values * scale))


def check_torus_size(spec, t_max, data_radius, margin=2.0):
    """Wrap-around guard: unit speed propagation must not reach the boundary."""
    needed = data_radius + t_max + margin
    if not spec.half_length >= needed:
        raise GridError(
            f"half_length {spec.half_length} too small: need >= {needed} "
            f"(data radius {data_radius} + horizon {t_max} + margin {margin})")
