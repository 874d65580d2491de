"""Compactly supported space-time weights and the averaged blow-up chain.

The weight is psi_R(t,x) = eta((|x|^2 + t)/R)^{n+2} built from a smooth
step eta that is 1 on [0, 1/2], 0 on [1, inf).  Its companion
eta*(s) = eta(s) 1_{s >= 1/2} carries the annular part.  Integrating the
forcing density h(|u|) = |u|^{1+2/n} mu(|u|) against these weights gives
the functionals

    I_R  = int_{Q_R} h(|u|) psi_R,      Q_R = [0,R] x {|x| <= sqrt(R)}
    y(r) = int_{Q_R} h(|u|) psi*_r,     Y(R) = int_0^R y(r) dr / r

linked by an exact order-of-integration identity (the kernel K below),
the elementary bound Y(R) <= log(2) I_R, a calibrated pointwise bound on
the wave operator applied to psi_R, and a generalized Jensen inequality.
Together these yield a computable criterion: if the forcing is strong
enough that a measured Y(R0) makes the running integral of
mu(c2 r^{-n/2}) dr/r exceed a fixed budget, no global solution is
compatible with the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .modulus import Verdict, classify_dini, shell_integrals

__all__ = [
    "eta",
    "eta_d1",
    "eta_d2",
    "eta_star",
    "psi_weights",
    "weight_bound_constant",
    "wave_operator_on_weight",
    "functional_ir",
    "functional_y",
    "functional_y_exchanged",
    "kernel_k",
    "jensen_check",
    "blowup_certificate",
    "CertificateReport",
]


# -- the smooth step --------------------------------------------------


def _flat(tau):
    """exp(-1/tau) extended by 0 to tau <= 0; smooth on all of R."""
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    pos = tau > 0
    out[pos] = np.exp(-1.0 / tau[pos])
    return out


def _flat_d1(tau):
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    pos = tau > 0
    t = tau[pos]
    out[pos] = np.exp(-1.0 / t) / t ** 2
    return out


def _flat_d2(tau):
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    pos = tau > 0
    t = tau[pos]
    out[pos] = np.exp(-1.0 / t) * (1.0 / t ** 4 - 2.0 / t ** 3)
    return out


def _pieces(s):
    """g1 = flat(1-s), g2 = flat(s-1/2) and their s-derivatives."""
    g1 = _flat(1.0 - s)
    g2 = _flat(s - 0.5)
    d1 = -_flat_d1(1.0 - s)
    d2 = _flat_d1(s - 0.5)
    dd1 = _flat_d2(1.0 - s)
    dd2 = _flat_d2(s - 0.5)
    return g1, g2, d1, d2, dd1, dd2


def eta(s):
    """Smooth step: 1 on [0, 1/2], strictly decreasing on (1/2, 1), 0 beyond."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.where(s <= 0.5, 1.0, 0.0)
    mid = (s > 0.5) & (s < 1.0)
    if mid.any():
        g1, g2, *_ = _pieces(s[mid])
        out[mid] = g1 / (g1 + g2)
    return out[0] if scalar else out


def eta_d1(s):
    """First derivative of the smooth step (vanishes outside (1/2, 1))."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    mid = (s > 0.5) & (s < 1.0)
    if mid.any():
        g1, g2, d1, d2, _, _ = _pieces(s[mid])
        out[mid] = (d1 * g2 - g1 * d2) / (g1 + g2) ** 2
    return out[0] if scalar else out


def eta_d2(s):
    """Second derivative of the smooth step."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.zeros_like(s)
    mid = (s > 0.5) & (s < 1.0)
    if mid.any():
        g1, g2, d1, d2, dd1, dd2 = _pieces(s[mid])
        num = d1 * g2 - g1 * d2
        dnum = dd1 * g2 - g1 * dd2
        den = g1 + g2
        out[mid] = dnum / den ** 2 - 2.0 * num * (d1 + d2) / den ** 3
    return out[0] if scalar else out


def eta_star(s):
    """Annular companion: 0 on [0, 1/2), eta(s) from 1/2 on."""
    s = np.asarray(s, dtype=float)
    return np.where(s < 0.5, 0.0, eta(s))


def psi_weights(q, big_r, dimension):
    """(psi_R, psi*_R) at parabolic coordinate q = |x|^2 + t."""
    z = np.asarray(q, dtype=float) / big_r
    power = dimension + 2
    return eta(z) ** power, eta_star(z) ** power


# -- pointwise bound on the wave operator applied to the weight --------


def wave_operator_on_weight(t, x_sq, big_r, dimension):
    """(d_t^2 - Delta - d_t) psi_R at the given points.

    With z = (|x|^2 + t)/R and B = (n+1) eta^n eta'^2 + eta^{n+1} eta''
    the exact value is

        (n+2)/R * ( B * (1 - 4|x|^2)/R - (2n+1) eta^{n+1} eta' ).
    """
    n = dimension
    z = (np.asarray(x_sq, dtype=float) + np.asarray(t, dtype=float)) / big_r
    e, e1, e2 = eta(z), eta_d1(z), eta_d2(z)
    bulk = (n + 1) * e ** n * e1 ** 2 + e ** (n + 1) * e2
    drift = (2 * n + 1) * e ** (n + 1) * e1
    return (n + 2) / big_r * (bulk * (1.0 - 4.0 * np.asarray(x_sq)) / big_r - drift)


def weight_bound_constant(dimension, r0, grid_size=4001):
    """Smallest C we can certify for the pointwise estimate

        |(d_t^2 - Delta - d_t) psi_R| <= (C/R) (psi*_R)^{n/(n+2)}

    valid for every R >= r0 and every point of the support.  The left
    side is linear in alpha = (1 - 4|x|^2)/R which, for fixed z, ranges
    over [-4z, 1/r0]; the maximum over a linear function sits at an
    endpoint, so scanning z with both endpoint values calibrates C.
    """
    if not 0 < r0 < math.inf:
        raise ValueError(f"r0 must be positive and finite, got {r0}")
    n = dimension
    z = np.linspace(0.5, 1.0, grid_size)[1:-1]
    e, e1, e2 = eta(z), eta_d1(z), eta_d2(z)
    bulk = (n + 1) * e ** n * e1 ** 2 + e ** (n + 1) * e2
    drift = (2 * n + 1) * e ** (n + 1) * e1
    scale = e ** n  # (psi*)^{n/(n+2)} on the annulus
    ok = scale > 1e-250
    lo = np.abs(bulk * (-4.0 * z) - drift)[ok] / scale[ok]
    hi = np.abs(bulk / r0 - drift)[ok] / scale[ok]
    return float((n + 2) * max(lo.max(), hi.max()))


# -- trajectory functionals -------------------------------------------


def _space_q(spec):
    coords = spec.meshgrid()
    return sum(c ** 2 for c in coords)


def _forcing_samples(trajectory, nonlinearity, horizon):
    """(times, list of h(|u|) arrays) for samples with t <= horizon."""
    if not trajectory.u_samples:
        raise ValueError("trajectory carries no stored fields")
    times = trajectory.times
    if times[-1] < horizon - 1e-9:
        raise ValueError(
            f"trajectory ends at t={times[-1]:g} before the horizon {horizon:g}")
    keep = np.nonzero(times <= horizon + 1e-12)[0]
    dens = [nonlinearity.h_eval(np.abs(trajectory.u_samples[i])) for i in keep]
    return times[keep], dens


def _time_trapezoid(times, values):
    return float(np.trapezoid(values, times)) if len(times) > 1 else 0.0


def functional_ir(trajectory, nonlinearity, big_r):
    """I_R: the forcing density integrated against psi_R over Q_R."""
    spec = trajectory.spec
    q_space = _space_q(spec)
    times, dens = _forcing_samples(trajectory, nonlinearity, big_r)
    power = spec.dimension + 2
    slices = [float(np.sum(d * eta((q_space + t) / big_r) ** power)) * spec.cell
              for t, d in zip(times, dens)]
    return _time_trapezoid(times, np.asarray(slices))


def kernel_k(z, dimension):
    """K(z) = int_z^inf eta*(s)^{n+2} ds / s  (constant below 1/2, 0 past 1)."""
    z = float(z)
    if z >= 1.0:
        return 0.0
    lo = max(z, 0.5)
    val, _ = quad(lambda s: eta_star(s) ** (dimension + 2) / s, lo, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    return val


def _log_trapezoid_weights(r_grid):
    """Trapezoid weights for int f(r) dr/r on an increasing positive grid."""
    x = np.log(np.asarray(r_grid, dtype=float))
    if x.ndim != 1 or len(x) < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("r_grid must be increasing with at least two entries")
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def functional_y(trajectory, nonlinearity, r_grid):
    """y(r) on an increasing grid and Y by log-spaced trapezoid cumulation.

    Returns r grid, y values, the cumulative Y(r) along the grid, and the
    final Y.  The grid should start low enough that y(r_grid[0]) = 0 --
    then the truncated integral int_0^R y dr/r loses nothing.
    """
    spec = trajectory.spec
    q_space = _space_q(spec)
    times, dens = _forcing_samples(trajectory, nonlinearity, r_grid[-1])
    power = spec.dimension + 2
    y = np.empty(len(r_grid))
    for k, r in enumerate(r_grid):
        slices = [float(np.sum(d * eta_star((q_space + t) / r) ** power)) * spec.cell
                  for t, d in zip(times, dens)]
        y[k] = _time_trapezoid(times, np.asarray(slices))
    x = np.log(np.asarray(r_grid, dtype=float))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
    return {"r": np.asarray(r_grid, dtype=float), "y": y,
            "Y_cum": cum, "Y": float(cum[-1])}


def functional_y_exchanged(trajectory, nonlinearity, r_grid):
    """The same discrete double sum with the integration order swapped.

    The r-sum is folded into a per-point kernel weight first, then the
    space-time quadrature is applied -- an independently coded path whose
    agreement with `functional_y` validates the order exchange.
    """
    spec = trajectory.spec
    q_space = _space_q(spec).ravel()
    times, dens = _forcing_samples(trajectory, nonlinearity, r_grid[-1])
    power = spec.dimension + 2
    r = np.asarray(r_grid, dtype=float)
    w = _log_trapezoid_weights(r)
    slices = np.empty(len(times))
    for i, (t, d) in enumerate(zip(times, dens)):
        kernel = eta_star((q_space[:, None] + t) / r[None, :]) ** power @ w
        slices[i] = float(np.sum(d.ravel() * kernel)) * spec.cell
    return _time_trapezoid(times, slices)


# -- generalized Jensen inequality ------------------------------------


def jensen_check(phi, values, weights):
    """Slack of  phi(weighted mean) <= weighted mean of phi  (>= 0 if convex).

    weights must be non-negative with positive sum; values non-negative.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive total")
    if np.any(values < 0):
        raise ValueError("values must be non-negative")
    total = weights.sum()
    mean = float(np.sum(values * weights) / total)
    lhs = float(phi(mean))
    rhs = float(np.sum(phi(values) * weights) / total)
    return rhs - lhs


# -- the computable blow-up criterion ---------------------------------


@dataclass
class CertificateReport:
    """Outcome of driving the averaged chain to its contradiction."""

    r0: float
    constant: float
    y_r0: float
    c2: float
    budget: float
    lhs_final: float
    r_final: float
    crossing_r: float
    certified: bool
    witness_in_principle: bool
    verdict: str


def blowup_certificate(modulus, dimension, y_r0, constant, r0,
                       r_max=1e300, shells_per_decade=8):
    """Drive the running integral of mu(c2 r^{-n/2}) dr/r against its budget.

    From the measured functional value Y(R0) = y_r0 and the calibrated
    weight constant C the averaged chain yields, for every R >= R0,

        int_{R0}^{R} mu(c2 r^{-n/2}) dr/r  <=  budget,
        c2 = Y(R0) / (C^2 log 2),
        budget = (C n / 2) (C^2 log 2)^{(n+2)/n} / Y(R0)^{2/n},

    provided a global solution exists.  If the left side crosses the
    budget at a finite R the configuration is incompatible with global
    existence.  The integral accumulates in x = log r (the integrand
    through the stable log form of mu) over geometric shells up to
    r_max, all integrated in one `shell_integrals` pass and summed up to
    the first shell that ends over budget.  When the running value is
    still below budget at r_max but the integrand's improper integral
    diverges, a witness radius exists in principle beyond the scanned
    range and the report says so.
    """
    if not y_r0 > 0:
        raise ValueError("measured functional must be positive")
    if not 0 < r0 < r_max < math.inf:
        raise ValueError(f"need 0 < r0 < r_max < inf, got r0={r0}, r_max={r_max}")
    if not 0 < shells_per_decade < math.inf:
        raise ValueError(f"shells_per_decade must be positive and finite, got {shells_per_decade}")
    n = dimension
    c2 = y_r0 / (constant ** 2 * math.log(2.0))
    budget = (constant * n / 2.0) * (constant ** 2 * math.log(2.0)) ** ((n + 2.0) / n) \
        / y_r0 ** (2.0 / n)
    ln_c2 = math.log(c2)

    def integrand(x):
        # mu(c2 e^{-(n/2)x}) = mu(e^{-((n/2)x - ln c2)})
        return modulus.eval_neglog((n / 2.0) * x - ln_c2)

    x_end = math.log(r_max)
    step = math.log(10.0) / shells_per_decade
    edges = [math.log(r0)]
    while edges[-1] < x_end:
        edges.append(min(edges[-1] + step, x_end))
    running = np.cumsum(shell_integrals(integrand, edges[:-1], edges[1:],
                                        epsabs=1e-14, epsrel=1e-10))
    over = np.flatnonzero(running > budget)
    certified = over.size > 0
    # the scan stops at the upper edge of the first shell over budget
    last = int(over[0]) if certified else len(running) - 1
    total, x = float(running[last]), edges[last + 1]
    crossing = math.exp(x) if certified else math.inf
    if certified:
        verdict, witness = "witness-observed", True
    else:
        label = classify_dini(modulus).dini_verdict
        if label is Verdict.DIVERGENT:
            verdict, witness = "witness-beyond-range", True
        elif label is Verdict.CONVERGENT:
            verdict, witness = "bounded-no-witness", False
        else:
            verdict, witness = "inconclusive", False
    return CertificateReport(
        r0=r0, constant=constant, y_r0=y_r0, c2=c2, budget=budget,
        lhs_final=total, r_final=math.exp(min(x, 700.0)), crossing_r=crossing,
        certified=certified, witness_in_principle=witness, verdict=verdict)
