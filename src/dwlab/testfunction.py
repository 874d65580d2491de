"""Compactly supported space-time weights and the averaged blow-up chain.

The weight is psi_R(t,x) = eta((|x|^2 + t)/R)^{n+2} built from a smooth
step eta that is 1 on [0, 1/2], 0 on [1, inf).  Its companion
eta*(s) = eta(s) 1_{s >= 1/2} carries the annular part.  Integrating the
forcing density h(|u|) = |u|^{1+2/n} mu(|u|) against these weights gives
the functionals

    I_R  = int_{Q_R} h(|u|) psi_R,      Q_R = [0,R] x {|x| <= sqrt(R)}
    y(r) = int_{Q_R} h(|u|) psi*_r,     Y(R) = int_0^R y(r) dr / r

linked by an exact order-of-integration identity through the kernel
K(z) = int_z^inf eta*(s)^{n+2} ds/s,
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

from .modulus import Verdict, classify_dini, shell_integrals

__all__ = [
    "eta",
    "eta_star",
    "psi_weights",
    "weight_bound_constant",
    "wave_operator_on_weight",
    "functional_ir",
    "functional_y",
    "functional_y_exchanged",
    "jensen_check",
    "blowup_certificate",
    "CertificateReport",
]


# -- the smooth step --------------------------------------------------


def eta(s):
    """Smooth step: 1 on [0, 1/2], strictly decreasing on (1/2, 1), 0 beyond."""
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    out = np.where(s <= 0.5, 1.0, 0.0)
    mid = (s > 0.5) & (s < 1.0)
    if mid.any():
        g1, g2 = np.exp(-1.0 / (1.0 - s[mid])), np.exp(-1.0 / (s[mid] - 0.5))
        out[mid] = g1 / (g1 + g2)
    return out[0] if scalar else out


def _eta_jet(s):
    """(eta, eta', eta'') at s; both derivatives vanish outside (1/2, 1).

    On (1/2, 1) eta = g1 / (g1 + g2) with g1 = f(1 - s), g2 = f(s - 1/2)
    and f(t) = exp(-1/t), f' = f / t^2, f'' = f (1/t^4 - 2/t^3).
    """
    s = np.asarray(s, dtype=float)
    d1, d2 = np.zeros_like(s), np.zeros_like(s)
    mid = (s > 0.5) & (s < 1.0)
    if mid.any():
        t1, t2 = 1.0 - s[mid], s[mid] - 0.5
        g1, g2 = np.exp(-1.0 / t1), np.exp(-1.0 / t2)
        dg1, dg2 = -(g1 / t1 ** 2), g2 / t2 ** 2
        ddg1 = g1 * (1.0 / t1 ** 4 - 2.0 / t1 ** 3)
        ddg2 = g2 * (1.0 / t2 ** 4 - 2.0 / t2 ** 3)
        num = dg1 * g2 - g1 * dg2
        den = g1 + g2
        d1[mid] = num / den ** 2
        d2[mid] = (ddg1 * g2 - g1 * ddg2) / den ** 2 - 2.0 * num * (dg1 + dg2) / den ** 3
    return eta(s), d1, d2


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
    _, bulk, drift = _weight_terms(z, n)
    return (n + 2) / big_r * (bulk * (1.0 - 4.0 * np.asarray(x_sq)) / big_r - drift)


def _weight_terms(z, n):
    """(eta, B, (2n+1) eta^{n+1} eta') at z, B as in `wave_operator_on_weight`."""
    e, e1, e2 = _eta_jet(z)
    bulk = (n + 1) * e ** n * e1 ** 2 + e ** (n + 1) * e2
    return e, bulk, (2 * n + 1) * e ** (n + 1) * e1


_WEIGHT_GRID = 4001  # z samples on [1/2, 1] that calibrate weight_bound_constant
_SHELLS_PER_DECADE = 8  # geometric shells per decade of r in blowup_certificate's scan


def weight_bound_constant(dimension, r0):
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
    z = np.linspace(0.5, 1.0, _WEIGHT_GRID)[1:-1]
    e, bulk, drift = _weight_terms(z, n)
    scale = e ** n  # (psi*)^{n/(n+2)} on the annulus
    ok = scale > 1e-250
    lo = np.abs(bulk * (-4.0 * z) - drift)[ok] / scale[ok]
    hi = np.abs(bulk / r0 - drift)[ok] / scale[ok]
    return float((n + 2) * max(lo.max(), hi.max()))


# -- trajectory functionals -------------------------------------------
#
# psi_R and psi*_r vanish wherever q + t >= r (q = |x|^2, t >= 0), so the
# sums below only touch grid points with q < r.  Skipped terms are exactly
# zero: q >= r gives (q + t)/r >= 1 in IEEE arithmetic, where eta is 0.


def _space_q(spec):
    """|x|^2 at every grid point, flattened in grid order."""
    return sum(c ** 2 for c in spec.meshgrid()).ravel()


def _support_slices(spec, radii):
    """q sorted ascending, the flat grid index of each sorted entry and, per
    radius r, the number of points with q < r (the support slice q[:hi])."""
    q = _space_q(spec)
    order = np.argsort(q, kind="stable")
    q = q[order]
    return q, order, np.searchsorted(q, radii)


def _forcing_samples(trajectory, nonlinearity, horizon, points):
    """(times, h(|u|)) for the samples with t <= horizon, h taken only at the
    flat grid indices ``points``: one (samples x points) array."""
    if not trajectory.u_samples:
        raise ValueError("trajectory carries no stored fields")
    times = trajectory.times
    if times[0] < 0:
        raise ValueError(f"trajectory starts at t={times[0]:g} < 0")
    if times[-1] < horizon - 1e-9:
        raise ValueError(
            f"trajectory ends at t={times[-1]:g} before the horizon {horizon:g}")
    keep = np.nonzero(times <= horizon + 1e-12)[0]
    u = np.stack([np.take(trajectory.u_samples[i], points) for i in keep])
    return times[keep], nonlinearity.h_eval(np.abs(u))


def _radius_grid(r_grid):
    """r_grid as floats, checked: 1-d, finite, positive, strictly increasing."""
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or len(r) < 2 or not np.all(np.isfinite(r)) or r[0] <= 0 \
            or np.any(np.diff(r) <= 0):
        raise ValueError("r_grid must be a 1-d, finite, positive, strictly increasing "
                         "grid with at least two entries")
    return r


def functional_ir(trajectory, nonlinearity, big_r):
    """I_R: the forcing density integrated against psi_R over Q_R."""
    if not 0 < big_r < math.inf:
        raise ValueError(f"R must be positive and finite, got {big_r}")
    spec = trajectory.spec
    q, order, hi = _support_slices(spec, big_r)
    times, dens = _forcing_samples(trajectory, nonlinearity, big_r, order[:hi])
    weight = eta((q[:hi] + times[:, None]) / big_r) ** (spec.dimension + 2)
    return float(np.trapezoid(np.sum(dens * weight, axis=1) * spec.cell, times))


def _log_trapezoid_weights(r):
    """Trapezoid weights for int f(r) dr/r on a checked radius grid."""
    x = np.log(r)
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
    r = _radius_grid(r_grid)
    spec = trajectory.spec
    q, order, hi = _support_slices(spec, r)
    times, dens = _forcing_samples(trajectory, nonlinearity, r[-1], order[:hi[-1]])
    # samples with t >= r lie outside the support as well
    late = np.searchsorted(times, r)
    power = spec.dimension + 2
    y = np.empty(len(r))
    for k, (rk, m, n) in enumerate(zip(r, late, hi)):
        slices = np.zeros(len(times))
        weight = eta_star((q[:n] + times[:m, None]) / rk) ** power
        slices[:m] = np.sum(dens[:m, :n] * weight, axis=1) * spec.cell
        y[k] = np.trapezoid(slices, times)
    x = np.log(r)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])
    return {"r": r, "y": y, "Y_cum": cum, "Y": float(cum[-1])}


def functional_y_exchanged(trajectory, nonlinearity, r_grid):
    """The same discrete double sum with the integration order swapped.

    The r-sum is folded into a per-point kernel weight first, then the
    space-time quadrature is applied -- an independently coded path whose
    agreement with `functional_y` validates the order exchange.  It keeps
    the points with q < max r by a grid-order mask of its own, not by the
    sorted slices of `functional_y`, so the two can disagree.
    """
    r = _radius_grid(r_grid)
    w = _log_trapezoid_weights(r)
    spec = trajectory.spec
    q_space = _space_q(spec)
    inside = np.flatnonzero(q_space < r[-1])
    times, dens = _forcing_samples(trajectory, nonlinearity, r[-1], inside)
    q = q_space[inside]
    power = spec.dimension + 2
    slices = np.empty(len(times))
    for i, t in enumerate(times):
        kernel = eta_star((q[:, None] + t) / r[None, :]) ** power @ w
        slices[i] = float(np.sum(dens[i] * kernel)) * spec.cell
    return float(np.trapezoid(slices, times))


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
    """Outcome of driving the averaged chain to its contradiction: the
    running integral where the scan stopped, the radius where it crossed the
    budget (inf if it never did), and a `verdict` of "witness-observed",
    "witness-beyond-range", "bounded-no-witness" or "inconclusive" from which
    the two flags follow."""

    budget: float
    lhs_final: float
    crossing_r: float
    verdict: str

    @property
    def certified(self):
        """Whether the crossing was observed within the scanned range."""
        return self.verdict == "witness-observed"

    @property
    def witness_in_principle(self):
        """Whether a crossing radius exists, observed or beyond the range."""
        return self.verdict in ("witness-observed", "witness-beyond-range")


def blowup_certificate(modulus, dimension, y_r0, constant, r0, r_max=1e300):
    """Drive the running integral of mu(c2 r^{-n/2}) dr/r against its budget.

    From the measured functional value Y(R0) = y_r0 and the calibrated
    weight constant C the averaged chain yields, for every R >= R0,

        int_{R0}^{R} mu(c2 r^{-n/2}) dr/r  <=  budget,
        c2 = Y(R0) / (C^2 log 2),
        budget = (C n / 2) (C^2 log 2)^{(n+2)/n} / Y(R0)^{2/n},

    provided a global solution exists.  If the left side crosses the
    budget at a finite R the configuration is incompatible with global
    existence.  The integral accumulates in x = log r (the integrand
    through the stable log form of mu) over `_SHELLS_PER_DECADE` geometric
    shells a decade up to r_max, all integrated in one `shell_integrals`
    pass and summed up to the first shell that ends over budget.  When the
    running value is still below budget at r_max but the integrand's
    improper integral diverges, a witness radius exists in principle
    beyond the scanned range and the report says so.
    """
    if not y_r0 > 0:
        raise ValueError("measured functional must be positive")
    if not 0 < r0 < r_max < math.inf:
        raise ValueError(f"need 0 < r0 < r_max < inf, got r0={r0}, r_max={r_max}")
    n = dimension
    scale = constant ** 2 * math.log(2.0)
    # a tiny Y(R0) underflows c2 and Y(R0)^{2/n}, so ln c2 is formed from
    # logs and a budget past the double range is inf
    y_power = y_r0 ** (2.0 / n)
    budget = (constant * n / 2.0) * scale ** ((n + 2.0) / n) / y_power if y_power > 0 else math.inf
    ln_c2 = math.log(y_r0) - math.log(scale)

    def integrand(x):
        # mu(c2 e^{-(n/2)x}) = mu(e^{-((n/2)x - ln c2)})
        return modulus.eval_neglog((n / 2.0) * x - ln_c2)

    x_end = math.log(r_max)
    step = math.log(10.0) / _SHELLS_PER_DECADE
    edges = [math.log(r0)]
    while edges[-1] < x_end:  # a last shell under a millionth of a step joins the one before
        edges.append(edges[-1] + step if edges[-1] + step < x_end - 1e-6 * step else x_end)
    running = np.cumsum(shell_integrals(integrand, edges, epsabs=1e-14, epsrel=1e-10,
                                        breaks=(modulus._kinks + ln_c2) / (n / 2.0)))
    over = np.flatnonzero(running > budget)
    certified = over.size > 0
    # the scan stops at the upper edge of the first shell over budget
    last = int(over[0]) if certified else len(running) - 1
    crossing = math.exp(edges[last + 1]) if certified else math.inf
    verdict = "witness-observed" if certified else {
        Verdict.DIVERGENT: "witness-beyond-range", Verdict.CONVERGENT: "bounded-no-witness",
    }.get(classify_dini(modulus).dini_verdict, "inconclusive")
    return CertificateReport(budget=budget, lhs_final=float(running[last]),
                             crossing_r=crossing, verdict=verdict)
