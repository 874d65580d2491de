"""Moduli of continuity and the induced Fujita-type nonlinearity.

A modulus of continuity is a continuous, concave, increasing function
``mu`` with ``mu(0) = 0``.  The catalog implemented here covers the four
standard families

* ``power``    : mu(s) = s^p, p > 0
* ``logplus``  : mu(s) = log(1+s)^p, p > 0
* ``invlog``   : mu(s) = (log 1/s)^{-p} near 0
* ``iterlog``  : mu(s) = (log 1/s)^{-1} (log log 1/s)^{-1} ... (log^{d+1} 1/s)^{-p}

together with tabulated ``custom`` moduli.  The inverse-log families are
only defined by their formula on a small interval (0, s*]; beyond s* they
are continued linearly with matching value and slope, which keeps the
continuation concave and increasing.

The module also provides the induced nonlinearity
``h(s) = |s|^{1+2/n} mu(|s|)`` and numerical checkers for the structural
conditions that decide between global existence and blow-up:

* slow variation  : s^k |mu^(k)(s)| <= C mu(s)
* Dini integral   : convergence/divergence of int mu(1/s)/s ds
* convexity of h  : sign of the second-derivative bracket of h
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Kind",
    "Verdict",
    "Modulus",
    "ModulusError",
    "Nonlinearity",
    "PowerForcing",
    "DiniResult",
    "catalog_make",
    "parse_modulus_spec",
    "parse_forcing_spec",
    "load_custom_modulus",
    "check_slow_variation",
    "shell_integrals",
    "classify_dini",
    "check_h_convexity",
]


class Kind(str, Enum):
    POWER = "power"
    LOGPLUS = "logplus"
    INVLOG = "invlog"
    ITERLOG = "iterlog"
    CUSTOM = "custom"


class Verdict(str, Enum):
    CONVERGENT = "Convergent"
    DIVERGENT = "Divergent"
    INCONCLUSIVE = "Inconclusive"


class ModulusError(ValueError):
    """Raised for invalid modulus parameters or evaluations."""


def _nested_logs(w, depth):
    """Return [L_1, ..., L_depth] with L_1 = w and L_{j+1} = log L_j."""
    logs = [np.asarray(w, dtype=float)]
    for _ in range(depth - 1):
        logs.append(np.log(logs[-1]))
    return logs


@dataclass(frozen=True)
class Modulus:
    """A modulus of continuity with analytic derivatives.

    ``continuation_point`` is the point s* beyond which the linear
    continuation ``mu(s*) + mu'(s*) (s - s*)`` replaces the defining
    formula (``inf`` for families that need no continuation).
    """

    kind: Kind
    params: dict
    continuation_point: float
    analytic_dini_label: Verdict | None = None
    # tabulated data, custom kind only
    table_s: np.ndarray | None = field(default=None, repr=False)
    table_mu: np.ndarray | None = field(default=None, repr=False)

    # -- raw formula on (0, s*], without continuation ------------------

    def _raw(self, s):
        p = self.params.get("p")
        if self.kind is Kind.POWER:
            return s ** p
        if self.kind is Kind.LOGPLUS:
            return np.log1p(s) ** p
        if self.kind is Kind.CUSTOM:
            return np.interp(s, self.table_s, self.table_mu)
        return self._log_formula(-np.log(s))

    def _raw_deriv(self, s, k):
        """Analytic k-th derivative of the raw formula, k in {1, 2}."""
        p = self.params.get("p")
        if self.kind is Kind.POWER:
            if k == 1:
                return p * s ** (p - 1.0)
            return p * (p - 1.0) * s ** (p - 2.0)
        if self.kind is Kind.LOGPLUS:
            L = np.log1p(s)
            if k == 1:
                return p * L ** (p - 1.0) / (1.0 + s)
            return p * L ** (p - 2.0) * ((p - 1.0) - L) / (1.0 + s) ** 2
        if self.kind is Kind.CUSTOM:
            # piecewise linear: the slope of the segment holding s, at a knot
            # the left one, and no curvature
            if k == 2:
                return np.zeros_like(s, dtype=float)
            slopes = np.diff(self.table_mu) / np.diff(self.table_s)
            return slopes[np.searchsorted(self.table_s, s) - 1]
        return self._log_deriv(s, k)

    def _log_formula(self, w):
        """mu(exp(-w)) = L_1^{-1} ... L_d^{-1} L_{d+1}^{-p} for the log
        families, with L_1 = w and L_{j+1} = log L_j; invlog is depth 0."""
        logs = _nested_logs(w, self.params.get("depth", 0) + 1)
        out = logs[-1] ** (-self.params["p"])
        for lj in logs[:-1]:
            out = out / lj
        return out

    def _log_deriv(self, s, k):
        # Logarithmic-derivative recursion.  With L_1 = log(1/s),
        # L_{j+1} = log L_j and exponents c_j (1 except the last, p):
        #   mu'/mu = (1/s) sum_j c_j / P_j,        P_j = L_1 ... L_j
        #   mu''   = mu (g' + g^2),  g = mu'/mu.
        p = self.params["p"]
        depth = self.params.get("depth", 0)
        s = np.asarray(s, dtype=float)
        logs = _nested_logs(-np.log(s), depth + 1)
        coeffs = [1.0] * depth + [p]
        prods = []
        running = np.ones_like(logs[0])
        for lj in logs:
            running = running * lj
            prods.append(running.copy())
        S = sum(c / P for c, P in zip(coeffs, prods))
        if k == 1:
            return self._raw(s) * (S / s)
        # S' = (1/s) sum_j c_j (sum_{i<=j} 1/P_i) / P_j = inner / s, so
        # mu'' = mu (S^2 + inner - S) / s^2, with the one subtraction last
        inner = np.zeros_like(S)
        partial = np.zeros_like(S)
        for c, P in zip(coeffs, prods):
            partial = partial + 1.0 / P
            inner = inner + c * partial / P
        return self._raw(s) * ((S * S + inner) - S) / s ** 2

    @functools.cached_property
    def _continuation(self):
        """(mu(s*), mu'(s*)), the value and slope of the linear continuation,
        computed on first use and kept for the life of the modulus."""
        sst = self.continuation_point
        return self._raw(sst), self._raw_deriv(sst, 1)

    @functools.cached_property
    def _kinks(self):
        """w = log(1/s) at the kinks of mu(exp(-w)): a table's knots, or s* (-inf if none)."""
        if self.kind is Kind.CUSTOM:
            return -np.log(self.table_s[1:])
        return np.array([-math.log(self.continuation_point)])

    def _eval_nonneg(self, s):
        """mu on a float array s >= 0; a NaN argument gives NaN."""
        sst = self.continuation_point
        # every formula gives mu(0) = 0, the log families through log(0) = -inf
        with np.errstate(divide="ignore"):
            out = self._raw(np.minimum(s, sst))
        outer = s > sst
        if outer.any():
            mu_star, slope = self._continuation
            out = np.where(outer, mu_star + slope * (s - sst), out)
        return out

    # -- public evaluation --------------------------------------------

    def eval(self, s):
        """Evaluate mu(s) for s >= 0 (scalar or array); mu(0) = 0 and a NaN
        argument gives NaN."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if np.any(s < 0):
            raise ModulusError("modulus argument must be non-negative")
        out = self._eval_nonneg(s)
        return out[0] if scalar else out

    def __call__(self, s):
        return self.eval(s)

    def deriv(self, s, k):
        """Analytic k-th derivative, k in {1, 2}; only defined for s > 0."""
        if k not in (1, 2):
            raise ModulusError("derivative order must be 1 or 2")
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if np.any(s <= 0):
            raise ModulusError("derivatives are evaluated on s > 0 only")
        sst = self.continuation_point
        out = self._raw_deriv(np.minimum(s, sst), k)
        outer = s > sst
        if outer.any():
            out = np.where(outer, self._continuation[1] if k == 1 else 0.0, out)
        return out[0] if scalar else out

    def eval_neglog(self, w):
        """Evaluate mu(exp(-w)) without forming exp(-w).

        Needed for the Dini classifier, which probes arguments far below
        the smallest positive double.
        """
        w = np.asarray(w, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        p = self.params.get("p")
        if self.kind is Kind.POWER:
            out = np.exp(-p * w)
        elif self.kind in (Kind.LOGPLUS, Kind.CUSTOM):  # no deep formula, go through eval
            out = self.eval(np.exp(-w))
        else:  # the formula below s*, the continuation through eval above it
            out = np.empty_like(w)
            deep = w >= max(-math.log(self.continuation_point), 0.0)
            out[deep] = self._log_formula(w[deep])
            if not deep.all():
                out[~deep] = self.eval(np.exp(-w[~deep]))
        return out[0] if scalar else out


# -- catalog construction ---------------------------------------------


def _iterlog_continuation_w(p, depth):
    """Smallest safe w* = log(1/s*) for the iterated-log family.

    The defining formula must only be used where every nested logarithm
    is positive and the product is concave in s.  Both are located by a
    direct scan in w = log(1/s); w stays below 350 so s = exp(-w) never
    leaves the normal double range.
    """
    # innermost log >= 1/2 puts all shallower logs comfortably above 1
    w_lo = 0.5
    for _ in range(depth):
        w_lo = math.exp(w_lo)
    probe = Modulus(Kind.ITERLOG, {"p": p, "depth": depth}, continuation_point=1.0)
    grid_w = np.geomspace(w_lo, 350.0, 4000)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite d2 counts as bad
        d2 = probe._log_deriv(np.exp(-grid_w), 2)
    bad = grid_w[~(np.isfinite(d2) & (d2 <= 0.0))]
    if bad.size and bad[-1] > 300.0:
        raise ModulusError(f"no concave range found for iterlog p={p} depth={depth}")
    w_star = 1.05 * (bad[-1] if bad.size else w_lo)
    check = np.geomspace(w_star, 350.0, 2000)
    if not np.all(probe._log_deriv(np.exp(-check), 2) <= 0.0):
        raise ModulusError(f"concavity scan failed for iterlog p={p} depth={depth}")
    return w_star


def catalog_make(kind, p=None, depth=None):
    """Build a catalog modulus with its theoretical Dini label.

    Power and log-plus families are convergent for every p > 0; the
    inverse-log and iterated-log families are convergent for p > 1 and
    divergent for 0 < p <= 1.
    """
    kind = Kind(kind)
    if kind is Kind.CUSTOM:
        raise ModulusError("use load_custom_modulus for tabulated moduli")
    if p is None or not np.isfinite(p) or p <= 0:
        raise ModulusError(f"parameter p must be positive, got {p!r}")
    p = float(p)
    if kind is Kind.ITERLOG:
        # from depth 4 on, exp^(depth)(1/2) lies past the concavity scan's w = 350
        if depth not in (1, 2, 3):
            raise ModulusError(f"iterlog depth must be 1, 2 or 3, got {depth!r}")
        depth = int(depth)
    elif depth is not None:
        raise ModulusError(f"depth is only meaningful for iterlog, got {depth!r}")

    if kind in (Kind.POWER, Kind.LOGPLUS):
        return Modulus(kind, {"p": p}, continuation_point=np.inf,
                       analytic_dini_label=Verdict.CONVERGENT)
    label = Verdict.CONVERGENT if p > 1.0 else Verdict.DIVERGENT
    if kind is Kind.INVLOG:
        modulus = Modulus(kind, {"p": p}, continuation_point=math.exp(-max(2.0, p + 1.0)),
                          analytic_dini_label=label)
    else:
        modulus = Modulus(kind, {"p": p, "depth": depth},
                          continuation_point=math.exp(-_iterlog_continuation_w(p, depth)),
                          analytic_dini_label=label)
    # a subnormal mu(s*) has lost digits; at 0 the forcing and the slope vanish
    s_star, tiny = modulus.continuation_point, np.finfo(float).tiny
    mu_star = modulus._raw(s_star) if s_star >= tiny else 0.0
    if not mu_star >= tiny:
        raise ModulusError(f"{kind.value} p={p:g} is too large: mu(s*) = {mu_star:.3g} at "
                           f"s* = {s_star:.3g} is below the smallest normal double")
    return modulus


def load_custom_modulus(path):
    """Load a whitespace-separated two-column (s, mu) table.

    The table must be finite, start at (0, 0), be monotone, and be
    concave: its secant slopes may not increase (up to relative round-off
    in the tabulated values), as a modulus of continuity requires.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "no data", reported below
        data = np.loadtxt(path, dtype=float, ndmin=2)
    if data.shape[1] != 2 or len(data) < 2:
        raise ModulusError(f"custom modulus table must be at least two rows of two columns: {path}")
    if not np.all(np.isfinite(data)):
        raise ModulusError(f"custom modulus table has non-finite entries: {path}")
    s, mu = data[:, 0], data[:, 1]
    if s[0] != 0.0 or mu[0] != 0.0:
        raise ModulusError("custom modulus table must start at (0, 0)")
    if np.any(np.diff(s) <= 0) or np.any(np.diff(mu) < 0):
        raise ModulusError("custom modulus table must be strictly increasing in s, non-decreasing in mu")
    slopes = np.diff(mu) / np.diff(s)
    if np.any(np.diff(slopes) > 1e-9 * np.max(slopes)):
        raise ModulusError(f"custom modulus table is not concave (secant slopes increase): {path}")
    # mu(s) <= slope_1 s from (0, 0), so the Dini integral always converges
    return Modulus(Kind.CUSTOM, {}, continuation_point=float(s[-1]),
                   analytic_dini_label=Verdict.CONVERGENT, table_s=s, table_mu=mu)


def parse_modulus_spec(text):
    """Parse strings like ``power:p=1.0`` or ``iterlog:p=1.0,depth=2``."""
    try:
        kind_str, _, rest = text.partition(":")
        kind = Kind(kind_str.strip().lower())
    except ValueError as exc:
        raise ModulusError(f"unknown modulus kind in {text!r}") from exc
    if kind is Kind.CUSTOM:
        if not rest:
            raise ModulusError("custom modulus needs a table file: custom:<path>")
        return load_custom_modulus(rest)
    kwargs = _spec_params(text, rest, "<kind>:p=<number>[,depth=<integer>]", ("p", "depth"))
    return catalog_make(kind, **kwargs)


def _spec_params(text, rest, form, allowed, required=()):
    """The ``key=number`` pairs after the kind of a spec string, as floats."""
    error = ModulusError(f"bad spec {text!r}: expected {form}")
    params = {}
    for item in filter(None, (piece.strip() for piece in rest.split(","))):
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in allowed:
            raise error
        try:
            params[key] = float(value)
        except ValueError:
            raise error from None
    if not params.keys() >= set(required):
        raise error
    return params


def parse_forcing_spec(text, dimension):
    """Forcing from a spec string: ``oracle:q=Q`` is the pure power |s|^Q,
    any modulus spec gives h(s) = |s|^{1+2/n} mu(|s|)."""
    if text.startswith("oracle:"):
        params = _spec_params(text, text[len("oracle:"):], "oracle:q=<number>",
                              ("q",), required=("q",))
        return PowerForcing(params["q"])
    return Nonlinearity(parse_modulus_spec(text), dimension)


# -- nonlinearity -----------------------------------------------------


@dataclass(frozen=True)
class Nonlinearity:
    """h(s) = |s|^{1+2/n} mu(|s|) for space dimension n in {1, 2}."""

    modulus: Modulus
    dimension: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ModulusError(f"dimension must be 1 or 2, got {self.dimension}")

    @property
    def exponent(self):
        return 1.0 + 2.0 / self.dimension

    def h_eval(self, s):
        # |s| is never negative, so mu's kernel runs without eval's checks
        a = np.abs(np.asarray(s, dtype=float))
        return a ** self.exponent * self.modulus._eval_nonneg(a)


class PowerForcing:
    """Pure-power forcing h(s) = |s|^q, used as a blow-up engine oracle.

    Sub-Fujita exponents q < 1 + 2/n give reliably finite desk-scale
    blow-up times, which the modulus families near the threshold do not.
    """

    def __init__(self, q):
        if not 1.0 < q < math.inf:
            raise ModulusError(f"power forcing exponent must be finite and exceed 1, got {q}")
        self.exponent = float(q)

    def h_eval(self, s):
        return np.abs(np.asarray(s, dtype=float)) ** self.exponent


# -- condition checkers -----------------------------------------------


_CHECK_GRID = 400  # log-grid points of the slow-variation and convexity checks


def check_slow_variation(modulus):
    """Observed sup of s^k |mu^(k)(s)| / mu(s) over a log grid on
    [s0 1e-8, s0], s0 = min(s*, 0.1), as ``{1: sup for k=1, 2: sup for k=2}``."""
    s0 = min(modulus.continuation_point, 1e-1)
    s = np.geomspace(s0 * 1e-8, s0, _CHECK_GRID)
    mu = modulus.eval(s)
    if np.any(mu <= 0):
        raise ModulusError("mu vanishes at an interior grid point")
    return {k: float(np.max(s ** k * np.abs(modulus.deriv(s, k)) / mu)) for k in (1, 2)}


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21, Piessens et al. 1983):
# Kronrod abscissae on [0, 1] in decreasing order ending at the centre, their
# weights, and the weights of the embedded 10-point Gauss rule, whose nodes
# are the odd entries (0-based) of _XGK.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])


def shell_integrals(f, edges, epsabs, epsrel, breaks=()):
    """int f over every panel [edges[i], edges[i+1]], as quad(points=breaks) gives it.

    Each panel is split at the breaks inside it (QUADPACK's dqagpe), f is
    called once on the 21 Kronrod nodes of all pieces, and dqk21's rule is
    summed in its own order.  A piece is accepted when it passes dqagse's
    first-rule test, or when its estimate of int |f| is within epsabs (where
    exp(-w) is subnormal f is a staircase, whose error estimate saturates);
    any other piece raises ModulusError.
    """
    edges = np.asarray(edges, dtype=float)
    cuts = np.union1d(edges, [b for b in breaks if edges[0] < b < edges[-1]])
    lo, hi = cuts[:-1], cuts[1:]
    centre = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)
    absc = half[:, None] * _XGK[:10]
    nodes = np.hstack([centre - absc, centre + absc, centre])
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    left, right, fc = values[:, :10], values[:, 10:20], values[:, 20]
    eps = np.finfo(float).eps
    # a non-finite piece is refused below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resg = np.zeros_like(fc)
        resk = _WGK[10] * fc
        resabs = np.abs(resk)
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # Gauss pairs first
            pair = left[:, j] + right[:, j]
            if j % 2:
                resg = resg + _WG[j // 2] * pair
            resk = resk + _WGK[j] * pair
            resabs = resabs + _WGK[j] * (np.abs(left[:, j]) + np.abs(right[:, j]))
        mean = 0.5 * resk
        resasc = _WGK[10] * np.abs(fc - mean)
        for j in range(10):
            resasc = resasc + _WGK[j] * (np.abs(left[:, j] - mean) + np.abs(right[:, j] - mean))
        result = resk * half
        resabs = resabs * np.abs(half)
        resasc = resasc * np.abs(half)
        abserr = np.abs((resk - resg) * half)
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
        abserr = np.where((resasc != 0) & (abserr != 0), scaled, abserr)
        abserr = np.where(resabs > np.finfo(float).tiny / (50.0 * eps),
                          np.maximum(50.0 * eps * resabs, abserr), abserr)
        accept = ((((abserr <= np.maximum(epsabs, epsrel * np.abs(result))) & (abserr != resasc))
                   | (abserr == 0) | (resabs <= epsabs)) & np.isfinite(result))
    if not accept.all():
        i = np.flatnonzero(~accept)[0]
        raise ModulusError(f"quadrature refused the piece [{lo[i]:.17g}, {hi[i]:.17g}]: "
                           f"value {result[i]:.3g}, error estimate {abserr[i]:.3g}")
    return np.add.reduceat(result, np.searchsorted(cuts, edges[:-1]))


_DINI_SHELLS = 240  # dyadic shells of the Dini classifier
_DINI_BASE = 0.01  # the upper end a of the shallowest shell


def _dini_shells(modulus):
    """Dyadic-shell integrals S_k = int_{a 2^{-k-1}}^{a 2^{-k}} mu(t)/t dt,
    a = _DINI_BASE, k < _DINI_SHELLS.

    With t = exp(-w) each shell is int mu(exp(-w)) dw over a window of
    width log 2, which stays well-conditioned for arbitrarily deep shells.
    """
    w0 = -math.log(_DINI_BASE)
    ln2 = math.log(2.0)
    return shell_integrals(modulus.eval_neglog, w0 + np.arange(_DINI_SHELLS + 1) * ln2,
                           epsabs=1e-10, epsrel=1e-10, breaks=modulus._kinks), w0


def _dini_tail(modulus, w):
    """int_w^inf mu(exp(-v)) dv in closed form, for w past the continuation point;
    for the log families of depth d it is L_{d+1}(w)^{1-p}/(p-1), or inf if p <= 1."""
    p = modulus.params.get("p")
    if modulus.kind in (Kind.POWER, Kind.LOGPLUS):
        return math.exp(-p * w) / p  # log(1+e^-v)^p = e^-pv (1 + O(e^-v))
    if modulus.kind is Kind.CUSTOM:
        # int_0^x mu(s)/s ds, x = exp(-w): a linear piece mu = c_i + k_i s on
        # [s_i, s_{i+1}] adds k_i (s_{i+1} - s_i) + c_i log(s_{i+1}/s_i); c_0 = 0
        x = math.exp(-w)
        s = np.append(modulus.table_s[modulus.table_s < x], x)
        mu = modulus.eval(s)
        k = np.diff(mu) / np.diff(s)
        return float(mu[-1] + np.sum((mu[1:-1] - k[1:] * s[1:-1]) * np.log(s[2:] / s[1:-1])))
    last = _nested_logs(w, modulus.params.get("depth", 0) + 1)[-1]
    return float(last ** (1.0 - p) / (p - 1.0)) if p > 1.0 else math.inf


@dataclass(frozen=True)
class DiniResult:
    """The Dini classifier's verdict, the analytic label, the dyadic shell
    integrals and, for a convergent verdict, the whole integral: the shell
    sum plus the closed-form tail past the last shell (None if it diverges)."""

    dini_verdict: Verdict
    analytic_label: Verdict | None
    dini_partial_sums: np.ndarray = field(repr=False)
    total_estimate: float | None = None


def classify_dini(modulus):
    """Heuristic convergence test for int_{C0}^inf mu(1/s)/s ds.

    Shell contributions that decay geometrically mark convergence
    directly; otherwise the shells are fitted to the Bertrand-series
    model A w^{-c1} (log w)^{-c2} (log log w)^{-c3} (w the shell
    abscissa), whose series converges iff (c1, c2, c3) exceeds (1, 1, 1)
    lexicographically.  Boundary fits are classified divergent, matching
    the closed catalog; an Inconclusive verdict covers fit failures and
    moduli whose continuation point lies past the deepest shell.  The
    total is the shell sum plus mu's closed-form tail past the last shell.
    """
    S, w0 = _dini_shells(modulus)
    shells = len(S)

    def result(verdict, total=None):
        return DiniResult(verdict, modulus.analytic_dini_label, S, total)

    if modulus.continuation_point < _DINI_BASE * 2.0 ** -shells:
        # the deepest shell still lies in the linear continuation, so no
        # shell sees the defining formula
        return result(Verdict.INCONCLUSIVE)

    ln2 = math.log(2.0)
    tail = _dini_tail(modulus, w0 + shells * ln2)
    total = float(np.sum(S)) + tail if tail < math.inf else None
    # underflow plateau: mu already negligible, series trivially summable
    if not S[-1] > 1e-280:
        return result(Verdict.CONVERGENT, total)

    half = shells // 2
    ratios = S[half + 1:] / S[half:-1]
    med = float(np.median(ratios))
    if med < 0.9 and float(np.max(ratios)) < 0.95:
        return result(Verdict.CONVERGENT, total)
    if med > 1.0 + 1e-9:
        return result(Verdict.DIVERGENT)

    # Bertrand regime: ln S = ln A - c1 ln w - c2 ln ln w - c3 ln ln ln w
    w_fit = w0 + (np.arange(shells // 4, shells) + 0.5) * ln2
    y = np.log(S[shells // 4:])
    X = np.column_stack([np.ones_like(w_fit), np.log(w_fit),
                         np.log(np.log(w_fit)), np.log(np.log(np.log(w_fit)))])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    rms = float(np.sqrt(np.mean((y - X @ coef) ** 2)))
    c1, c2, c3 = (float(-v) for v in coef[1:])
    if not all(np.isfinite(v) for v in (c1, c2, c3)) or rms > 0.1:
        return result(Verdict.INCONCLUSIVE)  # the shell model does not fit
    # convergent iff (c1, c2, c3) exceeds (1, 1, 1) lexicographically, a
    # component within 0.1 of 1 counting as equal to it
    for c in (c1, c2, c3):
        if c > 1.1:
            return result(Verdict.CONVERGENT, total)
        if c < 0.9:
            break
    return result(Verdict.DIVERGENT)


def check_h_convexity(nonlinearity):
    """Minimum of the h'' bracket on a log grid on [s0 1e-6, s0], s0 = min(s*, 0.1).

    h''(s) = s^{2/n - 1} [ (2/n)(1+2/n) mu + 2 (1+2/n) s mu' + s^2 mu'' ];
    the bracket is evaluated directly so the singular prefactor cannot
    mask a sign change.
    """
    mu = nonlinearity.modulus
    s0 = min(mu.continuation_point, 1e-1)
    s = np.geomspace(s0 * 1e-6, s0, _CHECK_GRID)
    two_n = 2.0 / nonlinearity.dimension
    bracket = (two_n * (1.0 + two_n) * mu.eval(s)
               + 2.0 * (1.0 + two_n) * s * mu.deriv(s, 1)
               + s ** 2 * mu.deriv(s, 2))
    return float(np.min(bracket))
