"""Uniform periodic grids, spectral calculus and norms in 1 and 2 dimensions.

The torus [-L, L)^n stands in for R^n; runs choose L large enough that
nothing reaches the boundary within the simulated horizon (the damped
wave equation has unit propagation speed).  Norms are Riemann sums with
cell weight dx^n, which is spectrally accurate for smooth periodic data.

Fields are real, so every spectral computation runs on the rfftn
half-spectrum of its grid (`half_spectrum(spec)`): the spectral norms,
the gradient and, in `dwlab.linear`, the exact linear flow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "GridField",
    "WaveState",
    "GridError",
    "HalfSpectrum",
    "half_spectrum",
    "lp_norm",
    "spectral_gradient",
    "sobolev_norm",
    "hdot_norm",
    "gn_check",
]


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^n with N points per axis."""

    dimension: int
    half_length: float
    points: int

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise GridError(f"dimension must be 1 or 2, got {self.dimension}")
        if not 0 < self.half_length < math.inf:
            raise GridError(f"half_length must be positive and finite, got {self.half_length}")
        n = self.points
        if n < 16 or n & (n - 1):
            raise GridError(f"points must be a power of two >= 16, got {n}")

    @property
    def dx(self):
        return 2.0 * self.half_length / self.points

    @property
    def cell(self):
        return self.dx ** self.dimension

    @property
    def shape(self):
        return (self.points,) * self.dimension

    def axis(self):
        return -self.half_length + self.dx * np.arange(self.points)

    def meshgrid(self):
        if self.dimension == 1:
            return (self.axis(),)
        x = self.axis()
        return np.meshgrid(x, x, indexing="ij")

    def wavenumber_sq(self):
        """|xi|^2 on the full FFT grid."""
        return sum(k ** 2 for k in self._axis_wavenumbers(np.fft.fftfreq))

    def _axis_wavenumbers(self, last_freq):
        """Radian wavenumbers per axis, shaped to broadcast: FFT order on the
        leading axis of a 2-d grid, `last_freq` (fftfreq or rfftfreq) on the last."""
        k_last = 2.0 * np.pi * last_freq(self.points, d=self.dx)
        if self.dimension == 1:
            return (k_last,)
        return (2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)[:, None], k_last[None, :])


@dataclass
class GridField:
    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.spec.shape:
            raise GridError(f"values shape {self.values.shape} != grid shape {self.spec.shape}")

    @classmethod
    def from_function(cls, spec, fn):
        return cls(spec, fn(*spec.meshgrid()))

    @classmethod
    def zeros(cls, spec):
        return cls(spec, np.zeros(spec.shape))

    def copy(self):
        return GridField(self.spec, self.values.copy())

    def is_finite(self):
        return bool(np.all(np.isfinite(self.values)))


@dataclass
class WaveState:
    """Cauchy data pair (u, u_t) at a common time."""

    time: float
    u: GridField
    v: GridField

    def __post_init__(self):
        if self.u.spec != self.v.spec:
            raise GridError("u and v must share a grid")
        if self.time < 0:
            raise GridError("time must be non-negative")

    @property
    def spec(self):
        return self.u.spec

    def copy(self):
        return WaveState(self.time, self.u.copy(), self.v.copy())


# -- the half-spectrum and norms ---------------------------------------


class HalfSpectrum:
    """The rfftn layout of one grid: |xi|^2, the real transform pair and the
    Parseval sum.  Its column weights on the last axis are 1 for the DC and
    Nyquist columns and 2 for the others, which also stand for their complex-
    conjugate partners.  Get one per grid from `half_spectrum(spec)`."""

    def __init__(self, spec):
        self.spec = spec
        self.axes = tuple(range(spec.dimension))
        k_axes = spec._axis_wavenumbers(np.fft.rfftfreq)
        self.xi_sq = sum(k ** 2 for k in k_axes)
        self.weights = np.full(spec.points // 2 + 1, 2.0)
        self.weights[[0, -1]] = 1.0
        # d/dx_i is i k_i with the Nyquist mode, the largest |k_i|, zeroed
        self.gradient_wavenumbers = tuple(np.where(np.abs(k) == np.abs(k).max(), 0.0, k)
                                          for k in k_axes)
        for array in (self.xi_sq, self.weights, *self.gradient_wavenumbers):
            array.flags.writeable = False  # shared by every user of the grid

    def forward(self, values):
        return np.fft.rfftn(values, axes=self.axes)

    def inverse(self, coeffs):
        return np.fft.irfftn(coeffs, s=self.spec.shape, axes=self.axes)

    def parseval(self, coeffs, weight=1.0):
        """Full-spectrum sum of |coeffs|^2 * weight, scaled so that weight 1
        gives the squared L2 norm (cell weights dx^n) of the field."""
        power = (coeffs.real ** 2 + coeffs.imag ** 2) * weight
        spec = self.spec
        return float(np.sum(power @ self.weights)) * spec.cell / spec.points ** spec.dimension


@functools.lru_cache(maxsize=4)
def half_spectrum(spec):
    """The shared `HalfSpectrum` of a grid (four grids cover a run plus its checks)."""
    return HalfSpectrum(spec)


def lp_norm(field, p):
    """L^p norm by Riemann sum; p may be any real >= 1 or inf."""
    vals = field.values
    if not np.all(np.isfinite(vals)):
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(vals))[0])
        raise GridError(f"non-finite value at index {bad}")
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(vals)))
    if p < 1:
        raise GridError(f"p must be >= 1, got {p}")
    return float((np.sum(np.abs(vals) ** p) * field.spec.cell) ** (1.0 / p))


def spectral_gradient(field):
    """Gradient of the trigonometric interpolant; Nyquist mode zeroed."""
    half = half_spectrum(field.spec)
    u_hat = half.forward(field.values)
    return tuple(GridField(field.spec, half.inverse(1j * k * u_hat))
                 for k in half.gradient_wavenumbers)


def hdot_norm(field, k=1):
    """Homogeneous Sobolev seminorm |u|_{H^k} via |xi|^k weights."""
    half = half_spectrum(field.spec)
    return math.sqrt(half.parseval(half.forward(field.values), half.xi_sq ** k))


def sobolev_norm(field, k):
    """Full H^k norm via spectral weights (1 + |xi|^2)^{k/2}."""
    if k not in (0, 1, 2):
        raise GridError(f"Sobolev order must be 0, 1 or 2, got {k}")
    half = half_spectrum(field.spec)
    return math.sqrt(half.parseval(half.forward(field.values), (1.0 + half.xi_sq) ** k))


def gn_check(field, dimension=None):
    """Gagliardo-Nirenberg interpolation ratios (LHS / RHS without C).

    ratio_low :  |u|_{L^{1+2/n}}^{1+2/n} / ( |grad u|_{L^2}^{1-n/2} |u|_{L^2}^{2/n+n/2} )
    ratio_high:  |u|_{L^{2+4/n}}^{1+2/n} / ( |grad u|_{L^2} |u|_{L^2}^{2/n} )

    For n = 2 the first ratio is identically 1 (the exponents collapse to
    an L^2 identity).
    """
    n = field.spec.dimension if dimension is None else dimension
    l2 = lp_norm(field, 2)
    if l2 == 0.0:
        raise GridError("Gagliardo-Nirenberg check needs a nonzero field")
    grad = spectral_gradient(field)
    grad_l2 = math.sqrt(sum(lp_norm(g, 2) ** 2 for g in grad))
    q = 1.0 + 2.0 / n
    lhs_low = lp_norm(field, q) ** q
    rhs_low = grad_l2 ** (1.0 - n / 2.0) * l2 ** (2.0 / n + n / 2.0)
    lhs_high = lp_norm(field, 2.0 * q) ** q
    rhs_high = grad_l2 * l2 ** (2.0 / n)
    return {
        "ratio_low": lhs_low / rhs_low,
        "ratio_high": lhs_high / rhs_high,
        "l2": l2,
        "grad_l2": grad_l2,
    }

