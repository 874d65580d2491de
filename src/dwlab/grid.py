"""Uniform periodic grids, spectral calculus and norms in 1 and 2 dimensions.

The torus [-L, L)^n stands in for R^n; runs choose L large enough that
nothing reaches the boundary within the simulated horizon (the damped
wave equation has unit propagation speed).  Norms are Riemann sums with
cell weight dx^n, which is spectrally accurate for smooth periodic data.

Fields are real, so every spectral computation runs on the real-FFT
half-spectrum of its grid (`half_spectrum(spec)`): the spectral norms,
the gradient and, in `dwlab.linear`, the exact linear flow.  Its transform
pair is `rfft`/`irfft` on a 1-d grid.  On a 2-d grid it runs the two stages
of `rfftn`/`irfftn` itself, with the complex stage in place, so its output
is theirs bit for bit.
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
    """The real-FFT layout of one grid: |xi|^2, the real transform pair and the
    Parseval sum.  Its column weights on the last axis are 1 for the DC and
    Nyquist columns and 2 for the others, which also stand for their complex-
    conjugate partners.  Get one per grid from `half_spectrum(spec)`.

    `_distinct_xi_sq` is the pair (values, index) of the sorted distinct
    values of xi_sq and the int32 index with values[index] == xi_sq, found
    on first use.  Mirrored rows and the kx <-> ky swap repeat most of |xi|^2
    in 2-d (28,317 distinct of 131,584 on a 512^2 grid); in 1-d every value
    is distinct and the index is the identity."""

    def __init__(self, spec):
        self.spec = spec
        k_axes = spec._axis_wavenumbers(np.fft.rfftfreq)
        self.xi_sq = sum(k ** 2 for k in k_axes)
        self.weights = np.full(spec.points // 2 + 1, 2.0)
        self.weights[[0, -1]] = 1.0
        # d/dx_i is i k_i with the Nyquist mode, the largest |k_i|, zeroed
        self.gradient_wavenumbers = tuple(np.where(np.abs(k) == np.abs(k).max(), 0.0, k)
                                          for k in k_axes)
        for array in (self.xi_sq, self.weights, *self.gradient_wavenumbers):
            array.flags.writeable = False  # shared by every user of the grid

    @functools.cached_property
    def _distinct_xi_sq(self):
        values, index = np.unique(self.xi_sq, return_inverse=True)
        index = index.reshape(self.xi_sq.shape).astype(np.int32)
        for array in (values, index):
            array.flags.writeable = False
        return values, index

    # A 1-d grid calls rfft/irfft.  A 2-d grid runs rfftn's and irfftn's two
    # stages in their order, so the output is theirs bit for bit: forward is
    # rfft along the last axis and then the complex fft along the first, in
    # place over rfft's output, where rfftn allocates a second array.  The
    # functions are looked up on np.fft at each call, so a patched numpy.fft
    # attribute is seen by every grid.
    def forward(self, values):
        coeffs = np.fft.rfft(values)
        if self.spec.dimension == 2:
            np.fft.fft(coeffs, axis=0, out=coeffs)
        return coeffs

    def inverse(self, coeffs, out=None, overwrite=False):
        """The grid values of the half-spectrum `coeffs`, written into `out` if
        given.  A 2-d inverse runs the complex ifft along the first axis into a
        fresh array, so `coeffs` is left as it was, or with `overwrite` in place
        over `coeffs`, which then holds that intermediate; irfft along the last
        axis follows.  A 1-d inverse is one irfft and never writes `coeffs`."""
        if self.spec.dimension == 2:
            coeffs = np.fft.ifft(coeffs, axis=0, out=coeffs if overwrite else None)
        return np.fft.irfft(coeffs, self.spec.points, out=out)

    def sup_bound(self, coeffs):
        """An upper bound on max|inverse(coeffs)| from the coefficients alone.

        A grid value is (1/N^n) times the sum over the full spectrum of
        c_k e^{ik.x}, in which each column but the DC and Nyquist ones
        stands for itself and its conjugate partner; the inverse drops the
        imaginary parts of those two columns, which only lowers |value|.  So
        the column-weighted l1 sum over N^n bounds every value, with
        equality when the phases line up at one grid point.  The factor
        1 + 1e-10 covers the rounding of this sum and of the transform
        (relative O(N eps) and O(eps log N)).  NaN or inf if a coefficient
        is not finite.  The weighted sum is one matrix product; on a 1-d grid
        it is already the total, and a 2-d grid adds up its rows.
        """
        spec = self.spec
        return _total(np.abs(coeffs) @ self.weights) / spec.points ** spec.dimension * (1.0 + 1e-10)

    def parseval(self, coeffs, weight):
        """Full-spectrum sum of |coeffs|^2 * weight, scaled so that weight 1
        gives the squared L2 norm (cell weights dx^n) of the field.  The column
        weights enter by one matrix product, whose rows a 2-d grid adds up."""
        power = coeffs.real ** 2
        power += coeffs.imag ** 2
        power *= weight
        spec = self.spec
        return _total(power @ self.weights) * spec.cell / spec.points ** spec.dimension


def _total(row_sums):
    """The float total of a weighted sum `x @ weights`: the 0-d result of a
    1-d grid as it is (np.sum of one value is that value), the row sums of a
    2-d grid added by the same pairwise sum np.sum runs."""
    return float(row_sums.sum() if row_sums.ndim else row_sums)


@functools.lru_cache(maxsize=4)
def half_spectrum(spec):
    """The shared `HalfSpectrum` of a grid (four grids cover a run plus its checks)."""
    return HalfSpectrum(spec)


def lp_norm(field, p):
    """L^p norm by Riemann sum; p may be any real >= 1 or np.inf.

    A non-finite value is reported by its index.  It makes the reduction
    non-finite, so the values are scanned only then; finite values whose
    power overflows give inf."""
    if not p >= 1:  # NaN fails every comparison
        raise GridError(f"p must be >= 1, got {p}")
    norm = _lp_of_magnitude(np.abs(field.values), p, field.spec.cell)
    _name_non_finite(norm, field.values)
    return norm


def _lp_of_magnitude(magnitude, p, cell):
    """The L^p Riemann sum (p >= 1 or np.inf) of a field from its |values|."""
    if p == np.inf:
        return float(magnitude.max())
    if p == 1:  # magnitude ** 1 is a copy of the same values, so the same sum
        return float(np.sum(magnitude) * cell)
    return float((np.sum(magnitude ** p) * cell) ** (1.0 / p))


def _name_non_finite(norm, values):
    """If a norm of `values` is not finite, raise GridError naming the first
    non-finite value, if any; finite values whose power overflows pass."""
    if not math.isfinite(norm):
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            raise GridError(f"non-finite value at index {tuple(int(i) for i in bad[0])}")


def _sample_norms(half, u, u_hat):
    """The norms of one trajectory sample: L1, L2 and Linf of the array u by
    Riemann sum, from one |u|, and H1dot = |grad u|_{L2} by Parseval from its
    half-spectrum u_hat on the grid of `half`, so a caller that holds u_hat
    runs no transform.  Linf is non-finite exactly when u holds a non-finite
    value, which is then named by its index."""
    magnitude, cell = np.abs(u), half.spec.cell
    sup = _lp_of_magnitude(magnitude, np.inf, cell)
    _name_non_finite(sup, u)
    return {"L1": _lp_of_magnitude(magnitude, 1, cell), "L2": _lp_of_magnitude(magnitude, 2, cell),
            "Linf": sup, "H1dot": math.sqrt(half.parseval(u_hat, half.xi_sq))}


def spectral_gradient(field):
    """Gradient of the trigonometric interpolant; Nyquist mode zeroed."""
    half = half_spectrum(field.spec)
    u_hat = half.forward(field.values)
    return tuple(GridField(field.spec, half.inverse(1j * k * u_hat))
                 for k in half.gradient_wavenumbers)


def sobolev_norm(field, k):
    """Full H^k norm via spectral weights (1 + |xi|^2)^{k/2}."""
    if k not in (0, 1, 2):
        raise GridError(f"Sobolev order must be 0, 1 or 2, got {k}")
    half = half_spectrum(field.spec)
    return math.sqrt(half.parseval(half.forward(field.values), (1.0 + half.xi_sq) ** k))


def gn_check(field):
    """Gagliardo-Nirenberg interpolation ratios (LHS / RHS without C).

    ratio_low :  |u|_{L^{1+2/n}}^{1+2/n} / ( |grad u|_{L^2}^{1-n/2} |u|_{L^2}^{2/n+n/2} )
    ratio_high:  |u|_{L^{2+4/n}}^{1+2/n} / ( |grad u|_{L^2} |u|_{L^2}^{2/n} )

    For n = 2 the first ratio is identically 1 (the exponents collapse to
    an L^2 identity).
    """
    n = field.spec.dimension
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

