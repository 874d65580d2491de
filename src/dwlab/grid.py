"""Uniform periodic grids, spectral calculus and norms in 1 and 2 dimensions.

The torus [-L, L)^n stands in for R^n; runs choose L large enough that
nothing reaches the boundary within the simulated horizon (the damped
wave equation has unit propagation speed).  Norms are Riemann sums with
cell weight dx^n, which is spectrally accurate for smooth periodic data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GridSpec",
    "GridField",
    "WaveState",
    "GridError",
    "lp_norm",
    "spectral_gradient",
    "sobolev_norm",
    "hdot_norm",
    "gn_check",
    "save_field",
    "load_field",
    "field_to_csv",
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
        if self.half_length <= 0:
            raise GridError("half_length must be positive")
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

    def wavenumbers(self):
        """Radian wavenumbers along one axis, FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)

    def wavenumber_sq(self):
        """|xi|^2 on the full FFT grid."""
        k = self.wavenumbers()
        if self.dimension == 1:
            return k ** 2
        return k[:, None] ** 2 + k[None, :] ** 2


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

    def first_nonfinite_index(self):
        bad = np.argwhere(~np.isfinite(self.values))
        return tuple(int(i) for i in bad[0]) if bad.size else None


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


# -- norms ------------------------------------------------------------


def lp_norm(field, p):
    """L^p norm by Riemann sum; p may be any real >= 1 or inf."""
    vals = field.values
    if not np.all(np.isfinite(vals)):
        raise GridError(f"non-finite value at index {field.first_nonfinite_index()}")
    if p == np.inf or p == "inf":
        return float(np.max(np.abs(vals)))
    if p < 1:
        raise GridError(f"p must be >= 1, got {p}")
    return float((np.sum(np.abs(vals) ** p) * field.spec.cell) ** (1.0 / p))


def _fft_l2(spec, coeff_sq):
    """L2-type norm from |fft|^2 data: Parseval with cell weights."""
    total = np.sum(coeff_sq) * spec.cell / spec.points ** spec.dimension
    return float(math.sqrt(max(total, 0.0)))


def spectral_gradient(field):
    """Gradient of the trigonometric interpolant; Nyquist mode zeroed."""
    spec = field.spec
    u_hat = np.fft.fftn(field.values)
    k = spec.wavenumbers()
    nyq = spec.points // 2
    out = []
    for axis in range(spec.dimension):
        shape = [1] * spec.dimension
        shape[axis] = spec.points
        k_axis = k.reshape(shape).copy()
        k_axis[tuple(nyq if i == axis else 0 for i in range(spec.dimension))] = 0.0
        d_hat = 1j * k_axis * u_hat
        out.append(GridField(spec, np.fft.ifftn(d_hat).real))
    return tuple(out)


def hdot_norm(field, k=1):
    """Homogeneous Sobolev seminorm |u|_{H^k} via |xi|^k weights."""
    spec = field.spec
    u_hat = np.fft.fftn(field.values)
    w2 = spec.wavenumber_sq()
    return _fft_l2(spec, np.abs(u_hat) ** 2 * w2 ** k)


def sobolev_norm(field, k):
    """Full H^k norm via spectral weights (1 + |xi|^2)^{k/2}."""
    if k not in (0, 1, 2):
        raise GridError(f"Sobolev order must be 0, 1 or 2, got {k}")
    spec = field.spec
    u_hat = np.fft.fftn(field.values)
    w2 = spec.wavenumber_sq()
    return _fft_l2(spec, np.abs(u_hat) ** 2 * (1.0 + w2) ** k)


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


# -- field I/O --------------------------------------------------------


def save_field(field, path, time=0.0):
    """Write little-endian float64 row-major data plus a text sidecar."""
    path = Path(path)
    field.values.astype("<f8").tofile(path)
    spec = field.spec
    header = (f"n={spec.dimension}\nN={spec.points}\n"
              f"L={spec.half_length!r}\nt={float(time)!r}\n")
    path.with_suffix(path.suffix + ".hdr").write_text(header)


def load_field(path):
    """Inverse of save_field; returns (GridField, time)."""
    path = Path(path)
    meta = {}
    for line in path.with_suffix(path.suffix + ".hdr").read_text().splitlines():
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    spec = GridSpec(int(meta["n"]), float(meta["L"]), int(meta["N"]))
    values = np.fromfile(path, dtype="<f8").reshape(spec.shape)
    return GridField(spec, values), float(meta["t"])


def field_to_csv(field, path, time=0.0):
    """CSV export for 1-d fields (x, u columns)."""
    if field.spec.dimension != 1:
        raise GridError("CSV export is for 1-d slices only")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", time])
        writer.writerow(["x", "u"])
        for x, u in zip(field.spec.axis(), field.values):
            writer.writerow([repr(float(x)), repr(float(u))])
