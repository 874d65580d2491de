"""Tests for grid construction, spectral calculus and norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dwlab.grid import (
    GridError,
    GridField,
    GridSpec,
    HalfSpectrum,
    WaveState,
    _sample_norms,
    gn_check,
    half_spectrum,
    lp_norm,
    sobolev_norm,
    spectral_gradient,
)
from dwlab.semilinear import make_data


def _h1dot(field):
    """|grad u|_{L2} by Parseval with |xi|^2 weights."""
    half = half_spectrum(field.spec)
    return math.sqrt(half.parseval(half.forward(field.values), half.xi_sq))


def _gaussian_1d(length=20.0, points=512, width=1.0):
    spec = GridSpec(1, length, points)
    return GridField.from_function(spec, lambda x: np.exp(-(x / width) ** 2))


# -- GridSpec validation ----------------------------------------------


def test_spec_rejects_bad_parameters():
    with pytest.raises(GridError):
        GridSpec(3, 10.0, 64)
    for half_length in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(GridError, match="half_length"):
            GridSpec(1, half_length, 64)
    with pytest.raises(GridError):
        GridSpec(1, 10.0, 48)  # not a power of two
    with pytest.raises(GridError):
        GridSpec(1, 10.0, 8)  # too small


def test_spec_geometry():
    spec = GridSpec(2, 10.0, 64)
    assert spec.dx == pytest.approx(20.0 / 64)
    assert spec.cell == pytest.approx((20.0 / 64) ** 2)
    assert spec.shape == (64, 64)
    x = spec.axis()
    assert x[0] == -10.0 and x[-1] == pytest.approx(10.0 - spec.dx)


# -- norms ------------------------------------------------------------


def test_lp_norm_constant_field():
    spec = GridSpec(1, 1.0, 64)
    f = GridField(spec, np.full(spec.shape, 3.0))
    assert lp_norm(f, 1) == pytest.approx(6.0, rel=1e-13)
    assert lp_norm(f, 2) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-13)
    assert lp_norm(f, np.inf) == 3.0


def test_lp_norm_gaussian_closed_form():
    f = _gaussian_1d()
    assert lp_norm(f, 1) == pytest.approx(math.sqrt(math.pi), abs=1e-8)


def test_lp_norm_zero_field():
    spec = GridSpec(2, 2.0, 32)
    f = GridField.zeros(spec)
    for p in (1, 2, np.inf):
        assert lp_norm(f, p) == 0.0


@pytest.mark.parametrize("p", [0.5, 0.0, -np.inf, np.nan])
def test_lp_norm_rejects_p_below_one(p):
    # NaN fails every comparison, so the check is written "not p >= 1"
    spec = GridSpec(1, 1.0, 16)
    with pytest.raises(GridError, match="p must be >= 1"):
        lp_norm(GridField(spec, np.ones(spec.shape)), p)


def test_lp_norm_flags_nonfinite_with_index():
    spec = GridSpec(1, 1.0, 32)
    vals = np.zeros(spec.shape)
    vals[7] = np.nan
    f = GridField(spec, vals)
    with pytest.raises(GridError, match=r"\(7,\)"):
        lp_norm(f, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("p", [1, 2, 3.5, np.inf])
def test_lp_norm_names_the_first_nonfinite_index(bad, p):
    # the reduction of any p turns non-finite, and only then are the values scanned
    spec = GridSpec(2, 1.0, 16)
    vals = np.ones(spec.shape)
    vals[3, 5] = vals[9, 2] = bad
    with pytest.raises(GridError, match=r"non-finite value at index \(3, 5\)"):
        lp_norm(GridField(spec, vals), p)


def test_lp_norm_of_finite_values_makes_no_finiteness_pass(monkeypatch):
    spec = GridSpec(1, 1.0, 64)
    f = GridField(spec, np.linspace(-2.0, 3.0, spec.points))
    expected = {p: float((np.sum(np.abs(f.values) ** p) * spec.cell) ** (1.0 / p))
                for p in (1, 2, 3.5)}
    expected[np.inf] = 3.0

    def no_scan(*args, **kwargs):
        raise AssertionError("lp_norm scanned finite values")

    monkeypatch.setattr(np, "isfinite", no_scan)
    for p, value in expected.items():
        assert lp_norm(f, p) == value  # the same expression, bit for bit


def test_lp_norm_overflow_of_finite_values_is_inf():
    # finite values whose power overflows give inf, not a non-finite-value error
    spec = GridSpec(1, 1.0, 32)
    f = GridField(spec, np.full(spec.shape, 1e200))
    with np.errstate(over="ignore"):
        assert lp_norm(f, 2) == math.inf
    assert lp_norm(f, np.inf) == 1e200


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_norms_name_the_first_nonfinite_index(bad):
    spec = GridSpec(2, 1.0, 16)
    half = half_spectrum(spec)
    u = np.ones(spec.shape)
    u_hat = half.forward(u)
    u[3, 5] = u[9, 2] = bad
    with pytest.raises(GridError, match=r"non-finite value at index \(3, 5\)"):
        _sample_norms(half, u, u_hat)


@pytest.mark.parametrize("spec, distinct", [(GridSpec(1, 1050.0, 8192), 4097),
                                            (GridSpec(2, 1050.0, 512), 28317),
                                            (GridSpec(2, 16.0, 64), 520)],
                         ids=["1d-8192", "2d-512", "2d-64"])
def test_distinct_xi_sq_rebuilds_xi_sq(spec, distinct):
    values, index = HalfSpectrum(spec)._distinct_xi_sq
    xi_sq = half_spectrum(spec).xi_sq
    assert values.size == distinct and np.all(np.diff(values) > 0)
    assert index.shape == xi_sq.shape and index.dtype == np.int32
    assert np.array_equal(values[index], xi_sq)
    if spec.dimension == 1:  # every value is distinct and already sorted
        assert np.array_equal(index, np.arange(xi_sq.size))
    for array in (values, index):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0


def test_distinct_xi_sq_is_found_on_first_use_only():
    # neither the shared half-spectrum nor the data on its grid compute the pair
    spec = GridSpec(2, 7.0, 32)  # a grid no other test uses
    half = half_spectrum(spec)
    make_data(spec, amplitude=1.0, width=2.0)
    assert "_distinct_xi_sq" not in vars(half)
    pair = half._distinct_xi_sq
    assert half._distinct_xi_sq is pair


@pytest.mark.parametrize("spec", [GridSpec(1, 5.0, 256), GridSpec(2, 5.0, 64)], ids=["1d", "2d"])
def test_parseval_is_its_formula_bit_for_bit(spec):
    half = half_spectrum(spec)
    coeffs = half.forward(np.random.default_rng(11).standard_normal(spec.shape))
    kept = coeffs.copy()
    scale = spec.cell / spec.points ** spec.dimension
    for weight in (1.0, half.xi_sq, (1.0 + half.xi_sq) ** 2):
        want = float(np.sum(((coeffs.real ** 2 + coeffs.imag ** 2) * weight) @ half.weights)) * scale
        assert half.parseval(coeffs, weight) == want
    assert np.array_equal(coeffs, kept)  # the squares are formed in place of a copy


@pytest.mark.parametrize("spec", [GridSpec(1, 5.0, 16), GridSpec(1, 5.0, 4096),
                                  GridSpec(2, 5.0, 16), GridSpec(2, 5.0, 64)],
                         ids=["1d-16", "1d-4096", "2d-16", "2d-64"])
def test_sup_bound_bounds_the_inverse(spec):
    # complex noise in every coefficient, so the DC and Nyquist columns carry
    # imaginary parts the inverse drops and 2-d columns 0 and N/2 are not
    # conjugate-symmetric; and smooth spectra scaled over the double range
    half = half_spectrum(spec)
    rng = np.random.default_rng(spec.points + spec.dimension)
    shape = half.xi_sq.shape
    for trial in range(20):
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if trial % 2:
            coeffs *= np.exp(-half.xi_sq) * 10.0 ** rng.uniform(-250.0, 250.0)
        assert np.max(np.abs(half.inverse(coeffs))) <= half.sup_bound(coeffs)


@pytest.mark.parametrize("spec", [GridSpec(1, 5.0, 512), GridSpec(2, 5.0, 64)], ids=["1d", "2d"])
def test_sup_bound_is_reached_when_the_phases_line_up(spec):
    # the moduli of a real field's spectrum with phases e^{-ik.x0}: every term
    # of the inverse at x0 is |c_k|, so the maximum there is the l1 sum itself
    half = half_spectrum(spec)
    rng = np.random.default_rng(7)
    moduli = np.abs(half.forward(rng.standard_normal(spec.shape)))
    x0 = tuple(rng.integers(spec.points, size=spec.dimension))
    index = np.indices(moduli.shape)
    phase = np.exp(-2j * np.pi * sum(m * j for m, j in zip(index, x0)) / spec.points)
    values = half.inverse(moduli * phase)
    assert np.argmax(np.abs(values)) == np.ravel_multi_index(x0, spec.shape)
    bound = half.sup_bound(moduli * phase)
    assert np.max(np.abs(values)) <= bound
    # the bound is the sum enlarged by its 1e-10 rounding margin, and no more
    assert np.max(np.abs(values)) == pytest.approx(bound / (1.0 + 1e-10), rel=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sup_bound_of_a_non_finite_coefficient_is_not_finite(bad):
    half = half_spectrum(GridSpec(1, 5.0, 64))
    coeffs = half.forward(np.ones(64))
    coeffs[3] = bad
    assert not half.sup_bound(coeffs) < 1e300


@pytest.mark.parametrize("points", [16, 512, 4096])
def test_half_spectrum_1d_pair_matches_rfftn(points):
    # a 1-d grid calls rfft/irfft directly; their output is rfftn's bit for bit
    spec = GridSpec(1, 10.0, points)
    half = half_spectrum(spec)
    values = np.random.default_rng(points).standard_normal(spec.shape)
    coeffs = half.forward(values)
    assert np.array_equal(coeffs, np.fft.rfftn(values, axes=(0,)))
    assert np.array_equal(half.inverse(coeffs), np.fft.irfftn(coeffs, s=spec.shape, axes=(0,)))


@pytest.mark.parametrize("points", [16, 64, 512])
def test_half_spectrum_2d_pair_matches_rfftn(points):
    # a 2-d grid runs rfftn's and irfftn's two stages itself, the complex one in
    # place; their output is rfftn's and irfftn's bit for bit
    spec = GridSpec(2, 10.0, points)
    half = half_spectrum(spec)
    values = np.random.default_rng(points).standard_normal(spec.shape)
    coeffs = half.forward(values)
    assert np.array_equal(coeffs, np.fft.rfftn(values, axes=(0, 1)))
    expected = np.fft.irfftn(coeffs, s=spec.shape, axes=(0, 1))
    kept = coeffs.copy()
    assert np.array_equal(half.inverse(coeffs), expected)
    # without overwrite the coefficients are untouched: evolve retries a rejected
    # attempt from its carried spectra
    assert np.array_equal(coeffs, kept)
    out = np.empty(spec.shape)
    assert half.inverse(coeffs.copy(), out=out, overwrite=True) is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("spec", [GridSpec(1, 5.0, 256), GridSpec(2, 5.0, 64)], ids=["1d", "2d"])
def test_parseval(spec):
    # white noise fills the DC and Nyquist columns of the half-spectrum, so a
    # wrong Parseval weight there shows against the full-FFT reference
    rng = np.random.default_rng(3)
    f = GridField(spec, rng.standard_normal(spec.shape))
    assert lp_norm(f, 2) == pytest.approx(sobolev_norm(f, 0), rel=1e-12)

    u_hat = np.fft.fftn(f.values)
    xi_sq = spec.wavenumber_sq()

    def full_norm(weight):
        return math.sqrt(np.sum(np.abs(u_hat) ** 2 * weight)
                         * spec.cell / spec.points ** spec.dimension)

    assert _h1dot(f) == pytest.approx(full_norm(xi_sq), rel=1e-12)
    for k in (0, 1, 2):
        assert sobolev_norm(f, k) == pytest.approx(full_norm((1.0 + xi_sq) ** k), rel=1e-12)
    k_axis = 2.0 * np.pi * np.fft.fftfreq(spec.points, d=spec.dx)
    k_axis[spec.points // 2] = 0.0
    for axis, g in enumerate(spectral_gradient(f)):
        shape = [1] * spec.dimension
        shape[axis] = spec.points
        ref = np.fft.ifftn(1j * k_axis.reshape(shape) * u_hat).real
        assert np.max(np.abs(g.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_norm_inequalities_random_fields():
    rng = np.random.default_rng(11)
    for n, N in ((1, 128), (2, 32)):
        spec = GridSpec(n, 3.0, N)
        for _ in range(20):
            f = GridField(spec, rng.standard_normal(spec.shape))
            vol = (2.0 * spec.half_length) ** n
            assert lp_norm(f, 1) <= math.sqrt(vol) * lp_norm(f, 2) + 1e-12
            assert lp_norm(f, 2) <= math.sqrt(vol) * lp_norm(f, np.inf) + 1e-12


# -- spectral differentiation -----------------------------------------


def test_gradient_eigenfunction():
    spec = GridSpec(1, 4.0, 128)
    k = math.pi / spec.half_length
    f = GridField.from_function(spec, lambda x: np.sin(k * x))
    (g,) = spectral_gradient(f)
    expected = k * np.cos(k * spec.axis())
    assert np.max(np.abs(g.values - expected)) < 1e-12


def test_gradient_constant_is_zero_and_linear():
    spec = GridSpec(2, 2.0, 32)
    c = GridField(spec, np.full(spec.shape, 4.2))
    for g in spectral_gradient(c):
        assert np.max(np.abs(g.values)) < 1e-12
    rng = np.random.default_rng(5)
    a = GridField(spec, rng.standard_normal(spec.shape))
    b = GridField(spec, rng.standard_normal(spec.shape))
    lin = GridField(spec, 2.0 * a.values - 3.0 * b.values)
    for gl, ga, gb in zip(spectral_gradient(lin), spectral_gradient(a),
                          spectral_gradient(b)):
        assert np.allclose(gl.values, 2.0 * ga.values - 3.0 * gb.values, atol=1e-12)


def test_gradient_gaussian_closed_form():
    f = _gaussian_1d()
    (g,) = spectral_gradient(f)
    x = f.spec.axis()
    assert np.max(np.abs(g.values + 2.0 * x * np.exp(-x ** 2))) < 1e-10


# -- Sobolev norms ----------------------------------------------------


def test_sobolev_zero_field():
    spec = GridSpec(1, 2.0, 64)
    assert sobolev_norm(GridField.zeros(spec), 2) == 0.0


def test_sobolev_sine_closed_form():
    # On [-pi, pi): int sin^2 = pi and int cos^2 = pi, so H^1 norm = sqrt(2 pi).
    spec = GridSpec(1, math.pi, 64)
    f = GridField.from_function(spec, np.sin)
    assert sobolev_norm(f, 1) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)


def test_sobolev_tensorization():
    spec1 = GridSpec(1, 8.0, 256)
    spec2 = GridSpec(2, 8.0, 256)
    g1 = GridField.from_function(spec1, lambda x: np.exp(-x ** 2))
    g2 = GridField.from_function(spec2, lambda x, y: np.exp(-(x ** 2 + y ** 2)))
    # L2 of a product factorizes: |g2|_{L2} = |g1|_{L2}^2
    assert lp_norm(g2, 2) == pytest.approx(lp_norm(g1, 2) ** 2, rel=1e-10)
    # Hdot1 via product rule: |grad g2|^2 = 2 |g1'|^2 |g1|^2
    expected = math.sqrt(2.0) * _h1dot(g1) * lp_norm(g1, 2)
    assert _h1dot(g2) == pytest.approx(expected, rel=1e-10)


def test_sobolev_rejects_bad_order():
    spec = GridSpec(1, 2.0, 64)
    with pytest.raises(GridError):
        sobolev_norm(GridField.zeros(spec), 3)


# -- Gagliardo-Nirenberg ----------------------------------------------


def test_gn_n2_identity_ratio():
    rng = np.random.default_rng(7)
    spec = GridSpec(2, 4.0, 64)
    for _ in range(10):
        f = GridField(spec, np.fft.ifftn(
            np.fft.fftn(rng.standard_normal(spec.shape))
            * np.exp(-spec.wavenumber_sq())).real)
        report = gn_check(f)
        assert report["ratio_low"] == pytest.approx(1.0, abs=1e-12)


def test_gn_n1_gaussian_brute_force():
    f = _gaussian_1d()
    report = gn_check(f)
    l3 = quad(lambda x: math.exp(-3.0 * x * x), -20, 20)[0] ** (1.0 / 3.0)
    l2 = quad(lambda x: math.exp(-2.0 * x * x), -20, 20)[0] ** 0.5
    d2 = quad(lambda x: 4.0 * x * x * math.exp(-2.0 * x * x), -20, 20)[0] ** 0.5
    expected = l3 ** 3 / (d2 ** 0.5 * l2 ** 2.5)
    assert report["ratio_low"] == pytest.approx(expected, rel=1e-8)


def test_gn_dilation_invariance():
    base = None
    for lam in (1.0, 2.0, 4.0):
        spec = GridSpec(1, 20.0, 1024)
        f = GridField.from_function(spec, lambda x: np.exp(-(lam * x) ** 2))
        report = gn_check(f)
        if base is None:
            base = report
        else:
            assert report["ratio_low"] == pytest.approx(base["ratio_low"], rel=1e-6)
            assert report["ratio_high"] == pytest.approx(base["ratio_high"], rel=1e-6)


def test_gn_rejects_zero_field():
    spec = GridSpec(1, 2.0, 64)
    with pytest.raises(GridError):
        gn_check(GridField.zeros(spec))


# -- states ----------------------------------------------------------


def test_wave_state_invariants():
    spec = GridSpec(1, 2.0, 64)
    other = GridSpec(1, 2.0, 128)
    with pytest.raises(GridError):
        WaveState(0.0, GridField.zeros(spec), GridField.zeros(other))
    with pytest.raises(GridError):
        WaveState(-1.0, GridField.zeros(spec), GridField.zeros(spec))


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.1, 10.0))
def test_lp_norm_homogeneity(scale):
    spec = GridSpec(1, 2.0, 64)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(spec.shape)
    f = GridField(spec, vals)
    g = GridField(spec, scale * vals)
    for p in (1, 2, np.inf):
        assert lp_norm(g, p) == pytest.approx(scale * lp_norm(f, p), rel=1e-12)
