"""Tests for grid construction, spectral calculus, norms and field I/O."""

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
    WaveState,
    field_to_csv,
    gn_check,
    hdot_norm,
    load_field,
    lp_norm,
    save_field,
    sobolev_norm,
    spectral_gradient,
)


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


def test_lp_norm_flags_nonfinite_with_index():
    spec = GridSpec(1, 1.0, 32)
    vals = np.zeros(spec.shape)
    vals[7] = np.nan
    f = GridField(spec, vals)
    with pytest.raises(GridError, match=r"\(7,\)"):
        lp_norm(f, 2)


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

    assert hdot_norm(f, 1) == pytest.approx(full_norm(xi_sq), rel=1e-12)
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
    expected = math.sqrt(2.0) * hdot_norm(g1, 1) * lp_norm(g1, 2)
    assert hdot_norm(g2, 1) == pytest.approx(expected, rel=1e-10)


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


# -- states and I/O ---------------------------------------------------


def test_wave_state_invariants():
    spec = GridSpec(1, 2.0, 64)
    other = GridSpec(1, 2.0, 128)
    with pytest.raises(GridError):
        WaveState(0.0, GridField.zeros(spec), GridField.zeros(other))
    with pytest.raises(GridError):
        WaveState(-1.0, GridField.zeros(spec), GridField.zeros(spec))


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    spec = GridSpec(2, 3.0, 32)
    f = GridField(spec, rng.standard_normal(spec.shape))
    path = tmp_path / "field.bin"
    save_field(f, path, time=1.5)
    loaded, t = load_field(path)
    assert t == 1.5
    assert loaded.spec == spec
    assert np.array_equal(loaded.values, f.values)


def test_csv_export_1d_only(tmp_path):
    spec = GridSpec(1, 1.0, 32)
    f = GridField.zeros(spec)
    out = tmp_path / "u.csv"
    field_to_csv(f, out)
    assert out.read_text().count("\n") == 34  # header rows + 32 samples
    spec2 = GridSpec(2, 1.0, 16)
    with pytest.raises(GridError):
        field_to_csv(GridField.zeros(spec2), tmp_path / "bad.csv")


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
