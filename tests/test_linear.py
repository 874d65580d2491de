"""Tests for the exact linear propagator and the decay-rate fits."""

import math

import numpy as np
import pytest

from dwlab.grid import GridField, GridSpec, WaveState, lp_norm
from dwlab.linear import (
    decay_fit,
    linear_norm_series,
    multipliers,
    propagate,
    propagator,
)


def _psi_state(spec, width=2.0, derivative=False):
    def bump(*coords):
        r_sq = sum(c ** 2 for c in coords)
        g = np.exp(-r_sq / width ** 2)
        if derivative:
            g = -2.0 * coords[0] / width ** 2 * g
        return g

    return WaveState(0.0, GridField.zeros(spec), GridField.from_function(spec, bump))


# -- multipliers ------------------------------------------------------


def test_multiplier_zero_mode():
    for t in (0.3, 2.0, 17.0):
        K0, K1, dK0, dK1 = multipliers(np.array([0.0]), t)
        assert K0[0] == pytest.approx(1.0, abs=1e-14)
        assert K1[0] == pytest.approx(1.0 - math.exp(-t), rel=1e-13)
        assert dK0[0] == 0.0


def test_multiplier_double_root_limit():
    # at |xi| = 1/2: K1 = t e^{-t/2}, K0 = (1 + t/2) e^{-t/2}
    for t in (0.5, 3.0, 20.0):
        K0, K1, *_ = multipliers(np.array([0.25]), t)
        assert K1[0] == pytest.approx(t * math.exp(-t / 2.0), rel=1e-12)
        assert K0[0] == pytest.approx((1.0 + t / 2.0) * math.exp(-t / 2.0), rel=1e-12)
        # neighbours of the double root approach the limit formulas
        for eps in (1e-6, -1e-6):
            xi = 0.5 + eps
            K0n, K1n, *_ = multipliers(np.array([xi * xi]), t)
            assert K1n[0] == pytest.approx(K1[0], rel=2e-4)
            assert K0n[0] == pytest.approx(K0[0], rel=2e-4)


def test_multiplier_band_continuity():
    # the series branch must agree with the closed forms in the overlap
    # region just inside the switch |sigma t^2| = 1/4 (same frequency,
    # both evaluations valid) -- no jump across the branch boundary
    t = 2.0
    for z in (0.2, 0.249, -0.2, -0.249):
        sigma = z / t ** 2
        xi_sq = 0.25 - sigma
        K0, K1, *_ = multipliers(np.array([xi_sq]), t)  # series branch
        b = math.sqrt(abs(sigma))
        env = math.exp(-t / 2.0)
        if sigma > 0:
            exact1 = env * math.sinh(b * t) / b
            exact0 = env * (math.cosh(b * t) + 0.5 * math.sinh(b * t) / b)
        else:
            exact1 = env * math.sin(b * t) / b
            exact0 = env * (math.cos(b * t) + 0.5 * math.sin(b * t) / b)
        assert abs(K0[0] - exact0) < 1e-8
        assert abs(K1[0] - exact1) < 1e-8


def test_multiplier_high_frequency_envelope():
    xi_sq = np.geomspace(0.3, 1e4, 200)
    for t in (0.1, 1.0, 10.0, 40.0):
        K0, K1, *_ = multipliers(xi_sq, t)
        envelope = (1.0 + t) * math.exp(-t / 2.0)
        assert np.max(np.abs(K0)) <= envelope + 1e-12
        assert np.max(np.abs(K1)) <= envelope + 1e-12


def test_multiplier_derivative_identities():
    # dK0 = -xi^2 K1 and dK1 = K0 - K1 verified by finite differences in t
    xi_sq = np.array([0.0, 0.1, 0.25, 2.0, 50.0])
    t, h = 1.7, 1e-6
    K0, K1, dK0, dK1 = multipliers(xi_sq, t)
    K0p, K1p, *_ = multipliers(xi_sq, t + h)
    K0m, K1m, *_ = multipliers(xi_sq, t - h)
    assert np.allclose((K0p - K0m) / (2 * h), dK0, atol=1e-8)
    assert np.allclose((K1p - K1m) / (2 * h), dK1, atol=1e-8)


def test_multiplier_long_horizon_finite_and_exact():
    # cosh(bt) alone overflows past t ~ 1420; the envelope is folded into the exponents
    t = 1e4
    xi_sq = np.concatenate([[0.0], np.geomspace(1e-6, 0.2, 50),  # low branch
                            [0.25, 0.25 + 1e-10],               # resonant series
                            np.geomspace(0.3, 1e3, 50)])        # high branch
    sigma_t_sq = (0.25 - xi_sq) * t * t
    assert np.any(np.abs(sigma_t_sq) < 0.25)
    assert np.any(sigma_t_sq > 0.25) and np.any(sigma_t_sq < -0.25)
    K0, K1, dK0, dK1 = multipliers(xi_sq, t)
    for array in (K0, K1, dK0, dK1):
        assert np.all(np.isfinite(array))
    assert K0[0] == 1.0
    assert K1[0] == 1.0 - math.exp(-t)
    assert dK1[0] == math.exp(-t)


def test_multiplier_zero_mode_derivative_without_cancellation():
    # dK1 = e^{-t} at xi = 0; K0 - K1 = 1 - (1 - e^{-t}) would keep only ~3 digits at t = 30
    for t in (5.0, 30.0, 200.0):
        *_, dK1 = multipliers(np.array([0.0]), t)
        assert dK1[0] == pytest.approx(math.exp(-t), rel=1e-14, abs=0.0)


def test_multiplier_rejects_negative_time():
    with pytest.raises(ValueError):
        multipliers(np.array([1.0]), -0.1)


# -- propagation ------------------------------------------------------


def _full_fft_propagate(state, dt):
    """The exact flow on the full complex spectrum, as a reference."""
    K0, K1, dK0, dK1 = multipliers(state.spec.wavenumber_sq(), dt)
    u_hat, v_hat = np.fft.fftn(state.u.values), np.fft.fftn(state.v.values)
    return (np.fft.ifftn(K0 * u_hat + K1 * v_hat).real,
            np.fft.ifftn(dK0 * u_hat + dK1 * v_hat).real)


def test_propagate_half_spectrum_matches_full_fft():
    for spec in (GridSpec(1, 32.0, 512), GridSpec(2, 16.0, 64)):
        state = _psi_state(spec)
        state = WaveState(0.0, GridField(spec, np.cos(spec.meshgrid()[0]) * state.v.values),
                          state.v)
        cache = propagator(spec)._cache
        # alternating step sizes, with a third one now and then, evict cached multipliers
        for dt in (0.05, 0.013, 0.05, 0.013, 0.7, 0.05, 0.7, 0.013, 0.05):
            u_ref, v_ref = _full_fft_propagate(state, dt)
            out = propagate(state, dt)
            assert len(cache) <= 2
            assert dt in cache
            assert np.max(np.abs(out.u.values - u_ref)) <= 1e-13 * np.max(np.abs(u_ref))
            assert np.max(np.abs(out.v.values - v_ref)) <= 1e-13 * np.max(np.abs(v_ref))
            state = out


def test_propagate_rejects_non_finite_state():
    spec = GridSpec(1, 16.0, 256)
    state = _psi_state(spec)
    state.v.values[3] = np.nan
    with pytest.raises(ValueError, match="non-finite state"):
        propagate(state, 0.1)
    # finite data whose transform overflows: the output check catches it
    huge = GridField(spec, np.full(spec.shape, 1e308))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="produced a non-finite state"):
        propagate(WaveState(0.0, huge, huge), 0.1)


def test_propagate_identity_at_zero_dt():
    spec = GridSpec(1, 16.0, 256)
    state = _psi_state(spec)
    out = propagate(state, 0.0)
    assert np.array_equal(out.u.values, state.u.values)
    assert np.array_equal(out.v.values, state.v.values)


def test_propagate_semigroup():
    spec = GridSpec(1, 32.0, 512)
    state = _psi_state(spec)
    once = propagate(state, 3.7)
    twice = propagate(propagate(state, 1.2), 2.5)
    scale = lp_norm(once.u, 2)
    assert lp_norm(GridField(spec, once.u.values - twice.u.values), 2) < 1e-10 * scale
    assert lp_norm(GridField(spec, once.v.values - twice.v.values), 2) < 1e-10


def test_propagate_mass_law():
    spec = GridSpec(1, 64.0, 1024)
    state = _psi_state(spec)
    mass_g = float(np.sum(state.v.values)) * spec.cell
    for t in (0.5, 2.0, 10.0):
        out = propagate(state, t)
        mass = float(np.sum(out.u.values)) * spec.cell
        assert mass == pytest.approx(mass_g * (1.0 - math.exp(-t)), abs=1e-8)


def test_propagate_single_eigenmode():
    spec = GridSpec(1, math.pi, 64)
    k = 3.0  # grid wavenumber 3 on [-pi, pi), |xi| > 1/2
    state = WaveState(0.0,
                      GridField.from_function(spec, lambda x: np.cos(k * x)),
                      GridField.zeros(spec))
    t = 2.3
    out = propagate(state, t)
    K0, *_ = multipliers(np.array([k * k]), t)
    expected = K0[0] * np.cos(k * spec.axis())
    assert np.max(np.abs(out.u.values - expected)) < 1e-12


def _reference_series(state, times):
    """The series by a loop of `propagate`, physical-space norms and a
    full-FFT |grad u|_{L2}, independent of the half-spectrum Parseval sum."""
    spec = state.spec
    out = {key: [] for key in ("L1", "L2", "Linf", "H1dot", "energy")}
    for t in times:
        state = propagate(state, t - state.time)
        grad_sq = (np.sum(np.abs(np.fft.fftn(state.u.values)) ** 2 * spec.wavenumber_sq())
                   * spec.cell / spec.points ** spec.dimension)
        out["L1"].append(lp_norm(state.u, 1))
        out["L2"].append(lp_norm(state.u, 2))
        out["Linf"].append(lp_norm(state.u, np.inf))
        out["H1dot"].append(math.sqrt(grad_sq))
        out["energy"].append(0.5 * lp_norm(state.v, 2) ** 2 + 0.5 * grad_sq)
    return out


@pytest.mark.parametrize("spec", [GridSpec(1, 16.0, 256), GridSpec(2, 8.0, 32)], ids=["1d", "2d"])
def test_linear_norm_series_matches_propagate_loop(spec):
    # white-noise data fill every column of the half-spectrum, DC and Nyquist included,
    # and the early samples keep them, so H1dot and the energy see the Parseval weights
    rng = np.random.default_rng(17)
    state = WaveState(0.0, GridField(spec, rng.standard_normal(spec.shape)),
                      GridField(spec, rng.standard_normal(spec.shape)))
    times = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 6.0, 15.0])
    series = linear_norm_series(state, times)
    reference = _reference_series(state, times)
    assert np.array_equal(series["t"], times)
    for key, values in reference.items():
        assert np.max(np.abs(series[key] / np.asarray(values) - 1.0)) <= 1e-12, key


def test_linear_norm_series_rejects_non_finite():
    spec = GridSpec(1, 16.0, 256)
    state = _psi_state(spec)
    with pytest.raises(ValueError, match="times"):
        linear_norm_series(state, np.array([1.0, np.nan]))
    bad = state.copy()
    bad.v.values[3] = np.inf
    with pytest.raises(ValueError, match="non-finite state"):
        linear_norm_series(bad, np.array([1.0]))
    huge = GridField(spec, np.full(spec.shape, 1e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        linear_norm_series(WaveState(0.0, huge, huge), np.array([0.1]))


def test_energy_dissipation():
    spec = GridSpec(1, 32.0, 512)
    series = linear_norm_series(_psi_state(spec), np.linspace(0.5, 30.0, 40))
    assert np.all(np.diff(series["energy"]) <= 1e-12)


# -- decay fits -------------------------------------------------------


def _decay_series(n):
    if n == 1:
        spec = GridSpec(1, 2100.0, 2 ** 13)
    else:
        spec = GridSpec(2, 2100.0, 256)
    state = _psi_state(spec, width=2.0)
    return linear_norm_series(state, np.geomspace(20.0, 2000.0, 45))


def test_decay_rates_n1():
    series = _decay_series(1)
    window = (50.0, 2000.0)
    assert decay_fit(series, "Linf", window).exponent == pytest.approx(-0.5, abs=0.05)
    assert decay_fit(series, "L2", window).exponent == pytest.approx(-0.25, abs=0.05)
    assert decay_fit(series, "H1dot", window).exponent == pytest.approx(-0.75, abs=0.05)


def test_zero_mean_data_decays_faster():
    spec = GridSpec(1, 2100.0, 2 ** 13)
    state = _psi_state(spec, width=2.0, derivative=True)
    series = linear_norm_series(state, np.geomspace(20.0, 2000.0, 45))
    fit = decay_fit(series, "Linf", (50.0, 2000.0))
    assert fit.exponent <= -0.9


def test_decay_fit_rejects_short_window():
    series = _decay_series(1)
    with pytest.raises(ValueError):
        decay_fit(series, "Linf", (1500.0, 2000.0))
