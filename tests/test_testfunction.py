"""Tests for the cut-off weights, the trajectory functionals and the
averaged blow-up chain."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from dwlab import testfunction
from dwlab.grid import GridSpec
from dwlab.modulus import Nonlinearity, catalog_make, check_h_convexity
from dwlab.semilinear import EvolveConfig, Trajectory, evolve, make_data
from dwlab.testfunction import (
    _eta_jet,
    blowup_certificate,
    eta,
    eta_star,
    functional_ir,
    functional_y,
    functional_y_exchanged,
    jensen_check,
    psi_weights,
    wave_operator_on_weight,
    weight_bound_constant,
)


# -- the smooth step --------------------------------------------------


def test_eta_plateau_and_support():
    s = np.array([0.0, 0.3, 0.5])
    assert np.all(eta(s) == 1.0)
    assert np.all(eta(np.array([1.0, 2.0, 50.0])) == 0.0)
    mid = eta(np.linspace(0.51, 0.99, 100))
    assert np.all((0.0 < mid) & (mid <= 1.0))
    assert np.all(np.diff(mid) <= 0.0)
    # strictly interior away from the flat tails of the transition
    core = eta(np.linspace(0.6, 0.9, 50))
    assert np.all((0.0 < core) & (core < 1.0))
    assert np.all(np.diff(core) < 0.0)


def test_eta_star_matches_on_annulus():
    assert eta_star(0.3) == 0.0
    assert eta_star(0.49999) == 0.0
    s = np.linspace(0.5, 1.2, 50)
    assert np.allclose(eta_star(s), eta(s))


def test_eta_derivatives_match_finite_differences():
    s = np.linspace(0.501, 0.999, 1501)
    h = 1e-6
    _, d1, d2 = _eta_jet(s)
    fd1 = (eta(s + h) - eta(s - h)) / (2.0 * h)
    fd2 = (_eta_jet(s + h)[1] - _eta_jet(s - h)[1]) / (2.0 * h)
    assert np.max(np.abs(fd1 - d1)) < 1e-8
    assert np.max(np.abs(fd2 - d2)) < 1e-6


def test_eta_derivatives_vanish_outside_transition():
    s = np.array([0.0, 0.2, 0.5, 1.0, 3.0])
    _, d1, d2 = _eta_jet(s)
    assert np.all(d1 == 0.0)
    assert np.all(d2 == 0.0)


def test_eta_second_derivative_bounded():
    s = np.linspace(0.5, 1.0, 20001)
    value, _, d2 = _eta_jet(s)
    assert np.max(np.abs(d2)) < 200.0
    # the jet's value is eta itself, bit for bit
    assert np.array_equal(value, eta(s))


# -- weights and the pointwise operator bound -------------------------


def test_psi_weights_plateau_and_outside():
    psi, psi_star = psi_weights(np.array([3.0]), 10.0, 1)  # z = 0.3
    assert psi[0] == 1.0 and psi_star[0] == 0.0
    psi, psi_star = psi_weights(np.array([12.0]), 10.0, 1)  # z = 1.2
    assert psi[0] == 0.0 and psi_star[0] == 0.0
    assert wave_operator_on_weight(1.0, 2.0, 10.0, 1) == 0.0  # z = 0.3


def test_wave_operator_matches_finite_differences():
    rng = np.random.default_rng(2)
    for n in (1, 2):
        for _ in range(200):
            big_r = math.exp(rng.uniform(math.log(8.0), math.log(200.0)))
            z = rng.uniform(0.55, 0.95)
            t = rng.uniform(0.0, 0.9 * z * big_r)  # keep x away from 0
            x_sq = z * big_r - t
            x = math.sqrt(x_sq)
            # steps chosen so the increment of z = (x^2+t)/R is ~1e-4
            # in both directions (the weight only depends on z)
            h_t = 1e-4 * big_r
            h_x = 1e-4 * big_r / (2.0 * x)

            def psi(tt, xx):
                return float(eta((xx ** 2 + tt) / big_r) ** (n + 2))

            d_tt = (psi(t + h_t, x) - 2 * psi(t, x) + psi(t - h_t, x)) / h_t ** 2
            d_t = (psi(t + h_t, x) - psi(t - h_t, x)) / (2 * h_t)
            # radial Laplacian: psi'' in x plus (n-1)/x psi'
            d_xx = (psi(t, x + h_x) - 2 * psi(t, x) + psi(t, x - h_x)) / h_x ** 2
            d_x = (psi(t, x + h_x) - psi(t, x - h_x)) / (2 * h_x)
            lap = d_xx + (n - 1) / x * d_x
            expected = d_tt - lap - d_t
            got = wave_operator_on_weight(t, x_sq, big_r, n)
            scale = abs(expected) + (n + 2) / big_r ** 2
            assert abs(got - expected) <= 1e-3 * scale


def test_pointwise_bound_with_calibrated_constant():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        constant = weight_bound_constant(n, r0=16.0)
        for _ in range(5000):
            big_r = 16.0 * math.exp(rng.uniform(0.0, 6.0))
            t = rng.uniform(0.0, big_r)
            x_sq = rng.uniform(0.0, max(big_r - t, 0.0))
            lhs = abs(wave_operator_on_weight(t, x_sq, big_r, n))
            z = (x_sq + t) / big_r
            rhs = constant / big_r * eta_star(z) ** n
            assert lhs <= rhs + 1e-14


def test_weight_bound_constant_rejects_bad_r0():
    with pytest.raises(ValueError):
        weight_bound_constant(1, r0=0.0)


# -- functionals ------------------------------------------------------


def _constant_trajectory(spec, value, t_end, samples):
    times = np.linspace(0.0, t_end, samples)
    fields = [np.full(spec.shape, value) for _ in times]
    return Trajectory(spec=spec, times=times, norms={},
                      outcome="CompletedHorizon", t_est=math.inf,
                      u_samples=fields)


def _real_trajectory(amplitude=2.0, t_max=64.0):
    spec = GridSpec(1, 128.0, 1024)
    nl = Nonlinearity(catalog_make("invlog", p=2.0), 1)
    data = make_data(spec, amplitude=amplitude, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.05,
                       t_max=t_max, sample_stride=8, keep_fields=True)
    return evolve(cfg), nl


def test_functional_ir_zero_trajectory():
    spec = GridSpec(1, 64.0, 512)
    traj = _constant_trajectory(spec, 0.0, 16.0, 30)
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    assert functional_ir(traj, nl, 16.0) == 0.0


def test_functional_ir_constant_field_factorizes():
    # for u = const c: I_R = h(c) * integral of psi_R over Q_R, with the
    # weight integral evaluated by an independent 2-d quadrature
    spec = GridSpec(1, 64.0, 2048)
    c, big_r = 0.5, 16.0
    traj = _constant_trajectory(spec, c, big_r, 257)
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    got = functional_ir(traj, nl, big_r)
    weight_integral, _ = dblquad(
        lambda x, t: eta((x * x + t) / big_r) ** 3,
        0.0, big_r, -spec.half_length, spec.half_length,
        epsabs=1e-10, epsrel=1e-10)
    assert got == pytest.approx(float(nl.h_eval(c)) * weight_integral, rel=1e-4)


def test_functional_ir_rejects_short_trajectory():
    spec = GridSpec(1, 64.0, 512)
    traj = _constant_trajectory(spec, 0.1, 8.0, 20)
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    with pytest.raises(ValueError):
        functional_ir(traj, nl, 16.0)


def test_functionals_reject_negative_times():
    # the support slices rely on t >= 0
    spec = GridSpec(1, 64.0, 512)
    traj = _constant_trajectory(spec, 0.1, 16.0, 20)
    traj.times = traj.times - 1.0
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    for call in (lambda: functional_ir(traj, nl, 8.0),
                 lambda: functional_y(traj, nl, [2.0, 8.0]),
                 lambda: functional_y_exchanged(traj, nl, [2.0, 8.0])):
        with pytest.raises(ValueError, match="< 0"):
            call()


def test_functional_ir_increases_with_r_on_blowup_class_run():
    spec = GridSpec(1, 128.0, 1024)
    nl = Nonlinearity(catalog_make("invlog", p=1.0), 1)
    data = make_data(spec, amplitude=2.0, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.05,
                       t_max=64.0, sample_stride=8, keep_fields=True)
    traj = evolve(cfg)
    values = [functional_ir(traj, nl, r) for r in (8.0, 16.0, 32.0, 64.0)]
    assert np.all(np.diff(values) > 0)


def test_functional_y_chain_on_trajectory():
    traj, nl = _real_trajectory()
    for big_r in (16.0, 64.0):
        i_r = functional_ir(traj, nl, big_r)
        r_grid = np.geomspace(big_r / 256.0, big_r, 65)
        rep = functional_y(traj, nl, r_grid)
        assert np.all(rep["y"] >= 0.0)
        assert np.all(np.diff(rep["Y_cum"]) >= -1e-15)
        assert rep["Y"] <= math.log(2.0) * i_r
        swapped = functional_y_exchanged(traj, nl, r_grid)
        assert abs(rep["Y"] - swapped) <= 1e-6 * abs(swapped)


def kernel_k(z, dimension):
    """K(z) = int_z^inf eta*(s)^{n+2} ds / s  (constant below 1/2, 0 past 1)."""
    z = float(z)
    if z >= 1.0:
        return 0.0
    val, _ = quad(lambda s: eta_star(s) ** (dimension + 2) / s, max(z, 0.5), 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    return val


def test_kernel_pointwise_identity():
    # K(z) <= log(2) eta(z)^{n+2} at sample points (paper's kernel bound)
    for n in (1, 2):
        for z in (0.05, 0.3, 0.55, 0.7, 0.9):
            assert kernel_k(z, n) <= math.log(2.0) * eta(z) ** (n + 2) + 1e-12
    assert kernel_k(1.5, 1) == 0.0
    # plateau value equals the full annulus integral
    full, _ = quad(lambda s: eta_star(s) ** 3 / s, 0.5, 1.0)
    assert kernel_k(0.1, 1) == pytest.approx(full, rel=1e-10)


# -- support slicing against the full-torus sums ----------------------


def _full_torus(traj, nl, horizon):
    """|x|^2, sample times and h(|u|) per sample, all on the whole torus."""
    q = sum(c ** 2 for c in traj.spec.meshgrid())
    keep = np.nonzero(traj.times <= horizon + 1e-12)[0]
    return q, traj.times[keep], [nl.h_eval(np.abs(traj.u_samples[i])) for i in keep]


def _trapezoid(times, values):
    return float(np.trapezoid(values, times)) if len(times) > 1 else 0.0


def _ir_full_torus(traj, nl, big_r):
    q, times, dens = _full_torus(traj, nl, big_r)
    power = traj.spec.dimension + 2
    return _trapezoid(times, np.array([float(np.sum(d * eta((q + t) / big_r) ** power))
                                       for t, d in zip(times, dens)]) * traj.spec.cell)


def _y_full_torus(traj, nl, r_grid):
    """(y, Y_cum) from one full-torus sum per (radius, sample)."""
    q, times, dens = _full_torus(traj, nl, r_grid[-1])
    power = traj.spec.dimension + 2
    y = np.array([_trapezoid(times, np.array([
        float(np.sum(d * eta_star((q + t) / r) ** power)) for t, d in zip(times, dens)])
        * traj.spec.cell) for r in r_grid])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(np.log(r_grid)))])
    return y, cum


def _y_exchanged_full_torus(traj, nl, r_grid):
    q, times, dens = _full_torus(traj, nl, r_grid[-1])
    power = traj.spec.dimension + 2
    dx = np.diff(np.log(r_grid))
    w = np.concatenate([0.5 * dx, [0.0]]) + np.concatenate([[0.0], 0.5 * dx])
    slices = [float(np.sum(d.ravel() * (eta_star((q.ravel()[:, None] + t) / r_grid) ** power @ w)))
              for t, d in zip(times, dens)]
    return _trapezoid(times, np.array(slices) * traj.spec.cell)


def _assert_matches_full_torus(traj, nl, r_grid, rtol):
    for big_r in (r_grid[0], r_grid[len(r_grid) // 2], r_grid[-1]):
        assert functional_ir(traj, nl, big_r) == pytest.approx(
            _ir_full_torus(traj, nl, big_r), rel=rtol, abs=0.0)
    rep = functional_y(traj, nl, r_grid)
    y, cum = _y_full_torus(traj, nl, r_grid)
    np.testing.assert_allclose(rep["y"], y, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(rep["Y_cum"], cum, rtol=rtol, atol=0.0)
    assert functional_y_exchanged(traj, nl, r_grid) == pytest.approx(
        _y_exchanged_full_torus(traj, nl, r_grid), rel=rtol, abs=0.0)


@pytest.fixture(scope="module", params=[1, 2], ids=["1d", "2d"])
def evolved(request):
    n = request.param
    spec = GridSpec(1, 128.0, 1024) if n == 1 else GridSpec(2, 48.0, 64)
    nl = Nonlinearity(catalog_make("invlog", p=1.0), n)
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=make_data(spec, amplitude=2.0, width=2.0),
                       dt=0.05, t_max=32.0, sample_stride=5, keep_fields=True)
    return evolve(cfg), nl, np.geomspace(32.0 / 256.0, 32.0, 17)


def test_support_sums_match_full_torus_on_evolved_trajectory(evolved):
    traj, nl, r_grid = evolved
    assert functional_y(traj, nl, r_grid)["Y"] > 0.0
    _assert_matches_full_torus(traj, nl, r_grid, rtol=1e-13)


# x = -8, ..., 7 and integer sample times: q + t hits r/2 exactly (eta* = 1
# there, 0 just below), the last sorted point with q < r sits on that edge
# at t = 0, and q = 9 = max r is the first point outside every support.
_EDGE_RADII = np.array([2.0, 4.0, 8.0, 8.0 * (1.0 + 1e-9), 9.0])


def _edge_trajectory(outside):
    """Hand-built 1-d trajectory whose u is `outside` wherever q >= 9."""
    spec = GridSpec(1, 8.0, 16)
    x = spec.axis()
    times = np.arange(10.0)
    fields = [np.where(x * x < 9.0, 0.3 + 0.02 * x + 0.01 * t, outside) for t in times]
    return Trajectory(spec=spec, times=times, norms={},
                      outcome="CompletedHorizon", t_est=math.inf,
                      u_samples=fields)


def test_support_slices_keep_both_edges():
    # points past every support carry NaN: a slice that adds one poisons
    # the sum, and one that drops an edge point loses a term of weight
    # >= 1e-7 against the full-torus sums of the NaN-free copy
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    traj, clean = _edge_trajectory(math.nan), _edge_trajectory(0.0)
    assert eta_star(np.array([4.0 / 8.0, 4.0 / _EDGE_RADII[3]])).tolist() == [1.0, 0.0]
    for big_r in _EDGE_RADII:
        assert functional_ir(traj, nl, big_r) == pytest.approx(
            _ir_full_torus(clean, nl, big_r), rel=1e-13, abs=0.0)
    rep = functional_y(traj, nl, _EDGE_RADII)
    y, cum = _y_full_torus(clean, nl, _EDGE_RADII)
    np.testing.assert_allclose(rep["y"], y, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(rep["Y_cum"], cum, rtol=1e-13, atol=0.0)
    assert functional_y_exchanged(traj, nl, _EDGE_RADII) == pytest.approx(
        _y_exchanged_full_torus(clean, nl, _EDGE_RADII), rel=1e-13, abs=0.0)


def test_exchanged_path_catches_a_dropped_support_point(monkeypatch):
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    traj = _edge_trajectory(0.0)
    honest = testfunction._support_slices

    def drop_last(spec, radii):
        q, order, hi = honest(spec, radii)
        return q, order, hi - 1

    monkeypatch.setattr(testfunction, "_support_slices", drop_last)
    y = functional_y(traj, nl, _EDGE_RADII)["Y"]
    swapped = functional_y_exchanged(traj, nl, _EDGE_RADII)
    assert abs(y - swapped) > 1e-6 * abs(swapped)


def test_functional_ir_rejects_bad_radius():
    traj = _constant_trajectory(GridSpec(1, 64.0, 512), 0.1, 16.0, 20)
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    for big_r in (math.nan, -4.0, 0.0, math.inf):
        with pytest.raises(ValueError, match="^R must be positive and finite") as err:
            functional_ir(traj, nl, big_r)
        assert "\n" not in str(err.value)


@pytest.mark.parametrize("functional", [functional_y, functional_y_exchanged])
@pytest.mark.parametrize("r_grid", [[1.0, math.nan, 8.0], [8.0, 4.0, 2.0], [2.0, 2.0, 8.0],
                                    [0.0, 4.0, 8.0], [-1.0, 4.0, 8.0], [2.0, 4.0, math.inf],
                                    [[1.0, 2.0], [4.0, 8.0]], [8.0]], ids=str)
def test_functional_y_rejects_bad_radius_grid(functional, r_grid):
    traj = _constant_trajectory(GridSpec(1, 64.0, 512), 0.1, 16.0, 20)
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    with pytest.raises(ValueError, match="^r_grid must be") as err:
        functional(traj, nl, r_grid)
    assert "\n" not in str(err.value)


# -- Jensen -----------------------------------------------------------


def test_jensen_equality_for_constant_argument():
    weights = np.array([0.2, 1.3, 0.0, 2.0])
    values = np.full(4, 1.7)
    assert jensen_check(lambda t: t ** 2, values, weights) == pytest.approx(0.0, abs=1e-14)


def test_jensen_variance_identity():
    rng = np.random.default_rng(4)
    values = rng.uniform(0.0, 2.0, size=500)
    weights = np.ones_like(values)
    slack = jensen_check(np.square, values, weights)
    assert slack == pytest.approx(np.var(values), rel=1e-12)
    assert slack >= 0.0


def test_jensen_with_catalog_nonlinearity_and_weight():
    nl = Nonlinearity(catalog_make("invlog", p=1.0), 1)
    assert check_h_convexity(nl) >= -1e-10
    rng = np.random.default_rng(8)
    values = rng.uniform(0.0, 0.04, size=400)
    weights = eta_star(np.linspace(0.45, 1.05, 400)) ** 1  # psi*-derived
    slack = jensen_check(lambda t: nl.h_eval(t), values, weights)
    assert slack >= -1e-12


def test_jensen_rejects_bad_weights():
    with pytest.raises(ValueError):
        jensen_check(np.square, np.ones(3), np.zeros(3))
    with pytest.raises(ValueError):
        jensen_check(np.square, np.ones(3), np.array([1.0, -0.5, 0.2]))


# -- the certificate --------------------------------------------------


def test_certificate_convergent_class_bounded():
    mu = catalog_make("invlog", p=2.0)
    constant = weight_bound_constant(1, 16.0)
    report = blowup_certificate(mu, 1, y_r0=0.02, constant=constant, r0=16.0)
    assert report.verdict == "bounded-no-witness"
    assert not report.witness_in_principle
    assert report.lhs_final < report.budget


def test_certificate_divergent_class_reports_witness():
    mu = catalog_make("invlog", p=1.0)
    constant = weight_bound_constant(1, 16.0)
    report = blowup_certificate(mu, 1, y_r0=0.02, constant=constant, r0=16.0)
    assert report.witness_in_principle
    # the left side keeps growing with the scan range
    shorter = blowup_certificate(mu, 1, y_r0=0.02, constant=constant, r0=16.0,
                                 r_max=1e30)
    assert report.lhs_final > 1.5 * shorter.lhs_final


def test_certificate_power_class_bounded():
    mu = catalog_make("power", p=1.0)
    constant = weight_bound_constant(1, 16.0)
    report = blowup_certificate(mu, 1, y_r0=0.02, constant=constant, r0=16.0)
    assert report.verdict == "bounded-no-witness"


def test_certificate_crossing_when_budget_is_tiny():
    # with a large measured functional the budget shrinks and the
    # divergent integral crosses it within the scanned range
    mu = catalog_make("invlog", p=1.0)
    report = blowup_certificate(mu, 1, y_r0=5.0, constant=2.0, r0=16.0)
    assert report.certified
    assert math.isfinite(report.crossing_r)
    assert report.verdict == "witness-observed"


@pytest.mark.parametrize("kind, params, y_r0, constant, verdict, certified, witness", [
    ("invlog", dict(p=1.0), 5.0, 2.0, "witness-observed", True, True),
    ("invlog", dict(p=1.0), 0.02, None, "witness-beyond-range", False, True),
    ("invlog", dict(p=2.0), 0.02, None, "bounded-no-witness", False, False),
    # classify reports iterlog depth 3 Inconclusive; a tiny Y keeps its scan under budget
    ("iterlog", dict(p=2.0, depth=3), 1e-50, None, "inconclusive", False, False),
])
def test_certificate_flags_follow_the_verdict(kind, params, y_r0, constant, verdict,
                                              certified, witness):
    mu = catalog_make(kind, **params)
    constant = constant or weight_bound_constant(1, 16.0)
    report = blowup_certificate(mu, 1, y_r0=y_r0, constant=constant, r0=16.0)
    assert report.verdict == verdict
    assert report.certified is certified
    assert report.witness_in_principle is witness
    assert report.certified == math.isfinite(report.crossing_r)


def _certificate_by_loop(mu, n, ln_c2, budget, r0, r_max):
    """The shell loop `blowup_certificate` replaced, eight shells a decade,
    each given mu's continuation kink as a break point if it holds it:
    (lhs_final, crossing_r)."""

    def integrand(x):
        return mu.eval_neglog((n / 2.0) * x - ln_c2)

    x, x_end = math.log(r0), math.log(r_max)
    step = math.log(10.0) / 8
    kink = (-math.log(mu.continuation_point) + ln_c2) / (n / 2.0)
    total, crossing = 0.0, math.inf
    while x < x_end:
        hi = min(x + step, x_end)
        total += quad(integrand, x, hi, epsabs=1e-14, epsrel=1e-10,
                      points=[kink] if x < kink < hi else None)[0]
        x = hi
        if total > budget:
            crossing = math.exp(x)
            break
    return total, crossing


@pytest.mark.parametrize("kind, p, y_r0, constant, r_max, verdict", [
    ("invlog", 2.0, 0.02, None, 1e300, "bounded-no-witness"),
    ("invlog", 1.0, 0.02, None, 1e300, "witness-beyond-range"),
    ("invlog", 1.0, 0.02, None, 1e30, "witness-beyond-range"),
    ("power", 1.0, 0.02, None, 1e300, "bounded-no-witness"),
    ("invlog", 1.0, 5.0, 2.0, 1e300, "witness-observed"),
    ("invlog", 1.0, 0.02, None, 160.0, "witness-beyond-range"),
    # iterlog depth 1: the kink at x ~ 7.09 lies inside a shell before the crossing
    ("iterlog", 1.0, 5.0, 2.5, 1e300, "witness-observed"),
])
def test_certificate_matches_scalar_shell_loop(kind, p, y_r0, constant, r_max, verdict):
    mu = catalog_make(kind, p=p, depth=1 if kind == "iterlog" else None)
    constant = constant or weight_bound_constant(1, 16.0)
    report = blowup_certificate(mu, 1, y_r0=y_r0, constant=constant, r0=16.0, r_max=r_max)
    ln_c2 = math.log(y_r0) - math.log(constant ** 2 * math.log(2.0))
    lhs, crossing = _certificate_by_loop(mu, 1, ln_c2, report.budget, 16.0, r_max)
    assert report.verdict == verdict
    assert report.certified == math.isfinite(crossing)
    assert report.crossing_r == crossing
    assert report.lhs_final == pytest.approx(lhs, rel=1e-13, abs=0.0)


def test_certificate_merges_a_sliver_last_shell():
    # 240 steps of ln(10)/8 from log 1 stop 2e-13 short of log 1e30; that sliver,
    # on iterlog depth 3's steep continuation, is a piece the rule cannot accept
    mu = catalog_make("iterlog", p=1.0, depth=3)
    report = blowup_certificate(mu, 1, y_r0=1e-50, constant=weight_bound_constant(1, 1.0),
                                r0=1.0, r_max=1e30)
    assert report.verdict == "inconclusive" and report.lhs_final > 0.0


@pytest.mark.parametrize("bad", [dict(r_max=math.inf), dict(r_max=math.nan), dict(r_max=16.0),
                                 dict(r_max=4.0), dict(r0=0.0), dict(r0=math.nan)], ids=str)
def test_certificate_rejects_bad_ranges(bad):
    mu = catalog_make("invlog", p=1.0)
    with pytest.raises(ValueError):
        blowup_certificate(mu, 1, y_r0=0.02, constant=10.0, **{"r0": 16.0, **bad})


@pytest.mark.parametrize("n, y_r0", [(1, 1e-200), (2, 5e-324)])
def test_certificate_budget_past_double_range_is_infinite(n, y_r0):
    # c2 and Y(R0)^{2/n} underflow to 0 here; 1e-160 still forms both
    mu = catalog_make("invlog", p=1.0)
    constant = weight_bound_constant(n, 16.0)
    report = blowup_certificate(mu, n, y_r0=y_r0, constant=constant, r0=16.0)
    small = blowup_certificate(mu, n, y_r0=1e-160, constant=constant, r0=16.0)
    assert report.budget == math.inf
    assert report.verdict == small.verdict


def test_certificate_rejects_zero_functional():
    mu = catalog_make("invlog", p=1.0)
    with pytest.raises(ValueError):
        blowup_certificate(mu, 1, y_r0=0.0, constant=10.0, r0=16.0)
