"""Tests for the split-step integrator, blow-up detection and fixed-point checks."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dwlab import semilinear
from dwlab.grid import GridError, GridField, GridSpec, WaveState
from dwlab.linear import propagate
from dwlab.modulus import Nonlinearity, PowerForcing, catalog_make
from dwlab.semilinear import (
    EvolveConfig,
    Outcome,
    a_norm,
    check_torus_size,
    evolve,
    make_data,
    picard_verify,
    step,
)


class ZeroForcing:
    def h_eval(self, s):
        return np.zeros_like(s)


class CountingForcing:
    """Counts the h evaluations of a wrapped nonlinearity."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def h_eval(self, s):
        self.calls += 1
        return self.inner.h_eval(s)


def _spec():
    return GridSpec(1, 64.0, 512)


def _ode_reference(forcing, u0, t_end):
    sol = solve_ivp(
        lambda t, y: [y[1], -y[1] + float(forcing.h_eval(np.array(y[0])))],
        (0.0, t_end), [u0, 0.0], rtol=1e-12, atol=1e-14)
    return sol.y[0, -1]


# -- stepping ---------------------------------------------------------


def test_step_reduces_to_linear_flow_without_forcing():
    spec = _spec()
    data = make_data(spec, amplitude=0.5, width=2.0)
    split, h_split = step(data, np.zeros(spec.shape), 0.1, ZeroForcing())
    assert not np.any(h_split)
    exact = propagate(data, 0.1)
    assert np.max(np.abs(split.u.values - exact.u.values)) < 1e-12
    assert np.max(np.abs(split.v.values - exact.v.values)) < 1e-12


def test_step_matches_scalar_ode():
    spec = _spec()
    forcing = PowerForcing(1.5)
    u0 = 0.3
    const = WaveState(0.0, GridField(spec, np.full(spec.shape, u0)),
                      GridField.zeros(spec))
    cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=const, dt=0.01,
                       t_max=2.0, sample_stride=200)
    traj = evolve(cfg)
    assert traj.u_samples[-1].flat[0] == pytest.approx(
        _ode_reference(forcing, u0, 2.0), abs=1e-5)


def test_step_order_two_convergence():
    spec = _spec()
    forcing = PowerForcing(1.5)
    u0 = 0.3
    const = WaveState(0.0, GridField(spec, np.full(spec.shape, u0)),
                      GridField.zeros(spec))
    ref = _ode_reference(forcing, u0, 1.0)
    errors = []
    for dt in (0.04, 0.02, 0.01):
        cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=const, dt=dt,
                           t_max=1.0, sample_stride=int(round(1.0 / dt)))
        traj = evolve(cfg)
        errors.append(abs(traj.u_samples[-1].flat[0] - ref))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_evolve_evaluates_forcing_once_per_step():
    spec = _spec()
    forcing = CountingForcing(Nonlinearity(catalog_make("invlog", p=2.0), 1))
    data = make_data(spec, amplitude=0.5, width=2.0)
    dt, steps = 0.125, 40  # a binary dt: every time sum is exact and no step is clipped
    cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=data, dt=dt,
                       t_max=steps * dt, sample_stride=8)
    traj = evolve(cfg)
    assert traj.outcome == Outcome.COMPLETED
    assert forcing.calls == steps + 1

    state, h_u = data, forcing.h_eval(data.u.values)
    for _ in range(steps):
        state, h_u = step(state, h_u, dt, forcing)
    assert traj.times[-1] == state.time
    assert np.max(np.abs(traj.u_samples[-1] - state.u.values)) <= 1e-14 * np.max(np.abs(state.u.values))
    assert np.max(np.abs(traj.v_samples[-1] - state.v.values)) <= 1e-14 * np.max(np.abs(state.v.values))


def test_forcing_reuse_keeps_blowup_with_halved_steps(monkeypatch):
    spec = _spec()
    data = make_data(spec, amplitude=20.0, width=2.0)
    plain_step = semilinear.step

    def run(step_fn):
        attempts = []

        def traced(state, h_u, dt, nonlinearity):
            attempts.append(state)
            return step_fn(state, h_u, dt, nonlinearity)

        monkeypatch.setattr(semilinear, "step", traced)
        forcing = CountingForcing(PowerForcing(1.5))
        cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=data, dt=0.1,
                           t_max=50.0, keep_fields=False)
        traj = evolve(cfg)
        rejected = sum(a is b for a, b in zip(attempts, attempts[1:]))
        return traj, forcing.calls, len(attempts), rejected

    reused, calls, attempts, rejected = run(plain_step)
    # recompute h(u) at every attempt instead of taking the one evolve passes
    fresh, fresh_calls, fresh_attempts, _ = run(
        lambda s, h_u, dt, nl: plain_step(s, nl.h_eval(s.u.values), dt, nl))
    assert rejected >= 2
    assert reused.outcome == fresh.outcome == Outcome.BLEW_UP
    assert reused.t_est == fresh.t_est
    assert attempts == fresh_attempts
    assert calls == attempts + 1
    assert fresh_calls == 2 * attempts + 1


# -- evolve -----------------------------------------------------------


def test_zero_data_stays_zero():
    spec = _spec()
    zero = WaveState(0.0, GridField.zeros(spec), GridField.zeros(spec))
    cfg = EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=zero,
                       dt=0.1, t_max=5.0)
    traj = evolve(cfg)
    assert traj.outcome == Outcome.COMPLETED
    assert traj.t_est == math.inf
    assert traj.xnorm == 0.0


def test_global_class_run_completes_with_decay():
    spec = GridSpec(1, 128.0, 1024)
    nl = Nonlinearity(catalog_make("invlog", p=2.0), 1)
    data = make_data(spec, amplitude=1e-2, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.05,
                       t_max=100.0, sample_stride=40, keep_fields=False)
    traj = evolve(cfg)
    assert traj.outcome == Outcome.COMPLETED
    linf = traj.norms["Linf"]
    assert linf[-1] < 0.2 * np.max(linf)
    assert np.all(np.diff(traj.xnorm_running) >= 0)


def test_blowup_oracle_detects_finite_lifespan():
    spec = _spec()
    data = make_data(spec, amplitude=20.0, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data,
                       dt=0.005, t_max=50.0, keep_fields=False)
    traj = evolve(cfg)
    assert traj.outcome == Outcome.BLEW_UP
    assert 0.0 < traj.t_est < 50.0
    # the weighted norm diverges on the way to blow-up
    assert traj.xnorm_running[-1] > 100.0 * traj.xnorm_running[0]


def test_times_strictly_increasing():
    spec = _spec()
    data = make_data(spec, amplitude=0.5, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data,
                       dt=0.05, t_max=10.0, sample_stride=7)
    traj = evolve(cfg)
    assert np.all(np.diff(traj.times) > 0)


def test_config_validation():
    spec = _spec()
    data = make_data(spec, amplitude=1.0, width=2.0)
    with pytest.raises(ValueError):
        EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data,
                     dt=-0.1, t_max=1.0)
    other = GridSpec(1, 64.0, 256)
    with pytest.raises(ValueError):
        EvolveConfig(grid=other, nonlinearity=PowerForcing(1.5), data=data,
                     dt=0.1, t_max=1.0)
    # NaN compares false both ways, so each bound is checked as lo < x < inf
    for key, bad in (("dt", math.nan), ("t_max", math.nan), ("t_max", math.inf),
                     ("dt_min", math.nan), ("dt_min", 0.0),
                     ("blowup_threshold", math.nan), ("blowup_threshold", 1.0)):
        kwargs = {"dt": 0.1, "t_max": 1.0, key: bad}
        with pytest.raises(ValueError, match=key):
            EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data, **kwargs)
    # a stride below one would never advance the next sample time
    for stride in (0, -3):
        with pytest.raises(ValueError, match="sample_stride"):
            EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data,
                         dt=0.1, t_max=1.0, sample_stride=stride)


# -- Picard / Duhamel -------------------------------------------------


def test_picard_zero_forcing_fixed_point():
    spec = _spec()
    data = make_data(spec, amplitude=0.1, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=ZeroForcing(), data=data,
                       dt=0.02, t_max=1.0)
    report = picard_verify(cfg, window_T=1.0, iterations=3)
    assert report["first_correction"] == 0.0
    assert report["contraction_factor"] == 0.0


@pytest.mark.parametrize("window_T", [math.inf, math.nan, -1.0, 0.0])
def test_picard_rejects_bad_window(window_T):
    spec = _spec()
    data = make_data(spec, amplitude=0.1, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=ZeroForcing(), data=data,
                       dt=0.02, t_max=1.0)
    with pytest.raises(ValueError, match="window_T"):
        picard_verify(cfg, window_T=window_T)


def test_picard_small_data_contraction_and_mismatch():
    spec = _spec()
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    data = make_data(spec, amplitude=1e-3, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.01, t_max=1.0)
    report = picard_verify(cfg, window_T=1.0, iterations=4)
    assert report["contraction_factor"] < 0.1
    assert report["mismatch_linf"] < 1e-4


def test_picard_fixed_point_is_the_split_solution():
    # On the step grid the trapezoid Duhamel sum is kick-drift-kick unrolled, so the
    # converged Picard iterate equals the split-step solution up to round-off.  Data in
    # phi make h(u(0)) nonzero, so a rectangle rule or a shifted lag shows up here.
    spec = GridSpec(1, 32.0, 256)
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    data = make_data(spec, amplitude=3.0, width=2.0, component="phi")
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.02, t_max=1.0)
    report = picard_verify(cfg, window_T=1.0, iterations=6)
    assert report["first_correction"] > 0.1
    assert report["mismatch_linf"] <= 1e-10


def test_picard_correction_scales_superlinearly():
    # n=1, power modulus p=1: h(u) = u^4, so amplitude doubling should
    # multiply the first Picard correction by about 2^4 = 16
    spec = _spec()
    nl = Nonlinearity(catalog_make("power", p=1.0), 1)
    firsts = []
    for eps in (1e-3, 2e-3):
        data = make_data(spec, amplitude=eps, width=2.0)
        cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.02, t_max=1.0)
        firsts.append(picard_verify(cfg, window_T=1.0, iterations=3)["first_correction"])
    ratio = firsts[1] / firsts[0]
    assert 12.0 < ratio < 20.0


# -- data construction ------------------------------------------------


def test_make_data_normalized_amplitude():
    spec = _spec()
    for eps in (1e-3, 1.0, 7.5):
        data = make_data(spec, amplitude=eps, width=2.0)
        assert a_norm(data) == pytest.approx(eps, rel=1e-12)


def test_make_data_zero_mean_variant():
    spec = _spec()
    data = make_data(spec, shape="dgaussian", amplitude=1.0, width=2.0)
    mean = float(np.sum(data.v.values)) * spec.cell
    assert abs(mean) < 1e-12
    with pytest.raises(ValueError):
        make_data(spec, shape="box")


@pytest.mark.parametrize("key, value", [("amplitude", math.nan), ("amplitude", math.inf),
                                        ("center", math.nan), ("width", math.nan),
                                        ("width", math.inf), ("width", 0.0), ("width", -2.0)])
def test_make_data_names_bad_parameter(key, value):
    with pytest.raises(ValueError, match=key):
        make_data(_spec(), **{"amplitude": 1.0, "width": 2.0, key: value})


def test_make_data_allows_zero_and_negative_amplitude():
    spec = _spec()
    assert a_norm(make_data(spec, amplitude=0.0, width=2.0)) == 0.0
    assert make_data(spec, amplitude=-1.0, width=2.0).v.values.max() <= 0.0


def test_torus_size_guard():
    spec = _spec()  # half_length 64
    check_torus_size(spec, t_max=50.0, data_radius=8.0)
    with pytest.raises(GridError):
        check_torus_size(spec, t_max=100.0, data_radius=8.0)
    with pytest.raises(GridError):
        check_torus_size(spec, t_max=math.nan, data_radius=8.0)
