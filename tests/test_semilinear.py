"""Tests for the split-step integrator, blow-up detection and fixed-point checks."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dwlab import semilinear
from dwlab.grid import (GridError, GridField, GridSpec, HalfSpectrum, WaveState, _sample_norms,
                        half_spectrum, lp_norm)
from dwlab.linear import propagate
from dwlab.modulus import Nonlinearity, PowerForcing, catalog_make, parse_forcing_spec
from dwlab.semilinear import (
    EvolveConfig,
    Outcome,
    a_norm,
    check_torus_size,
    evolve,
    make_data,
    picard_verify,
    xnorm_weight,
)


class ZeroForcing:
    def h_eval(self, s):
        return np.zeros_like(s)


class InfAtCall:
    """A wrapped nonlinearity whose h is infinite, everywhere or at one grid
    `point`, from its `call`-th evaluation on."""

    def __init__(self, inner, call, point=...):
        self.inner = inner
        self.call = call
        self.point = point
        self.calls = 0

    def h_eval(self, s):
        self.calls += 1
        out = self.inner.h_eval(s)
        if self.calls >= self.call:
            out[self.point] = np.inf
        return out


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


def _kernel_step(state, h_u, dt, nonlinearity):
    """One step of `evolve`'s kernel from the fields of `state`, whose h(u)
    is `h_u`: the new (u, u_t, h(u)), with u_t taken back to the grid."""
    half = half_spectrum(state.spec)
    carried = tuple(half.forward(f) for f in (state.u.values, state.v.values, h_u))
    (u, h_new), (_, v_hat, _), _ = semilinear._carried_step(half, carried, state.time, dt,
                                                            nonlinearity)
    return u, half.inverse(v_hat), h_new


def _phi_data(spec, amplitude, width):
    """Data (phi, 0) whose phi is make_data's Gaussian bump, scaled so the
    data norm equals amplitude; h(u(0)) is then nonzero."""
    bump = make_data(spec, width=width).v
    scale = amplitude / a_norm(WaveState(0.0, bump, GridField.zeros(spec)))
    return WaveState(0.0, GridField(spec, bump.values * scale), GridField.zeros(spec))


# -- stepping ---------------------------------------------------------


def test_step_reduces_to_linear_flow_without_forcing():
    spec = _spec()
    data = make_data(spec, amplitude=0.5, width=2.0)
    u, v, h_split = _kernel_step(data, np.zeros(spec.shape), 0.1, ZeroForcing())
    assert not np.any(h_split)
    exact = propagate(data, 0.1)
    assert np.max(np.abs(u - exact.u.values)) < 1e-12
    assert np.max(np.abs(v - exact.v.values)) < 1e-12


@pytest.mark.parametrize("spec", [GridSpec(1, 64.0, 512), GridSpec(2, 16.0, 64)],
                         ids=["1d", "2d"])
def test_step_is_kick_propagate_kick(spec):
    nl = Nonlinearity(catalog_make("invlog", p=2.0), spec.dimension)
    data = _phi_data(spec, amplitude=2.0, width=2.0)
    data = WaveState(0.5, data.u, GridField(spec, 0.3 * data.u.values))
    h_u, dt = nl.h_eval(data.u.values), 0.05
    u, v, h_out = _kernel_step(data, h_u, dt, nl)

    kicked = WaveState(data.time, data.u, GridField(spec, data.v.values + 0.5 * dt * h_u))
    drifted = propagate(kicked, dt)
    h_new = nl.h_eval(drifted.u.values)
    # the kernel kicks the spectra, not the fields, so the two part by round-off
    for got, want in ((h_out, h_new), (u, drifted.u.values),
                      (v, drifted.v.values + 0.5 * dt * h_new)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_step_rejects_a_bad_dt_as_an_argument_error(dt):
    # a NaN dt is not a blow-up, and an infinite one is refused before any arithmetic
    spec = _spec()
    data = make_data(spec, amplitude=0.5, width=2.0)
    with pytest.raises(ValueError, match="dt must be finite and exceed 0"):
        EvolveConfig(grid=spec, nonlinearity=ZeroForcing(), data=data, dt=dt, t_max=1.0)


def test_infinite_forcing_signals_blowup_at_attempt_start():
    spec = _spec()
    data = make_data(spec, amplitude=0.5, width=2.0)
    forcing = InfAtCall(PowerForcing(1.5), call=2)
    h_u = forcing.h_eval(data.u.values)
    with pytest.raises(semilinear._BlowupSignal) as caught:
        _kernel_step(data, h_u, 0.125, forcing)
    assert caught.value.time == data.time

    # an infinite h(u) of the data itself is an error, not a blow-up time
    cfg = EvolveConfig(grid=spec, nonlinearity=InfAtCall(PowerForcing(1.5), call=1),
                       data=data, dt=0.125, t_max=5.0)
    with pytest.raises(ValueError, match="initial data"):
        evolve(cfg)


@pytest.mark.parametrize("component, bad", [("v", math.nan), ("v", math.inf), ("v", -math.inf),
                                            ("u", math.nan), ("u", math.inf)])
def test_evolve_rejects_non_finite_data(component, bad):
    # bad data are an error, as for propagate; a bad u_t never meets h and
    # would otherwise surface in the first step as a blow-up at t = 0
    spec = GridSpec(1, 64.0, 256)
    data = make_data(spec, amplitude=0.5, width=2.0)
    getattr(data, component).values[3] = bad
    cfg = EvolveConfig(grid=spec, nonlinearity=parse_forcing_spec("invlog:p=2", 1), data=data,
                       dt=0.05, t_max=1.0)
    with pytest.raises(ValueError, match="cannot propagate a non-finite state"):
        evolve(cfg)


def test_overflowing_transform_signals_blowup_at_attempt_start():
    # finite data whose transform overflows; the forcing stays finite, so
    # the kernel's check of u and u_t is what signals
    spec = _spec()
    huge = GridField(spec, np.full(spec.shape, 1e308))
    data = WaveState(0.25, huge, GridField.zeros(spec))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(semilinear._BlowupSignal) as caught:
            _kernel_step(data, np.zeros(spec.shape), 0.125, ZeroForcing())
        assert caught.value.time == data.time
        traj = evolve(EvolveConfig(grid=spec, nonlinearity=ZeroForcing(), data=data,
                                   dt=0.125, t_max=5.0))
    assert traj.outcome == Outcome.BLEW_UP
    assert traj.t_est == data.time


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


@pytest.mark.parametrize("point", [..., 200], ids=["everywhere", "one-point"])
@pytest.mark.parametrize("call", [2, 3, 6, 12])
def test_evolve_reports_an_infinite_forcing_at_its_attempt(point, call):
    # evolve carries the spectrum of h(u), in which one bad value spreads to
    # every mode; h(u(0)) is call 1, so call k belongs to the attempt that
    # starts at (k - 2) dt
    spec = _spec()
    data = make_data(spec, amplitude=0.5, width=2.0)
    dt = 0.125
    cfg = EvolveConfig(grid=spec, nonlinearity=InfAtCall(PowerForcing(1.5), call, point),
                       data=data, dt=dt, t_max=5.0, keep_fields=False)
    traj = evolve(cfg)
    assert traj.outcome == Outcome.BLEW_UP
    assert traj.t_est == (call - 2) * dt


def _count_transforms(monkeypatch):
    """Patch numpy.fft to count forward and inverse real transforms; either grid
    calls rfft/irfft once per transform (a 2-d one adds its complex stage)."""
    counts = {"forward": 0, "inverse": 0}
    for name, kind in (("rfft", "forward"), ("irfft", "inverse")):
        def counted(*args, _kind=kind, _transform=getattr(np.fft, name), **kwargs):
            counts[_kind] += 1
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


def test_evolve_takes_two_transforms_per_attempt_and_u_t_when_undecided(monkeypatch):
    spec = _spec()
    nl = Nonlinearity(catalog_make("invlog", p=2.0), 1)
    data = make_data(spec, amplitude=0.5, width=2.0)
    dt, steps, stride = 0.125, 40, 8  # a binary dt: no step is clipped, none is rejected
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=dt, t_max=steps * dt,
                       sample_stride=stride, keep_fields=False)
    counts = _count_transforms(monkeypatch)
    traj = evolve(cfg)
    assert traj.outcome == Outcome.COMPLETED
    assert (traj.steps_accepted, traj.steps_rejected) == (steps, 0)
    assert len(traj.times) == steps // stride + 1
    # set-up: u, v and h(u) forward; an attempt: u back and h(u) forward; a
    # sample takes its norms from u and the carried u_hat, so no transform.
    # u_t goes back only when the bound on max|u_t| cannot accept the step,
    # which on decaying data is rare
    assert counts["forward"] == 3 + steps
    exact = counts["inverse"] - steps
    assert 0 <= exact <= steps // 10

    # with a bound that never decides, u_t goes back on every attempt; the old
    # state's size is then always known, so it is one exact inversion a step
    monkeypatch.setattr(HalfSpectrum, "sup_bound", lambda self, coeffs: math.inf)
    counts.update(forward=0, inverse=0)
    blind = evolve(cfg)
    assert counts == {"forward": 3 + steps, "inverse": 2 * steps}
    assert all(np.array_equal(blind.norms[key], traj.norms[key]) for key in traj.norms)


def _evolve_by_the_exact_rule(config, kernel=None, sample_norms=_sample_norms):
    """`evolve` without the bound: u_t goes back to the grid on every attempt
    and the growth rule reads the exact sizes, through `kernel` (by default
    the stepper's own) and h, with each sample's norms from `sample_norms`.
    Returns the trajectory's fields, the step counts and the smallest dt tried."""
    kernel = kernel or semilinear._carried_step
    half = half_spectrum(config.grid)
    time, u, v = config.data.time, config.data.u.values, config.data.v.values
    carried = tuple(half.forward(f) for f in (u, v, config.nonlinearity.h_eval(u)))
    size = float(np.max(np.abs(u)) + np.max(np.abs(v)))
    dt, dt_tried, accepted, rejected = config.dt, config.dt, 0, 0
    times, norms, u_samples = [time], [sample_norms(half, u, carried[0])], [u.copy()]
    sample_dt = config.dt * config.sample_stride
    next_sample = time + sample_dt
    outcome, t_est = Outcome.COMPLETED, math.inf
    while time < config.t_max - 1e-12:
        dt_step = min(dt, config.t_max - time, next_sample - time)
        dt_tried = min(dt_tried, dt)
        try:
            (u, _), candidate, sup_after = kernel(half, carried, time, dt_step, config.nonlinearity)
            sup_v = float(np.max(np.abs(half.inverse(candidate[1]))))
            if not math.isfinite(sup_v):
                raise semilinear._BlowupSignal(time)
        except semilinear._BlowupSignal:
            outcome, t_est = Outcome.BLEW_UP, time
            break
        size_after = sup_after + sup_v
        if size_after > 2.0 * max(size, 1e-14) and dt_step > semilinear.DT_MIN:
            rejected += 1
            dt = 0.5 * dt_step
            if dt < semilinear.DT_MIN:
                outcome, t_est = Outcome.STEP_COLLAPSE, time
                break
            continue
        accepted += 1
        carried, size, time = candidate, size_after, time + dt_step
        if sup_after > semilinear.BLOWUP_THRESHOLD:
            outcome, t_est = Outcome.BLEW_UP, time
            break
        if time >= next_sample - 1e-12 or time >= config.t_max - 1e-12:
            times.append(time)
            norms.append(sample_norms(half, u, carried[0]))
            u_samples.append(u.copy())
            while next_sample <= time + 1e-12:
                next_sample += sample_dt
    return (np.asarray(times), {key: np.array([s[key] for s in norms]) for key in norms[0]},
            outcome, t_est, u_samples), (accepted, rejected, dt_tried)


@pytest.mark.parametrize("forcing, amplitude, t_max, rejects", [
    (Nonlinearity(catalog_make("invlog", p=2.0), 1), 1.0, 20.0, False),
    (PowerForcing(1.5), 8.0, 50.0, False),
    (Nonlinearity(catalog_make("invlog", p=2.0), 1), 8.0, 50.0, True),
], ids=["invlog-decaying", "oracle-1.5-amplitude-8", "invlog-amplitude-8-halving"])
def test_evolve_makes_the_exact_rule_s_decisions_bit_for_bit(monkeypatch, forcing, amplitude,
                                                             t_max, rejects):
    spec = _spec()
    cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=make_data(spec, amplitude=amplitude,
                       width=2.0), dt=0.01, t_max=t_max, sample_stride=50)
    (times, norms, outcome, t_est, u_samples), stats = _evolve_by_the_exact_rule(cfg)
    counts = _count_transforms(monkeypatch)
    traj = evolve(cfg)
    assert np.array_equal(traj.times, times)
    assert all(np.array_equal(traj.norms[key], norms[key]) for key in norms)
    assert (traj.outcome, traj.t_est) == (outcome, t_est)
    assert len(traj.u_samples) == len(u_samples)
    assert all(np.array_equal(a, b) for a, b in zip(traj.u_samples, u_samples))
    assert (traj.steps_accepted, traj.steps_rejected, traj.dt_min) == stats
    assert (traj.steps_rejected > 0) == rejects
    attempts = traj.steps_accepted + traj.steps_rejected
    exact = counts["inverse"] - attempts
    if outcome == Outcome.COMPLETED:
        # while u grows from its zero data, max|u| is too small a lower bound
        # on the old size and every other step is decided exactly (64 of 2,000
        # inversions here, all before t = 0.65); after that the bound decides
        assert exact <= attempts // 20
    else:  # near blow-up the bound cannot decide, and the exact sizes do
        assert exact > 0


def _frozen_h(nonlinearity, u):
    """h(u) as plain expressions: |u|^q by pow for the oracle, else |u|^e by
    products (e = 1 + 2/n is 3 or 2) times mu.eval(|u|)."""
    a = np.abs(u)
    if isinstance(nonlinearity, PowerForcing):
        return a ** nonlinearity.exponent
    return (a * a * a if nonlinearity.dimension == 1 else a * a) * nonlinearity.modulus.eval(a)


def _frozen_kernel(half, carried, time, dt, nonlinearity):
    """One Strang step as plain expressions, for `_evolve_by_the_exact_rule`:
    the opening kick, the flow K0 u + K1 w and dK0 u + dK1 w, u back to the
    grid, h(u) there and forward, and the closing kick."""
    u_hat, v_hat, h_hat = carried
    K0, K1, dK0, dK1 = semilinear._flow_multipliers(half.spec, dt)
    w_hat = v_hat + 0.5 * dt * h_hat
    u_hat, v_hat = K0 * u_hat + K1 * w_hat, dK0 * u_hat + dK1 * w_hat
    u = half.inverse(u_hat)
    h_u = _frozen_h(nonlinearity, u)
    if not np.all(np.isfinite(h_u)):
        raise semilinear._BlowupSignal(time)
    h_hat = half.forward(h_u)
    v_hat = v_hat + 0.5 * dt * h_hat
    sup = float(np.max(np.abs(u)))
    if not math.isfinite(sup):
        raise semilinear._BlowupSignal(time)
    return (u, h_u), (u_hat, v_hat, h_hat), sup


def _frozen_norms(half, u, u_hat):
    """A sample's norms as plain expressions: Riemann sums of |u| and the
    Parseval sum of |xi|^2 |u_hat|^2 with the half-spectrum's column weights."""
    spec, magnitude = half.spec, np.abs(u)
    power = (u_hat.real ** 2 + u_hat.imag ** 2) * half.xi_sq
    h1_sq = float(np.sum(power @ half.weights)) * spec.cell / spec.points ** spec.dimension
    return {"L1": float(np.sum(magnitude) * spec.cell),
            "L2": float((np.sum(magnitude ** 2.0) * spec.cell) ** (1.0 / 2.0)),
            "Linf": float(np.max(magnitude)), "H1dot": math.sqrt(h1_sq)}


@pytest.mark.parametrize("dimension, forcing, amplitude, t_max, rejects", [
    (1, "invlog:p=2", 1.0, 10.0, False),
    (1, "power:p=1", 1.0, 10.0, False),
    (1, "oracle:q=1.5", 8.0, 10.0, False),
    (1, "invlog:p=2", 8.0, 50.0, True),
    (2, "invlog:p=2", 1.0, 5.0, False),
    (2, "power:p=1", 1.0, 5.0, False),
    (2, "oracle:q=1.5", 8.0, 5.0, False),
])
def test_evolve_is_the_frozen_kernel_bit_for_bit(dimension, forcing, amplitude, t_max, rejects):
    # the kernel's arithmetic pinned against plain expressions of the same
    # scheme: every u sample and norm of evolve, and its step decisions
    spec = _spec() if dimension == 1 else GridSpec(2, 16.0, 64)
    dt = 0.01 if dimension == 1 else 0.05
    cfg = EvolveConfig(grid=spec, nonlinearity=parse_forcing_spec(forcing, dimension),
                       data=make_data(spec, amplitude=amplitude, width=2.0), dt=dt, t_max=t_max,
                       sample_stride=25)
    (times, norms, outcome, t_est, u_samples), stats = _evolve_by_the_exact_rule(
        cfg, kernel=_frozen_kernel, sample_norms=_frozen_norms)
    traj = evolve(cfg)
    assert (traj.outcome, traj.t_est) == (outcome, t_est)
    assert np.array_equal(traj.times, times)
    assert traj.norms.keys() == norms.keys()
    assert all(np.array_equal(traj.norms[key], norms[key]) for key in norms)
    assert len(traj.u_samples) == len(u_samples) > 1
    assert all(np.array_equal(a, b) for a, b in zip(traj.u_samples, u_samples))
    assert (traj.steps_accepted, traj.steps_rejected, traj.dt_min) == stats
    assert (traj.steps_rejected > 0) == rejects


def test_a_non_finite_u_t_spectrum_ends_in_blowup():
    # h(u) is finite, 1e308 everywhere from the third call, but its transform
    # overflows, so the u_t spectrum of that attempt is not finite: the bound
    # cannot accept it and the exact path signals, at the attempt's start.
    # h(u(0)) is call 1, so from call 3 on the second attempt signals; with
    # one call made before the run, the first one does
    spec = _spec()

    class HugeFromCall:
        calls = 0

        def h_eval(self, s):
            self.calls += 1
            return np.full(s.shape, 1e308) if self.calls >= 3 else np.zeros(s.shape)

    data = make_data(spec, amplitude=0.5, width=2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = evolve(EvolveConfig(grid=spec, nonlinearity=HugeFromCall(), data=data,
                                   dt=0.125, t_max=5.0))
        assert (traj.outcome, traj.t_est) == (Outcome.BLEW_UP, 0.125)
        forcing = HugeFromCall()
        forcing.calls = 1
        traj = evolve(EvolveConfig(grid=spec, nonlinearity=forcing, data=data,
                                   dt=0.125, t_max=5.0))
    assert (traj.outcome, traj.t_est) == (Outcome.BLEW_UP, data.time)


def test_evolve_evaluates_forcing_once_per_step(monkeypatch):
    spec = _spec()
    forcing = CountingForcing(Nonlinearity(catalog_make("invlog", p=2.0), 1))
    data = make_data(spec, amplitude=0.5, width=2.0)
    dt, steps = 0.125, 40  # a binary dt: every time sum is exact and no step is clipped
    cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=data, dt=dt,
                       t_max=steps * dt, sample_stride=8)
    core = semilinear._carried_step
    returned = []

    def recording(*args):
        out = core(*args)
        returned.append(out)
        return out

    monkeypatch.setattr(semilinear, "_carried_step", recording)
    traj = evolve(cfg)
    assert traj.outcome == Outcome.COMPLETED
    assert forcing.calls == steps + 1
    assert len(returned) == steps
    half = half_spectrum(spec)
    (u_end, _), (_, v_hat_end, _), _ = returned[-1]
    assert np.array_equal(u_end, traj.u_samples[-1])
    v_end = half.inverse(v_hat_end)

    # evolve is a loop of the core, bit for bit
    nl = forcing.inner
    carried = tuple(half.forward(f) for f in (data.u.values, data.v.values, nl.h_eval(data.u.values)))
    for k in range(steps):
        (u, _), carried, _ = core(half, carried, k * dt, dt, nl)
    assert np.array_equal(u, u_end)
    assert np.array_equal(half.inverse(carried[1]), v_end)

    # a loop of the kernel on the fields agrees up to round-off
    state, h_u = data, nl.h_eval(data.u.values)
    for _ in range(steps):
        u, v, h_u = _kernel_step(state, h_u, dt, nl)
        state = WaveState(state.time + dt, GridField(spec, u), GridField(spec, v))
    assert traj.times[-1] == state.time
    assert np.max(np.abs(u_end - state.u.values)) <= 1e-14 * np.max(np.abs(state.u.values))
    # that loop takes v back to the grid and forward again every step, where the
    # core keeps v_hat.  Each round trip of a length-N real transform moves v
    # by O(eps log2 N) of max|v| and the damped flow does not amplify it, so
    # the loops part by at most steps * eps * log2 N of max|v|
    v_max = np.max(np.abs(state.v.values))
    assert np.max(np.abs(v_end - state.v.values)) <= steps * np.finfo(float).eps * math.log2(spec.points) * v_max


def test_forcing_reuse_keeps_blowup_with_halved_steps(monkeypatch):
    spec = _spec()
    data = make_data(spec, amplitude=20.0, width=2.0)
    core = semilinear._carried_step

    def run(step_fn):
        attempts, snapshots = [], []

        def traced(half, carried, time, dt, nonlinearity):
            attempts.append(carried)
            snapshots.append([a.copy() for a in carried])
            return step_fn(half, carried, time, dt, nonlinearity)

        monkeypatch.setattr(semilinear, "_carried_step", traced)
        forcing = CountingForcing(PowerForcing(1.5))
        cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=data, dt=0.1,
                           t_max=50.0, keep_fields=False)
        traj = evolve(cfg)
        # no attempt, rejected or not, changes the arrays it started from
        for carried, snapshot in zip(attempts, snapshots):
            assert all(np.array_equal(a, b) for a, b in zip(carried, snapshot))
        rejected = sum(a is b for a, b in zip(attempts, attempts[1:]))
        return traj, forcing.calls, len(attempts), rejected

    reused, calls, attempts, rejected = run(core)

    # recompute h(u) at every attempt instead of carrying the spectrum evolve passes
    def fresh_step(half, carried, time, dt, nl):
        u_hat, v_hat, _ = carried
        return core(half, (u_hat, v_hat, half.forward(nl.h_eval(half.inverse(u_hat)))), time, dt, nl)

    fresh, fresh_calls, fresh_attempts, _ = run(fresh_step)
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


def test_blowup_oracle_detects_finite_lifespan():
    spec = _spec()
    data = make_data(spec, amplitude=20.0, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data,
                       dt=0.005, t_max=50.0, keep_fields=False)
    traj = evolve(cfg)
    assert traj.outcome == Outcome.BLEW_UP
    assert 0.0 < traj.t_est < 50.0
    # the weighted norm diverges on the way to blow-up
    assert traj.xnorm > 100.0 * xnorm_weight(traj.times, 1, traj.norms)[0]


def test_steep_forcing_collapses_the_step():
    # h ~ |u|^11 outruns step halving: the step falls below DT_MIN while the
    # sup norm is still under BLOWUP_THRESHOLD, at a dt-independent time
    spec = GridSpec(1, 32.0, 256)
    forcing = PowerForcing(11.0)
    data = make_data(spec, amplitude=40.0, width=2.0)
    t_ests = []
    for dt in (0.05, 0.025, 0.0125):
        traj = evolve(EvolveConfig(grid=spec, nonlinearity=forcing, data=data, dt=dt,
                                   t_max=20.0, keep_fields=False))
        assert traj.outcome == Outcome.STEP_COLLAPSE
        assert 0.0 < traj.t_est < 20.0
        t_ests.append(traj.t_est)
    assert max(t_ests) - min(t_ests) < 1e-3


def _sampled_run(dimension, keep_fields=True):
    """A short invlog run on a small grid, sampled every fourth step."""
    spec = GridSpec(1, 64.0, 512) if dimension == 1 else GridSpec(2, 16.0, 64)
    nl = Nonlinearity(catalog_make("invlog", p=2.0), dimension)
    data = _phi_data(spec, amplitude=2.0, width=2.0)
    return evolve(EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.1, t_max=4.0,
                               sample_stride=4, keep_fields=keep_fields))


@pytest.mark.parametrize("dimension", [1, 2])
def test_sample_norms_match_the_kept_fields(dimension):
    # a sample's norms come from u and the carried u_hat; the full-field
    # norms of each kept u are the independent reference
    traj = _sampled_run(dimension)
    half = half_spectrum(traj.spec)
    assert len(traj.u_samples) == len(traj.times) == 11
    for i, u in enumerate(traj.u_samples):
        field = GridField(traj.spec, u)
        h1dot = math.sqrt(half.parseval(half.forward(u), half.xi_sq))
        assert traj.norms["H1dot"][i] == pytest.approx(h1dot, rel=1e-14, abs=0.0)
        for key, p in (("L1", 1), ("L2", 2), ("Linf", np.inf)):
            assert traj.norms[key][i] == lp_norm(field, p), key


@pytest.mark.parametrize("dimension", [1, 2])
def test_xnorm_is_the_max_of_the_sample_weights(dimension):
    traj = _sampled_run(dimension, keep_fields=False)
    # per sample on Python floats, independent of the array arithmetic
    weights = [xnorm_weight(float(t), dimension,
                            {key: float(traj.norms[key][i]) for key in traj.norms})
               for i, t in enumerate(traj.times)]
    assert abs(traj.xnorm / max(weights) - 1.0) <= 1e-15


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
    # h's exponent 1 + 2/n belongs to one n: the 2-d forcing would run this
    # 1-d grid with exponent 2 in place of 3 (a PowerForcing has no n)
    with pytest.raises(ValueError, match="built for dimension 2"):
        EvolveConfig(grid=spec, nonlinearity=Nonlinearity(catalog_make("invlog", p=2.0), 2),
                     data=data, dt=0.1, t_max=1.0)
    # NaN compares false both ways, so each bound is checked as lo < x < inf
    for key, bad in (("dt", math.nan), ("t_max", math.nan), ("t_max", math.inf)):
        kwargs = {"dt": 0.1, "t_max": 1.0, key: bad}
        with pytest.raises(ValueError, match=key):
            EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data, **kwargs)
    # a stride below one would never advance the next sample time; 2.5 would
    # sample every 2.5 steps and clip a step before each sample; True is an
    # int to Python but not a stride
    for stride in (0, -1, -3, 2.5, True):
        with pytest.raises(ValueError, match="sample_stride must be a positive integer"):
            EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data,
                         dt=0.1, t_max=1.0, sample_stride=stride)


def test_sample_stride_accepts_a_numpy_integer():
    data = make_data(_spec(), amplitude=0.5, width=2.0)
    cfg = EvolveConfig(grid=_spec(), nonlinearity=PowerForcing(1.5), data=data,
                       dt=0.125, t_max=1.5, sample_stride=np.int64(3), keep_fields=False)
    assert np.array_equal(evolve(cfg).times, np.arange(0.0, 1.75, 0.375))


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
        picard_verify(cfg, window_T=window_T, iterations=4)


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
    data = _phi_data(spec, amplitude=3.0, width=2.0)
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
