"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line on the real stdout (bypassing
capture) so the gate's verdicts are visible in any pytest log.
"""

import math
import sys
import time
from functools import lru_cache

import numpy as np
import pytest

from dwlab.grid import GridField, GridSpec, WaveState, gn_check, lp_norm
from dwlab.linear import decay_fit, linear_norm_series, multipliers, propagate
from dwlab.modulus import (Nonlinearity, PowerForcing, catalog_make,
                           classify_dini)
from dwlab.semilinear import EvolveConfig, Outcome, evolve, make_data
from dwlab.testfunction import (functional_ir, functional_y,
                                functional_y_exchanged, jensen_check,
                                psi_weights, wave_operator_on_weight,
                                weight_bound_constant)

CATALOG = [
    ("power", 0.5, None, "Convergent"),
    ("power", 1.0, None, "Convergent"),
    ("logplus", 1.0, None, "Convergent"),
    ("invlog", 0.5, None, "Divergent"),
    ("invlog", 1.0, None, "Divergent"),
    ("invlog", 2.0, None, "Convergent"),
    ("iterlog", 1.0, 1, "Divergent"),
    ("iterlog", 2.0, 1, "Convergent"),
]


def _verdict(capsys, number, label, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({label}): {status}", flush=True)
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def _gaussian_state(spec, width=2.0):
    def bump(*coords):
        return np.exp(-sum(c ** 2 for c in coords) / width ** 2)

    return WaveState(0.0, GridField.zeros(spec),
                     GridField.from_function(spec, bump))


@lru_cache(maxsize=None)
def _linear_slopes(n, half_length, points):
    spec = GridSpec(n, half_length, points)
    series = linear_norm_series(_gaussian_state(spec),
                                np.geomspace(20.0, 2000.0, 45))
    window = (50.0, 2000.0)
    return {norm: decay_fit(series, norm, window).exponent
            for norm in ("Linf", "L2", "H1dot")}


# -- 1: linear decay rates --------------------------------------------


def test_criterion_1_linear_decay_rates(capsys):
    failures = []
    for n, points in ((1, 2 ** 14), (2, 1024)):
        t0 = time.perf_counter()
        slopes = _linear_slopes(n, 2100.0, points)
        elapsed = time.perf_counter() - t0
        expected = {"Linf": -n / 2.0, "L2": -n / 4.0, "H1dot": -(n + 2.0) / 4.0}
        for norm, want in expected.items():
            got = slopes[norm]
            if abs(got - want) > 0.1:
                failures.append(f"n={n} {norm} slope {got:.4f} vs {want:.2f}")
        if elapsed > 120.0:
            failures.append(f"n={n} runtime {elapsed:.1f}s exceeds 2 min")
    _verdict(capsys, 1, "linear decay rates", failures)


# -- 2: propagator exactness ------------------------------------------


def test_criterion_2_propagator_exactness(capsys):
    failures = []
    spec = GridSpec(1, 64.0, 1024)
    state = _gaussian_state(spec)

    once = propagate(state, 3.7)
    twice = propagate(propagate(state, 1.2), 2.5)
    gap = max(np.max(np.abs(once.u.values - twice.u.values)),
              np.max(np.abs(once.v.values - twice.v.values)))
    if gap > 1e-10:
        failures.append(f"semigroup gap {gap:.2e} > 1e-10")

    mass_g = float(np.sum(state.v.values)) * spec.cell
    for t in (0.5, 2.0, 10.0, 40.0):
        mass = float(np.sum(propagate(state, t).u.values)) * spec.cell
        want = mass_g * (1.0 - math.exp(-t))
        if abs(mass - want) > 1e-8:
            failures.append(f"mass law at t={t}: {mass - want:.2e}")

    t = 2.0
    for z in (0.2, 0.249, -0.2, -0.249):
        sigma = z / t ** 2
        K0, K1, *_ = multipliers(np.array([0.25 - sigma]), t)
        b, env = math.sqrt(abs(sigma)), math.exp(-t / 2.0)
        osc = math.sinh if sigma > 0 else math.sin
        cos = math.cosh if sigma > 0 else math.cos
        exact1 = env * osc(b * t) / b
        exact0 = env * (cos(b * t) + 0.5 * osc(b * t) / b)
        gap = max(abs(K0[0] - exact0), abs(K1[0] - exact1))
        if gap > 1e-8:
            failures.append(f"band continuity at z={z}: {gap:.2e}")
    _verdict(capsys, 2, "propagator exactness", failures)


# -- 3: Dini classifier vs catalog ------------------------------------


def test_criterion_3_classifier_catalog(capsys):
    failures = []
    t0 = time.perf_counter()
    for kind, p, depth, label in CATALOG:
        mu = catalog_make(kind, p=p, depth=depth)
        report = classify_dini(mu)
        if report.dini_verdict.value != label:
            failures.append(f"{kind} p={p}: {report.dini_verdict.value} vs {label}")
        if mu.analytic_dini_label is not None \
                and mu.analytic_dini_label is not report.dini_verdict:
            failures.append(f"{kind} p={p}: quadrature disagrees with label")
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append(f"catalog classification took {elapsed:.1f}s > 10s")
    _verdict(capsys, 3, "classifier vs catalog", failures)


# -- 4: global-existence vs blow-up dichotomy -------------------------


def _dichotomy_run(forcing, t_max, keep_fields=False, stride=40):
    spec = GridSpec(1, 512.0, 4096)
    data = make_data(spec, amplitude=1.0, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=data, dt=0.05,
                       t_max=t_max, sample_stride=stride,
                       keep_fields=keep_fields)
    return evolve(cfg)


def _forcing_integral(traj, forcing):
    norms = [math.sqrt(float(np.sum(forcing.h_eval(np.abs(u)) ** 2))
                       * traj.spec.cell) for u in traj.u_samples]
    return float(np.trapezoid(norms, traj.times))


def test_criterion_4_dichotomy(capsys):
    failures = []
    mild = Nonlinearity(catalog_make("invlog", p=2.0), 1)
    traj = _dichotomy_run(mild, 500.0)
    if traj.outcome != Outcome.COMPLETED:
        failures.append(f"convergent-class run ended {traj.outcome}")
    else:
        series = {"t": traj.times, **traj.norms}
        slope = decay_fit(series, "Linf", (40.0, 500.0)).exponent
        if slope > -0.4:
            failures.append(f"convergent-class Linf slope {slope:.3f} > -0.4")

    oracle = _dichotomy_run(PowerForcing(1.5), 500.0)
    if oracle.outcome != Outcome.BLEW_UP or not oracle.t_est < 500.0:
        failures.append(f"sub-critical oracle: {oracle.outcome} t={oracle.t_est}")

    integrals = {}
    for p in (1.0, 2.0):
        forcing = Nonlinearity(catalog_make("invlog", p=p), 1)
        run = _dichotomy_run(forcing, 100.0, keep_fields=True)
        if run.outcome != Outcome.COMPLETED:
            failures.append(f"invlog p={p} did not reach the common window")
        integrals[p] = _forcing_integral(run, forcing)
    if not integrals[1.0] > integrals[2.0]:
        failures.append(f"forcing integrals not ordered: {integrals}")
    _verdict(capsys, 4, "existence/blow-up dichotomy", failures)


# -- 5: Picard/Duhamel cross-validation -------------------------------


def test_criterion_5_picard_duhamel(capsys):
    from dwlab.semilinear import picard_verify

    failures = []
    spec = GridSpec(1, 64.0, 512)
    nl = Nonlinearity(catalog_make("invlog", p=2.0), 1)
    data = make_data(spec, amplitude=1e-3, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.01,
                       t_max=1.0)
    report = picard_verify(cfg, window_T=1.0, iterations=4)
    if not report["contraction_factor"] < 0.5:
        failures.append(f"contraction {report['contraction_factor']:.3g} >= 0.5")
    if not report["mismatch_linf"] < 1e-4:
        failures.append(f"mismatch {report['mismatch_linf']:.3g} >= 1e-4")
    _verdict(capsys, 5, "Picard/Duhamel cross-validation", failures)


# -- 6: test-function chain -------------------------------------------


def test_criterion_6_test_function_chain(capsys):
    failures = []
    # pointwise bound with one calibrated constant per dimension
    for n, points in ((1, 512), (2, 64)):
        constant = weight_bound_constant(n, r0=16.0)
        spec = GridSpec(n, 64.0, points)
        x_sq = sum(c ** 2 for c in spec.meshgrid())
        for big_r in (16.0, 32.0, 64.0):
            for t in np.linspace(0.0, big_r, 41):
                lhs = np.abs(wave_operator_on_weight(t, x_sq, big_r, n))
                star = psi_weights(x_sq + t, big_r, n)[1]
                rhs = constant / big_r * star ** (n / (n + 2.0))
                if np.any(lhs > rhs * (1.0 + 1e-9) + 1e-300):
                    worst = float(np.max(lhs - rhs))
                    failures.append(f"pointwise bound n={n} R={big_r}: {worst:.2e}")
                    break

    # Y(R) <= log 2 * I_R and the order-exchange oracle on a real run
    spec = GridSpec(1, 80.0, 512)
    nl = Nonlinearity(catalog_make("invlog", p=1.0), 1)
    data = make_data(spec, amplitude=1.0, width=2.0)
    cfg = EvolveConfig(grid=spec, nonlinearity=nl, data=data, dt=0.05,
                       t_max=64.0, sample_stride=5, keep_fields=True)
    traj = evolve(cfg)
    if traj.outcome != Outcome.COMPLETED:
        failures.append(f"chain trajectory ended {traj.outcome}")
    r_grid = np.geomspace(0.25, 64.0, 33)
    rep = functional_y(traj, nl, r_grid)
    for r, y_cum in zip(rep["r"], rep["Y_cum"]):
        i_r = functional_ir(traj, nl, r)
        if y_cum > math.log(2.0) * i_r + 1e-12:
            failures.append(f"Y({r:.3g}) = {y_cum:.3g} > log2 * {i_r:.3g}")
            break
    swapped = functional_y_exchanged(traj, nl, r_grid)
    rel = abs(swapped - rep["Y"]) / abs(rep["Y"])
    if rel > 1e-6:
        failures.append(f"order-exchange mismatch {rel:.2e} > 1e-6")
    _verdict(capsys, 6, "test-function chain", failures)


# -- 7: generalized Jensen property suite -----------------------------


def test_criterion_7_jensen_suite(capsys):
    failures = []
    rng = np.random.default_rng(2024)
    h_pool = [Nonlinearity(catalog_make(kind, p=p, depth=depth), n).h_eval
              for kind, p, depth, _ in CATALOG for n in (1, 2)]
    phis = [np.square, lambda t: t ** 4, np.expm1] + h_pool
    violations = 0
    for trial in range(1000):
        phi = phis[rng.integers(len(phis))]
        size = int(rng.integers(2, 60))
        scale = 10.0 ** rng.uniform(-3, 1)
        values = scale * rng.random(size)
        weights = rng.random(size)
        weights[rng.random(size) < 0.2] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
        if jensen_check(phi, values, weights) < -1e-12:
            violations += 1
    if violations:
        failures.append(f"{violations} Jensen violations beyond 1e-12 slack")
    _verdict(capsys, 7, "Jensen property suite", failures)


# -- 8: Gagliardo-Nirenberg ratios ------------------------------------


def _smooth_random_field(spec, rng):
    noise = np.fft.fftn(rng.standard_normal(spec.shape))
    filt = np.exp(-spec.wavenumber_sq())
    return GridField(spec, np.fft.ifftn(noise * filt).real)


def test_criterion_8_gagliardo_nirenberg(capsys):
    failures = []
    rng = np.random.default_rng(99)
    spec2 = GridSpec(2, 4.0, 64)
    for _ in range(20):
        ratio = gn_check(_smooth_random_field(spec2, rng))["ratio_low"]
        if abs(ratio - 1.0) > 1e-12:
            failures.append(f"n=2 identity ratio off by {ratio - 1.0:.2e}")
            break

    spec1 = GridSpec(1, 10.0, 256)
    ratios = []
    for _ in range(200):
        report = gn_check(_smooth_random_field(spec1, rng))
        ratios += [report["ratio_low"], report["ratio_high"]]
    if not (0.0 < min(ratios) and max(ratios) < 10.0):
        failures.append(f"n=1 ratios unbounded: [{min(ratios):.3g}, {max(ratios):.3g}]")

    base = None
    for lam in (1.0, 2.0, 4.0):
        spec = GridSpec(1, 20.0, 1024)
        f = GridField.from_function(spec, lambda x: np.exp(-(lam * x) ** 2))
        report = gn_check(f)
        if base is None:
            base = report
            continue
        for key in ("ratio_low", "ratio_high"):
            rel = abs(report[key] - base[key]) / base[key]
            if rel > 1e-6:
                failures.append(f"dilation drift {key} at lam={lam}: {rel:.2e}")
    _verdict(capsys, 8, "Gagliardo-Nirenberg ratios", failures)


# -- 9: numerical robustness ------------------------------------------


def test_criterion_9_robustness(capsys):
    failures = []
    # torus doubling at fixed resolution dx: slopes must be stable
    small = _linear_slopes(1, 2100.0, 2 ** 14)
    big = _linear_slopes(1, 4200.0, 2 ** 15)
    for norm in ("Linf", "L2", "H1dot"):
        drift = abs(big[norm] - small[norm])
        if drift >= 0.02:
            failures.append(f"{norm} slope drift {drift:.4f} >= 0.02")

    # dt halving moves the estimated lifespan by less than a sample stride
    spec = GridSpec(1, 64.0, 512)
    data = make_data(spec, amplitude=20.0, width=2.0)
    t_ests = []
    for dt, stride in ((0.01, 50), (0.005, 100)):
        cfg = EvolveConfig(grid=spec, nonlinearity=PowerForcing(1.5), data=data,
                           dt=dt, t_max=50.0, sample_stride=stride,
                           keep_fields=False)
        traj = evolve(cfg)
        if traj.outcome != Outcome.BLEW_UP:
            failures.append(f"dt={dt} run did not blow up")
        t_ests.append(traj.t_est)
    if abs(t_ests[1] - t_ests[0]) >= 0.5:
        failures.append(f"T_est moved {abs(t_ests[1] - t_ests[0]):.3f} >= 0.5")
    _verdict(capsys, 9, "numerical robustness", failures)
