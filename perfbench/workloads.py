"""The four dwlab workloads: inputs from a seed, set-up, one pass, checks.

Every workload is a dict of functions:

    inputs(seed, tiny)  -> plain parameters (the seed only perturbs them)
    build(params, work_dir) -> objects dwlab needs before the pass (set-up)
    run(built)          -> the pass's outputs, from dwlab's public API only
    items(result, built) -> work done in the pass, in the workload's unit
    checks(result, built) -> [(name, ok, detail)], physics checks that can fail
    reference(result, built) -> {key: (kind, value[, tolerance])} compared
                           against the stored reference for the default seed

The code reaches dwlab through module attributes at call time
(``linear.linear_norm_series``), so a traced run sees its wrappers.  `tiny`
shrinks every size for the harness self-test; the benchmark never uses it.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
LEMMA_RATES = {"Linf": lambda n: -n / 2.0, "L2": lambda n: -n / 4.0,
               "H1dot": lambda n: -(n + 2.0) / 4.0}
CATALOG = [("power", 0.5, None, "Convergent"), ("power", 1.0, None, "Convergent"),
           ("logplus", 1.0, None, "Convergent"), ("invlog", 0.5, None, "Divergent"),
           ("invlog", 1.0, None, "Divergent"), ("invlog", 2.0, None, "Convergent"),
           ("iterlog", 1.0, 1, "Divergent"), ("iterlog", 2.0, 1, "Convergent")]


def _jitter(seed):
    """Uniform draws in [-1, 1); all zero for the default seed (the README configs)."""
    rng = np.random.default_rng(seed)
    return lambda: 0.0 if seed == DEFAULT_SEED else float(rng.uniform(-1.0, 1.0))


def _data(spec, amplitude, width, center):
    from dwlab import semilinear
    return semilinear.make_data(spec, amplitude=amplitude, width=width, center=center)


def _torus(spec, t_max, width, center):
    from dwlab import semilinear
    # the CLI's wrap-around guard: Gaussian tails end 4 widths from the centre
    semilinear.check_torus_size(spec, t_max, abs(center) + 4.0 * width)


# -- linear-decay -----------------------------------------------------


def linear_inputs(seed, tiny):
    u = _jitter(seed)
    if tiny:
        grids, times, window = [(1, 256.0, 1024), (2, 64.0, 64)], (1.0, 40.0, 25), [1.0, 40.0]
    else:
        grids, times, window = [(1, 1050.0, 8192), (2, 1050.0, 512)], (20.0, 1000.0, 30), [50.0, 1000.0]
    return {"grids": grids, "times": times, "window": window,
            "width": 2.0 * (1.0 + 0.05 * u()), "center": 1.0 * u()}


def linear_build(p, work_dir):
    from dwlab.grid import GridSpec
    cases = []
    for n, half_length, points in p["grids"]:
        spec = GridSpec(n, half_length, points)
        _torus(spec, p["times"][1], p["width"], p["center"])
        cases.append((n, _data(spec, 1.0, p["width"], p["center"])))
    return {"cases": cases, "times": np.geomspace(*p["times"]), "window": tuple(p["window"])}


def linear_run(b):
    from dwlab import linear
    out = {}
    for n, data in b["cases"]:
        series = linear.linear_norm_series(data, b["times"])
        out[n] = {"series": series,
                  "slopes": {norm: linear.decay_fit(series, norm, b["window"]).exponent
                             for norm in LEMMA_RATES}}
    return out


def linear_items(result, b):
    return sum(len(r["series"]["t"]) for r in result.values())


def linear_checks(result, b):
    checks = []
    for n, r in result.items():
        for norm, rate in LEMMA_RATES.items():
            got, want = r["slopes"][norm], rate(n)
            checks.append((f"n={n} {norm} slope", abs(got - want) <= 0.1,
                           f"{got:.4f} vs {want:.2f} (within 0.1)"))
    return checks


def linear_reference(result, b):
    ref = {}
    for n, r in result.items():
        for key in ("L1", "L2", "Linf", "H1dot", "energy"):
            ref[f"n={n} {key}"] = ("rel", r["series"][key])
        for norm, slope in r["slopes"].items():
            ref[f"n={n} {norm} slope"] = ("rel", slope)
    return ref


# -- semilinear-decay -------------------------------------------------


def semilinear_inputs(seed, tiny):
    u = _jitter(seed)
    width = 2.0 * (1.0 + 0.03 * u())
    run = ({"grid": (1, 64.0, 512), "dt": 0.05, "t_max": 20.0, "stride": 10, "window": [0.5, 20.0]}
           if tiny else
           {"grid": (1, 512.0, 4096), "dt": 0.05, "t_max": 100.0, "stride": 20, "window": [8.0, 100.0]})
    picard = ({"grid": (1, 32.0, 128), "dt": 0.05, "window_T": 1.0} if tiny else
              {"grid": (1, 64.0, 512), "dt": 0.01, "window_T": 0.25})
    run.update(amplitude=1.0 + 0.03 * u(), width=width, center=0.5 * u())
    picard.update(amplitude=1e-3 * (1.0 + 0.03 * u()), width=width, iterations=4)
    return {"modulus": ("invlog", 2.0), "run": run, "picard": picard}


def semilinear_build(p, work_dir):
    from dwlab import modulus
    from dwlab.grid import GridSpec
    from dwlab.semilinear import EvolveConfig
    forcing = modulus.Nonlinearity(modulus.catalog_make(*p["modulus"]), 1)
    r, q = p["run"], p["picard"]
    spec = GridSpec(*r["grid"])
    _torus(spec, r["t_max"], r["width"], r["center"])
    run_cfg = EvolveConfig(grid=spec, nonlinearity=forcing,
                           data=_data(spec, r["amplitude"], r["width"], r["center"]),
                           dt=r["dt"], t_max=r["t_max"], sample_stride=r["stride"],
                           keep_fields=False)
    pspec = GridSpec(*q["grid"])
    picard_cfg = EvolveConfig(grid=pspec, nonlinearity=forcing,
                              data=_data(pspec, q["amplitude"], q["width"], 0.0),
                              dt=q["dt"], t_max=q["window_T"])
    return {"run": run_cfg, "picard": picard_cfg, "p": p}


def semilinear_run(b):
    from dwlab import linear, semilinear
    traj = semilinear.evolve(b["run"])
    series = {"t": traj.times, **traj.norms}
    slope = linear.decay_fit(series, "Linf", tuple(b["p"]["run"]["window"])).exponent \
        if traj.outcome == semilinear.Outcome.COMPLETED else math.nan
    q = b["p"]["picard"]
    picard = semilinear.picard_verify(b["picard"], window_T=q["window_T"],
                                      iterations=q["iterations"])
    return {"outcome": traj.outcome, "series": series, "slope": slope, "picard": picard}


def semilinear_items(result, b):
    # accepted steps at the configured dt; the float-time sliver steps are no work
    run = b["p"]["run"]
    return round(run["t_max"] / run["dt"])


def semilinear_checks(result, b):
    pic = result["picard"]
    return [
        ("outcome", result["outcome"] == "CompletedHorizon", result["outcome"]),
        ("Linf slope", result["slope"] <= -0.4, f"{result['slope']:.4f} <= -0.4"),
        ("Picard contraction", pic["contraction_factor"] < 0.5,
         f"{pic['contraction_factor']:.3g} < 0.5"),
        ("Picard mismatch", pic["mismatch_linf"] < 1e-4, f"{pic['mismatch_linf']:.3g} < 1e-4"),
    ]


def semilinear_reference(result, b):
    ref = {"outcome": ("exact", result["outcome"]), "Linf slope": ("rel", result["slope"]),
           "Picard first correction": ("rel", result["picard"]["first_correction"])}
    for key, values in result["series"].items():
        ref[f"series {key}"] = ("rel", values)
    return ref


# -- certificate ------------------------------------------------------


def certificate_inputs(seed, tiny):
    u = _jitter(seed)
    # (dimension, L, N, radii): cut from the README/acceptance sizes so one pass takes a few seconds
    cases = ([(1, 40.0, 128, 9), (2, 40.0, 32, 9)] if tiny
             else [(1, 80.0, 512, 17), (2, 48.0, 64, 9)])
    return {"cases": cases, "R": 16.0 if tiny else 32.0, "r0": 4.0 if tiny else 16.0,
            "dt": 0.05, "stride": 5, "modulus": ("invlog", 1.0),
            "amplitude": 1.0 + 0.03 * u(), "width": 2.0 * (1.0 + 0.03 * u()),
            "center": 0.5 * u(), "catalog": CATALOG[:2] if tiny else CATALOG}


def certificate_build(p, work_dir):
    from dwlab import modulus
    from dwlab.grid import GridSpec
    from dwlab.semilinear import EvolveConfig
    cases = []
    for n, half_length, points, radii in p["cases"]:
        spec = GridSpec(n, half_length, points)
        _torus(spec, p["R"], p["width"], p["center"])
        forcing = modulus.Nonlinearity(modulus.catalog_make(*p["modulus"]), n)
        cfg = EvolveConfig(grid=spec, nonlinearity=forcing,
                           data=_data(spec, p["amplitude"], p["width"], p["center"]),
                           dt=p["dt"], t_max=p["R"], sample_stride=p["stride"],
                           keep_fields=True)
        cases.append((n, cfg, radii))
    catalog = [(modulus.catalog_make(kind, p=power, depth=depth), label)
               for kind, power, depth, label in p["catalog"]]
    return {"cases": cases, "catalog": catalog, "r0": p["r0"], "R": p["R"], "p": p}


def certificate_run(b):
    from dwlab import modulus, semilinear, testfunction
    out = {}
    for n, cfg, radii in b["cases"]:
        traj = semilinear.evolve(cfg)
        forcing = cfg.nonlinearity
        r_probe = min(b["R"], float(traj.times[-1]))
        constant = testfunction.weight_bound_constant(n, b["r0"])
        i_r = testfunction.functional_ir(traj, forcing, r_probe)
        r_grid = np.geomspace(r_probe / 256.0, r_probe, radii)
        y = testfunction.functional_y(traj, forcing, r_grid)
        y_exchanged = testfunction.functional_y_exchanged(traj, forcing, r_grid)
        report = testfunction.blowup_certificate(forcing.modulus, n, y["Y"], constant, b["r0"])
        samples = int(np.count_nonzero(traj.times <= r_probe + 1e-12))
        out[n] = {"traj": traj, "outcome": traj.outcome, "constant": constant, "I_R": i_r,
                  "y": y, "Y_exchanged": y_exchanged, "verdict": report.verdict,
                  "budget": report.budget, "slices": radii * samples}
    out["catalog"] = [(modulus.classify_dini(mu).dini_verdict.value, label)
                      for mu, label in b["catalog"]]
    return out


def certificate_items(result, b):
    return sum(r["slices"] for key, r in result.items() if key != "catalog")


def certificate_checks(result, b):
    from dwlab import testfunction
    checks = []
    for n, cfg, _ in b["cases"]:
        r = result[n]
        y = r["y"]
        checks.append((f"n={n} outcome", r["outcome"] == "CompletedHorizon", r["outcome"]))
        rel = abs(r["Y_exchanged"] - y["Y"]) / abs(y["Y"])
        checks.append((f"n={n} exchanged Y", rel <= 1e-6, f"relative gap {rel:.2e} <= 1e-6"))
        worst = max(y_cum - math.log(2.0) * testfunction.functional_ir(r["traj"], cfg.nonlinearity, r_k)
                    for r_k, y_cum in zip(y["r"], y["Y_cum"]))
        checks.append((f"n={n} Y(r) <= log2 I_r", worst <= 1e-12,
                       f"max Y(r) - log2 I_r = {worst:.3g} over {len(y['r'])} radii"))
    for (got, want), (kind, power, depth, _) in zip(result["catalog"], b["p"]["catalog"]):
        checks.append((f"classify {kind} p={power}" + (f" depth={depth}" if depth else ""),
                       got == want, f"{got} vs {want}"))
    return checks


def certificate_reference(result, b):
    ref = {}
    for n, r in result.items():
        if n == "catalog":
            continue
        ref.update({f"n={n} C": ("rel", r["constant"]), f"n={n} I_R": ("rel", r["I_R"]),
                    f"n={n} y": ("rel", r["y"]["y"]), f"n={n} Y_cum": ("rel", r["y"]["Y_cum"]),
                    f"n={n} Y_exchanged": ("rel", r["Y_exchanged"]),
                    f"n={n} budget": ("rel", r["budget"]), f"n={n} verdict": ("exact", r["verdict"])})
    return ref


# -- lifespan-sweep ---------------------------------------------------

SWEEP_MODULI = ["oracle:q=1.5", "oracle:q=2.0", "invlog:p=1", "invlog:p=2"]
SWEEP_WORKERS = 2


def sweep_inputs(seed, tiny):
    u = _jitter(seed)
    base = [4.0, 32.0] if tiny else [2.0, 8.0, 32.0]
    return {"L": 32.0 if tiny else 64.0, "N": 128 if tiny else 512, "dt": 0.01,
            "t_max": 5.0 if tiny else 50.0, "stride": 50,
            "width": 2.0 * (1.0 + 0.02 * u()), "center": 0.5 * u(),
            "epsilons": [a * math.exp(0.02 * u()) for a in base],
            "moduli": SWEEP_MODULI, "workers": SWEEP_WORKERS}


def sweep_build(p, work_dir):
    from dwlab import cli  # noqa: F401  (the CLI builds grids, data and forcings per job)
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    config = work_dir / "sweep.cfg"
    config.write_text(
        f"dimension = 1\nL = {p['L']!r}\nN = {p['N']}\nwidth = {p['width']!r}\n"
        f"center = {p['center']!r}\ndt = {p['dt']!r}\nt_max = {p['t_max']!r}\n"
        f"sample_stride = {p['stride']}\nmoduli = {'; '.join(p['moduli'])}\n"
        f"epsilons = {' '.join(repr(e) for e in p['epsilons'])}\n")
    return {"config": config, "out": work_dir / "sweep-out", "p": p}


def _read_manifest(path):
    entries = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


def sweep_run(b):
    from dwlab import cli
    shutil.rmtree(b["out"], ignore_errors=True)
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = cli.main(["sweep", "--config", str(b["config"]), "--out", str(b["out"]),
                       "--workers", str(b["p"]["workers"])])
    runs = list(b["out"].glob("sweep-*"))
    rows, found = [], {}
    if len(runs) == 1:
        csv = runs[0] / "lifespans.csv"
        if csv.exists():
            rows = [tuple(float(v) for v in line.split(","))
                    for line in csv.read_text().splitlines()[1:]]
        for manifest in runs[0].glob("*/manifest.txt"):
            entries = _read_manifest(manifest)
            found[(entries["modulus"], float(entries["amplitude"]))] = entries["outcome"]
    shutil.rmtree(b["out"], ignore_errors=True)
    jobs = [(m, e) for m in b["p"]["moduli"] for e in b["p"]["epsilons"]]
    return {"rc": rc, "rows": rows, "outcomes": [found.get(job, "Missing") for job in jobs]}


def sweep_items(result, b):
    return len(result["outcomes"])


def sweep_checks(result, b):
    per = len(b["p"]["epsilons"])
    jobs = [(m, e) for m in b["p"]["moduli"] for e in b["p"]["epsilons"]]
    checks = [(f"job {m} amplitude {e:.4g}", outcome not in ("Failed", "Missing"), outcome)
              for (m, e), outcome in zip(jobs, result["outcomes"])]
    checks += [("exit code", result["rc"] == 0, f"{result['rc']}"),
               ("one lifespan row per job", len(result["rows"]) == len(jobs),
                f"{len(result['rows'])} rows")]
    # lifespans.csv has no modulus column: rows follow job order, moduli outermost
    for k, name in enumerate(b["p"]["moduli"]):
        t_est = [math.inf if t < 0 else t for _, t in result["rows"][k * per:(k + 1) * per]]
        ok = len(t_est) == per and all(a >= c for a, c in zip(t_est, t_est[1:]))
        checks.append((f"{name} t_est non-increasing", ok, " ".join(f"{t:.4g}" for t in t_est)))
    return checks


def sweep_reference(result, b):
    # t_est may move by one sample stride; -1 marks a run that reached t_max
    stride = b["p"]["stride"] * b["p"]["dt"]
    return {"t_est": ("abs", [t for _, t in result["rows"]], stride),
            "amplitude": ("rel", [a for a, _ in result["rows"]])}


WORKLOADS = {
    "linear-decay": dict(inputs=linear_inputs, build=linear_build, run=linear_run,
                         items=linear_items, checks=linear_checks, reference=linear_reference),
    "semilinear-decay": dict(inputs=semilinear_inputs, build=semilinear_build, run=semilinear_run,
                             items=semilinear_items, checks=semilinear_checks,
                             reference=semilinear_reference),
    "certificate": dict(inputs=certificate_inputs, build=certificate_build, run=certificate_run,
                        items=certificate_items, checks=certificate_checks,
                        reference=certificate_reference),
    "lifespan-sweep": dict(inputs=sweep_inputs, build=sweep_build, run=sweep_run,
                           items=sweep_items, checks=sweep_checks, reference=sweep_reference),
}
