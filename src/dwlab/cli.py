"""Command-line front end: run orchestration, manifests, CSV, plot scripts.

Subcommands
-----------
classify     check a modulus against the integral test and its analytic label
linear       linear decay experiment with CSV + decay fits
run          one semilinear evolution
sweep        parallel sweep over amplitudes and/or moduli
certificate  test-function functionals and the blow-up certificate

Config files are plain ``key = value`` lines (# comments allowed).  Exit
codes: 0 success, 1 usage/config error, 2 scientific assertion mismatch,
3 inconclusive classification.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .grid import GridSpec
from .linear import decay_fit, linear_norm_series
from .modulus import (Nonlinearity, Verdict, check_h_convexity,
                      check_slow_variation, classify_dini, parse_forcing_spec,
                      parse_modulus_spec)
from .semilinear import (EvolveConfig, Outcome, evolve, make_data,
                         check_torus_size)
from .testfunction import (blowup_certificate, functional_ir, functional_y,
                           functional_y_exchanged, weight_bound_constant)

EXIT_OK, EXIT_USAGE, EXIT_MISMATCH, EXIT_INCONCLUSIVE = 0, 1, 2, 3


# -- config plumbing --------------------------------------------------


def parse_config(path):
    """Read a key = value text file into a string dict."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_hash(cfg):
    text = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_CAST_NAMES = {int: "an integer", float: "a number"}


def _get(cfg, key, cast, default):
    if key not in cfg:
        if default is None:
            raise ValueError(f"missing required config key {key!r}")
        return default
    try:
        return cast(cfg[key])
    except ValueError:
        raise ValueError(f"{key} must be {_CAST_NAMES[cast]}, got {cfg[key]!r}") from None


def _float_list(text):
    return [float(tok) for tok in text.replace(",", " ").split() if tok]


def _str_list(text):
    return [tok.strip() for tok in text.split(";") if tok.strip()]


def _out_root(args):
    root = args.out or os.environ.get("DWLAB_OUT") or "dwlab_out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(directory, entries):
    lines = [f"{key} = {value}" for key, value in entries]
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def _write_csv(directory, name, columns):
    keys = list(columns)
    rows = zip(*(columns[k] for k in keys))
    lines = [",".join(keys)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    (directory / name).write_text("\n".join(lines) + "\n")


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Log-log decay plot for {csv} (generated alongside the data).\"\"\"
import csv
import matplotlib.pyplot as plt

with open({csv!r}) as fh:
    rows = list(csv.DictReader(fh))
t = [1.0 + float(r["t"]) for r in rows]
for column in {columns!r}:
    plt.loglog(t, [float(r[column]) for r in rows], label=column)
plt.xlabel("1 + t")
plt.legend()
plt.savefig({png!r}, dpi=150)
"""


def _write_plot_script(directory, csv_name, columns):
    script = _PLOT_TEMPLATE.format(csv=csv_name, columns=columns,
                                   png=csv_name.replace(".csv", ".png"))
    path = directory / csv_name.replace(".csv", "_plot.py")
    path.write_text(script)


def _run_dir(root, tag, cfg):
    path = root / f"{tag}-{config_hash(cfg)}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- shared builders --------------------------------------------------


def _data_radius(center, width):
    # Gaussian tails below 1e-7 of peak beyond 4 widths.
    return abs(center) + 4.0 * width


def _build_grid(cfg):
    n = _get(cfg, "dimension", int, 1)
    half_length = _get(cfg, "L", float, None)
    points = _get(cfg, "N", int, None)
    return GridSpec(n, half_length, points)


def _build_data(spec, cfg):
    shape = _get(cfg, "shape", str, "gaussian")
    amplitude = _get(cfg, "amplitude", float, 1.0)
    width = _get(cfg, "width", float, 1.0)
    center = _get(cfg, "center", float, 0.0)
    return make_data(spec, shape=shape, amplitude=amplitude, width=width,
                     center=center, component="psi")


def _enforce_torus(spec, cfg, t_max):
    center = _get(cfg, "center", float, 0.0)
    width = _get(cfg, "width", float, 1.0)
    check_torus_size(spec, t_max, _data_radius(center, width))


# -- subcommands ------------------------------------------------------


def cmd_classify(args, cfg):
    spec_text = cfg.get("modulus") or (args.rest[0] if args.rest else None)
    if not spec_text:
        raise ValueError("need a modulus spec (positional or config key 'modulus')")
    modulus = parse_modulus_spec(spec_text)
    dini = classify_dini(modulus)
    slow = check_slow_variation(modulus)
    n = _get(cfg, "dimension", int, 1)
    convexity_min = check_h_convexity(Nonlinearity(modulus, n))
    print(f"modulus          : {spec_text}")
    ratios = ", ".join(f"k={k}: {v:.6g}" for k, v in sorted(slow.items()))
    print(f"slow variation   : {ratios}")
    print(f"convexity min    : {convexity_min:.6g}")
    print(f"integral verdict : {dini.dini_verdict.value}")
    print(f"analytic label   : {dini.analytic_label.value if dini.analytic_label else 'n/a'}")
    if dini.total_estimate is not None:
        print(f"total estimate   : {dini.total_estimate:.6g}")
    if dini.dini_verdict is Verdict.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    if dini.analytic_label and dini.dini_verdict is not dini.analytic_label:
        print("MISMATCH between quadrature verdict and analytic label",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


_LEMMA_RATES = {"Linf": lambda n: -n / 2.0,
                "L2": lambda n: -n / 4.0,
                "H1dot": lambda n: -(n + 2.0) / 4.0}


def cmd_linear(args, cfg):
    t_start = time.perf_counter()
    spec = _build_grid(cfg)
    t_max = _get(cfg, "t_max", float, 2000.0)
    data = _build_data(spec, cfg)
    _enforce_torus(spec, cfg, t_max)
    out = _run_dir(_out_root(args), "linear", cfg)
    times = np.geomspace(max(t_max * 0.01, 1.0), t_max, 45)
    series = linear_norm_series(data, times)
    _write_csv(out, "norms.csv", series)
    _write_plot_script(out, "norms.csv", ["Linf", "L2", "H1dot"])

    n = spec.dimension
    entries = [("config_hash", config_hash(cfg)), ("dimension", n)]
    if max(series["Linf"]) == 0.0:
        entries.append(("note", "zero data; decay fits skipped"))
        _write_manifest(out, entries)
        print(f"linear: zero data, no fits; output in {out}")
        return EXIT_OK
    window = (_get(cfg, "fit_t_min", float, min(50.0, t_max / 40.0)), t_max)
    status = EXIT_OK
    for norm, rate in _LEMMA_RATES.items():
        fit = decay_fit(series, norm, window)
        expected = rate(n)
        ok = abs(fit.exponent - expected) <= 0.1
        entries.append((f"slope_{norm}", f"{fit.exponent:.6f}"))
        entries.append((f"expected_{norm}", f"{expected:.6f}"))
        print(f"{norm:6s} slope {fit.exponent:+.4f}  expected {expected:+.2f}  "
              f"{'ok' if ok else 'MISMATCH'}")
        if not ok:
            status = EXIT_MISMATCH
    entries.append(("wall_time_s", f"{time.perf_counter() - t_start:.3f}"))
    _write_manifest(out, entries)
    print(f"output in {out}")
    return status


def _single_run(cfg):
    """Worker body shared by `run` and `sweep`; returns a result dict."""
    t_start = time.perf_counter()
    spec = _build_grid(cfg)
    t_max = _get(cfg, "t_max", float, 100.0)
    data = _build_data(spec, cfg)
    _enforce_torus(spec, cfg, t_max)
    forcing = parse_forcing_spec(_get(cfg, "modulus", str, None), spec.dimension)
    run_cfg = EvolveConfig(
        grid=spec, nonlinearity=forcing, data=data,
        dt=_get(cfg, "dt", float, 0.05), t_max=t_max,
        sample_stride=_get(cfg, "sample_stride", int, 20), keep_fields=False)
    traj = evolve(run_cfg)
    result = {
        "config_hash": config_hash(cfg),
        "modulus": cfg.get("modulus", ""),
        "amplitude": _get(cfg, "amplitude", float, 1.0),
        "outcome": traj.outcome,
        "t_est": traj.t_est,
        "xnorm": traj.xnorm,
        "wall_time_s": time.perf_counter() - t_start,
    }
    if traj.outcome == Outcome.COMPLETED and traj.times[-1] >= 10 * (1 + traj.times[0]):
        series = {"t": traj.times, **traj.norms}
        window = (traj.times[-1] * 0.1, traj.times[-1])
        try:
            result["linf_slope"] = decay_fit(series, "Linf", window).exponent
        except ValueError:
            pass
    result["series"] = {"t": traj.times, **traj.norms}
    return result


def cmd_run(args, cfg):
    result = _single_run(cfg)
    out = _run_dir(_out_root(args), "run", cfg)
    series = result.pop("series")
    _write_csv(out, "norms.csv", series)
    _write_plot_script(out, "norms.csv", ["Linf", "L2"])
    _write_manifest(out, sorted(result.items()))
    for key in ("outcome", "t_est", "xnorm"):
        print(f"{key:8s}: {result[key]}")
    print(f"output in {out}")
    return EXIT_OK


def _sweep_worker(cfg):
    try:
        result = _single_run(cfg)
        result.pop("series", None)
        return result
    except Exception as exc:  # isolate per-run failures
        return {"config_hash": config_hash(cfg), "modulus": cfg.get("modulus", ""),
                "amplitude": cfg.get("amplitude", ""), "outcome": "Failed",
                "t_est": math.nan, "error": str(exc)}


def cmd_sweep(args, cfg):
    moduli = _str_list(cfg.get("moduli", "")) or ([cfg["modulus"]] if "modulus" in cfg else [])
    if not moduli:
        raise ValueError("empty sweep list: set 'moduli' or 'modulus'")
    epsilons = [None]
    if "epsilons" in cfg:
        epsilons = _float_list(cfg["epsilons"])
        if not (epsilons and all(0 < e < math.inf for e in epsilons)
                and all(a < b for a, b in zip(epsilons, epsilons[1:]))):
            raise ValueError(f"epsilons must be positive, finite and strictly increasing, "
                             f"got {cfg['epsilons']!r}")
    jobs = []
    for modulus in moduli:
        for eps in epsilons:
            job = dict(cfg)
            job["modulus"] = modulus
            if eps is not None:
                job["amplitude"] = repr(eps)
            job.pop("epsilons", None)
            job.pop("moduli", None)
            jobs.append(job)
    workers = max(args.workers, 1)
    if workers == 1:
        results = [_sweep_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    out = _run_dir(_out_root(args), "sweep", cfg)
    columns = {"amplitude": [], "t_est": []}
    print(f"{'modulus':28s} {'amplitude':>10s} {'outcome':>16s} {'t_est':>10s}")
    for res in results:
        print(f"{res['modulus']:28s} {res['amplitude']!s:>10s} "
              f"{res['outcome']:>16s} {res['t_est']!s:>10s}")
        sub = out / res["config_hash"]
        sub.mkdir(exist_ok=True)
        _write_manifest(sub, sorted(res.items()))
        if isinstance(res.get("amplitude"), float) and isinstance(res.get("t_est"), float):
            columns["amplitude"].append(res["amplitude"])
            columns["t_est"].append(res["t_est"])
    if columns["amplitude"]:
        finite = {k: [v if math.isfinite(v) else -1.0 for v in vals]
                  for k, vals in columns.items()}
        _write_csv(out, "lifespans.csv", finite)
    failures = [r for r in results if r["outcome"] == "Failed"]
    if failures:
        print(f"sweep: {len(failures)} run(s) failed", file=sys.stderr)
    print(f"output in {out}")
    return EXIT_OK


def cmd_certificate(args, cfg):
    spec = _build_grid(cfg)
    big_r = _get(cfg, "R", float, 64.0)
    r0 = _get(cfg, "r0", float, 16.0)
    shape = _get(cfg, "shape", str, "gaussian")
    if shape == "dgaussian":
        raise ValueError("zero-mean data rejected (positive-mean hypothesis)")
    data = _build_data(spec, cfg)
    _enforce_torus(spec, cfg, big_r)
    forcing = parse_forcing_spec(_get(cfg, "modulus", str, None), spec.dimension)
    run_cfg = EvolveConfig(grid=spec, nonlinearity=forcing, data=data,
                           dt=_get(cfg, "dt", float, 0.05), t_max=big_r,
                           sample_stride=_get(cfg, "sample_stride", int, 5),
                           keep_fields=True)
    traj = evolve(run_cfg)
    out = _run_dir(_out_root(args), "certificate", cfg)
    entries = [("config_hash", config_hash(cfg)), ("outcome", traj.outcome),
               ("t_est", traj.t_est)]
    if traj.outcome != Outcome.COMPLETED:
        print(f"certificate: trajectory ended early ({traj.outcome} at "
              f"t={traj.t_est:g}); blow-up observed directly")
    if len(traj.times) < 2:
        print("certificate: no sample after the data; functionals skipped")
        _write_manifest(out, entries)
        print(f"output in {out}")
        return EXIT_OK
    r_probe = min(big_r, traj.times[-1])
    constant = weight_bound_constant(spec.dimension, r0)
    i_r = functional_ir(traj, forcing, r_probe)
    r_grid = np.geomspace(r_probe / 256.0, r_probe, 65)
    y_rep = functional_y(traj, forcing, r_grid)
    y_swapped = functional_y_exchanged(traj, forcing, r_grid)
    modulus = getattr(forcing, "modulus", None)
    entries += [("R", r_probe), ("r0", r0),
                ("constant_C", f"{constant:.6g}"), ("I_R", f"{i_r:.6g}"),
                ("Y", f"{y_rep['Y']:.6g}"), ("Y_exchanged", f"{y_swapped:.6g}")]
    print(f"C = {constant:.4g}   I_R = {i_r:.6g}   Y = {y_rep['Y']:.6g}")
    if modulus is not None and y_rep["Y"] > 0:
        report = blowup_certificate(modulus, spec.dimension,
                                    y_rep["Y"], constant, r0)
        entries += [("budget", f"{report.budget:.6g}"),
                    ("lhs_final", f"{report.lhs_final:.6g}"),
                    ("crossing_R", report.crossing_r),
                    ("verdict", report.verdict)]
        print(f"certificate: {report.verdict}")
    _write_manifest(out, entries)
    print(f"output in {out}")
    return EXIT_OK


# -- entry point ------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dwlab",
        description="numerical laboratory for the semilinear damped wave equation")
    parser.add_argument("command",
                        choices=["classify", "linear", "run", "sweep", "certificate"])
    parser.add_argument("rest", nargs="*", help="positional arguments of the subcommand")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output root (default $DWLAB_OUT or ./dwlab_out)")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    handler = {"classify": cmd_classify, "linear": cmd_linear, "run": cmd_run,
               "sweep": cmd_sweep, "certificate": cmd_certificate}[args.command]
    # the one boundary for user errors: bad configs, specs, tables and files
    try:
        cfg = parse_config(args.config) if args.config else {}
        return handler(args, cfg)
    except (OSError, ValueError) as exc:
        print(f"dwlab {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
