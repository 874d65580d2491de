"""Command-line front end: run orchestration and one record writer.

Every run writes its outputs through `_write_record` into a directory made
by `_run_dir`: ``manifest.txt`` always, and ``norms.csv`` for the runs
that sample a norm series.

Subcommands
-----------
classify     check a modulus against the integral test and its analytic label
linear       linear decay experiment with CSV + decay fits
run          one semilinear evolution
sweep        sweep over amplitudes and/or moduli in a process pool
certificate  test-function functionals and the blow-up certificate

Config files are plain ``key = value`` lines (# comments allowed).  `main`
resolves them once against `_CONFIG_KEYS`, the keys each subcommand reads with
their types and defaults: an unknown or repeated key is an error, and a run is
named by the hash of its resolved config.  Exit codes: 0 success, 1 usage/config
error, 2 scientific assertion mismatch, 3 inconclusive classification.
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
    """Read a key = value text file into a string dict; a repeated key is an error."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in out:
            raise ValueError(f"config key {key!r} is set twice")
        out[key] = value
    return out


def config_hash(cfg):
    text = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _float_list(text):
    return [float(tok) for tok in text.replace(",", " ").split() if tok]


def _str_list(text):
    return [tok.strip() for tok in text.split(";") if tok.strip()]


_CAST_NAMES = {int: "an integer", float: "a number", _float_list: "a list of numbers"}
_REQUIRED = object()  # a key with this default must be set
_DATA_KEYS = {"dimension": (int, 1), "L": (float, _REQUIRED), "N": (int, _REQUIRED),
              "width": (float, 1.0), "center": (float, 0.0), "shape": (str, "gaussian"),
              "amplitude": (float, 1.0)}
_RUN_KEYS = {**_DATA_KEYS, "modulus": (str, _REQUIRED), "dt": (float, 0.05),
             "t_max": (float, 100.0), "sample_stride": (int, 20)}
_CONFIG_KEYS = {  # the keys each subcommand reads: key -> (type, default)
    "classify": {"dimension": (int, 1)},  # the modulus spec is the positional argument
    "linear": {**_DATA_KEYS, "t_max": (float, 2000.0)},
    "run": _RUN_KEYS,
    # a sweep's jobs take their modulus and amplitude from its two lists
    "sweep": {**{key: spec for key, spec in _RUN_KEYS.items()
                 if key not in ("modulus", "amplitude")},
              "moduli": (_str_list, _REQUIRED), "epsilons": (_float_list, _REQUIRED)},
    "certificate": {**_DATA_KEYS, "modulus": (str, _REQUIRED), "dt": (float, 0.05),
                    "sample_stride": (int, 5), "R": (float, 64.0), "r0": (float, 16.0)},
}


def resolve_config(command, raw):
    """Every key the subcommand reads, typed or defaulted; any other key is an error."""
    table = _CONFIG_KEYS[command]
    if unknown := sorted(raw.keys() - table.keys()):
        raise ValueError(f"unknown config key {unknown[0]!r}; {command} reads {', '.join(table)}")
    cfg = {}
    for key, (cast, default) in table.items():
        if key not in raw and default is _REQUIRED:
            raise ValueError(f"missing required config key {key!r}")
        try:
            cfg[key] = cast(raw[key]) if key in raw else default
        except ValueError:
            raise ValueError(f"{key} must be {_CAST_NAMES[cast]}, got {raw[key]!r}") from None
    return cfg


def _run_dir(args, tag, cfg):
    """The run's output directory <out>/<tag>-<config hash>, created if missing.
    Callers make it only once every check has passed, so a user error leaves none."""
    root = args.out or os.environ.get("DWLAB_OUT") or "dwlab_out"
    path = Path(root) / f"{tag}-{config_hash(cfg)}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(directory, name, columns):
    rows = zip(*columns.values())
    lines = [",".join(columns)] + [",".join(repr(float(v)) for v in row) for row in rows]
    (directory / name).write_text("\n".join(lines) + "\n")


def _write_record(directory, entries, series=None):
    """The one record writer: manifest.txt of the (key, value) entries and,
    given a norm series, norms.csv of its columns."""
    if series is not None:
        _write_csv(directory, "norms.csv", series)
    lines = [f"{key} = {value}" for key, value in entries]
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def _fit_window(t_end):
    """The decay-fit window of `linear` and `run`: (min(50, t_end/40), t_end)."""
    return min(50.0, t_end / 40.0), t_end


# -- shared builders --------------------------------------------------


def _setup(cfg, horizon_key, horizon_min):
    """(grid, horizon, data) of a resolved config, checked in that order, then
    the wrap-around guard for the data spreading over the horizon."""
    spec = GridSpec(cfg["dimension"], cfg["L"], cfg["N"])
    horizon = cfg[horizon_key]
    if not horizon_min < horizon < math.inf:
        raise ValueError(f"{horizon_key} must be finite and exceed {horizon_min:g}, got {horizon}")
    data = make_data(spec, shape=cfg["shape"], amplitude=cfg["amplitude"], width=cfg["width"],
                     center=cfg["center"])
    # Gaussian tails are below 1e-7 of the peak beyond 4 widths
    check_torus_size(spec, horizon, abs(cfg["center"]) + 4.0 * cfg["width"])
    return spec, horizon, data


def _evolve(cfg, spec, data, t_max, keep_fields):
    """(forcing, trajectory) of the config's modulus run from data to t_max."""
    forcing = parse_forcing_spec(cfg["modulus"], spec.dimension)
    traj = evolve(EvolveConfig(
        grid=spec, nonlinearity=forcing, data=data, dt=cfg["dt"], t_max=t_max,
        sample_stride=cfg["sample_stride"], keep_fields=keep_fields))
    return forcing, traj


# -- subcommands ------------------------------------------------------


def cmd_classify(args, cfg):
    if not args.rest:
        raise ValueError("need a modulus spec as the positional argument")
    spec_text = args.rest[0]
    modulus = parse_modulus_spec(spec_text)
    dini = classify_dini(modulus)
    slow = check_slow_variation(modulus)
    convexity_min = check_h_convexity(Nonlinearity(modulus, cfg["dimension"]))
    print(f"modulus          : {spec_text}")
    ratios = ", ".join(f"k={k}: {v:.6g}" for k, v in sorted(slow.items()))
    print(f"slow variation   : {ratios}")
    print(f"convexity min    : {convexity_min:.6g}")
    print(f"integral verdict : {dini.dini_verdict.value}")
    print(f"analytic label   : {modulus.analytic_dini_label.value}")
    if dini.total_estimate is not None:
        print(f"total estimate   : {dini.total_estimate:.6g}")
        print(f"tail share       : {1.0 - dini.dini_partial_sums.sum() / dini.total_estimate:.3g}")
    if dini.dini_verdict is Verdict.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    if dini.dini_verdict is not modulus.analytic_dini_label:
        print("MISMATCH between quadrature verdict and analytic label",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


_LEMMA_RATES = {"Linf": lambda n: -n / 2.0,
                "L2": lambda n: -n / 4.0,
                "H1dot": lambda n: -(n + 2.0) / 4.0}


def cmd_linear(args, cfg):
    t_start = time.perf_counter()
    # the sample times start at max(t_max / 100, 1), so t_max must exceed 1
    spec, t_max, data = _setup(cfg, "t_max", 1.0)
    times = np.geomspace(max(t_max * 0.01, 1.0), t_max, 45)
    series = linear_norm_series(data, times)

    n = spec.dimension
    entries = [("config_hash", config_hash(cfg)), ("dimension", n)]
    status = EXIT_OK
    if max(series["Linf"]) == 0.0:
        entries.append(("note", "zero data; decay fits skipped"))
        print("linear: zero data, no fits")
    else:
        for norm, rate in _LEMMA_RATES.items():
            fit = decay_fit(series, norm, _fit_window(t_max))
            expected = rate(n)
            ok = abs(fit.exponent - expected) <= 0.1
            entries += [(f"slope_{norm}", f"{fit.exponent:.6f}"),
                        (f"residual_{norm}", f"{fit.residual:.6g}"),
                        (f"n_points_{norm}", fit.n_points),
                        (f"expected_{norm}", f"{expected:.6f}")]
            print(f"{norm:6s} slope {fit.exponent:+.4f}  expected {expected:+.2f}  "
                  f"{'ok' if ok else 'MISMATCH'}")
            if not ok:
                status = EXIT_MISMATCH
    entries.append(("wall_time_s", f"{time.perf_counter() - t_start:.3f}"))
    out = _run_dir(args, "linear", cfg)
    _write_record(out, entries, series)
    print(f"output in {out}")
    return status


def _single_run(cfg):
    """Worker body shared by `run` and `sweep`: (result dict, norm series)."""
    t_start = time.perf_counter()
    spec, t_max, data = _setup(cfg, "t_max", 0.0)
    _, traj = _evolve(cfg, spec, data, t_max, keep_fields=False)
    result = {
        "config_hash": config_hash(cfg),
        "modulus": cfg["modulus"],
        "amplitude": cfg["amplitude"],
        "outcome": traj.outcome,
        "t_est": traj.t_est,
        "xnorm": traj.xnorm,
        "steps_accepted": traj.steps_accepted,
        "steps_rejected": traj.steps_rejected,
        "dt_min": traj.dt_min,
        "wall_time_s": time.perf_counter() - t_start,
    }
    series = {"t": traj.times, **traj.norms}
    if traj.outcome == Outcome.COMPLETED:
        try:  # decay_fit refuses a run too short to span a decade of 1 + t
            fit = decay_fit(series, "Linf", _fit_window(traj.times[-1]))
            result.update(linf_slope=fit.exponent, linf_residual=fit.residual,
                          linf_n_points=fit.n_points)
        except ValueError:
            pass
    return result, series


def cmd_run(args, cfg):
    result, series = _single_run(cfg)
    for key in ("outcome", "t_est", "xnorm"):
        print(f"{key:8s}: {result[key]}")
    out = _run_dir(args, "run", cfg)
    _write_record(out, sorted(result.items()), series)
    print(f"output in {out}")
    return EXIT_OK


def _sweep_worker(cfg):
    try:
        return _single_run(cfg)[0]
    except Exception as exc:  # isolate per-run failures
        return {"config_hash": config_hash(cfg), "modulus": cfg["modulus"],
                "amplitude": cfg["amplitude"], "outcome": "Failed",
                "t_est": math.nan, "error": str(exc)}


def cmd_sweep(args, cfg):
    moduli, epsilons = cfg["moduli"], cfg["epsilons"]
    if not moduli:
        raise ValueError("empty sweep list: 'moduli' holds no spec")
    if not (epsilons and all(0 < e < math.inf for e in epsilons)
            and all(a < b for a, b in zip(epsilons, epsilons[1:]))):
        raise ValueError(f"epsilons must be positive, finite and strictly increasing, "
                         f"got {epsilons}")
    # each job is the run config its own `dwlab run` would resolve to
    shared = {key: cfg[key] for key in _CONFIG_KEYS["run"] if key in cfg}
    jobs = [{**shared, "modulus": m, "amplitude": eps} for m in moduli for eps in epsilons]
    # a pool forks all its workers at once, so it gets no more than there are jobs
    with ProcessPoolExecutor(max_workers=min(args.workers, len(jobs))) as pool:
        results = list(pool.map(_sweep_worker, jobs))
    out = _run_dir(args, "sweep", cfg)
    print(f"{'modulus':28s} {'amplitude':>10s} {'outcome':>16s} {'t_est':>10s}")
    for res in results:
        print(f"{res['modulus']:28s} {res['amplitude']!s:>10s} "
              f"{res['outcome']:>16s} {res['t_est']!s:>10s}")
        sub = out / res["config_hash"]
        sub.mkdir(exist_ok=True)
        _write_record(sub, sorted(res.items()))
    done = [r for r in results if r["outcome"] != "Failed"]
    if done:
        _write_csv(out, "lifespans.csv",
                   {key: [r[key] if math.isfinite(r[key]) else -1.0 for r in done]
                    for key in ("amplitude", "t_est")})
    if len(done) < len(results):
        print(f"sweep: {len(results) - len(done)} run(s) failed", file=sys.stderr)
    print(f"output in {out}")
    return EXIT_OK


def cmd_certificate(args, cfg):
    if cfg["shape"] == "dgaussian":
        raise ValueError("zero-mean data rejected (positive-mean hypothesis)")
    spec, big_r, data = _setup(cfg, "R", 0.0)
    constant = weight_bound_constant(spec.dimension, cfg["r0"])  # checks r0 before the run
    forcing, traj = _evolve(cfg, spec, data, big_r, keep_fields=True)
    entries = [("config_hash", config_hash(cfg)), ("outcome", traj.outcome),
               ("t_est", traj.t_est)]
    if traj.outcome != Outcome.COMPLETED:
        print(f"certificate: trajectory ended early ({traj.outcome} at "
              f"t={traj.t_est:g}); blow-up observed directly")
    if len(traj.times) < 2:
        print("certificate: no sample after the data; functionals skipped")
    else:
        r_probe = min(big_r, traj.times[-1])
        i_r = functional_ir(traj, forcing, r_probe)
        r_grid = np.geomspace(r_probe / 256.0, r_probe, 65)
        y_rep = functional_y(traj, forcing, r_grid)
        y_swapped = functional_y_exchanged(traj, forcing, r_grid)
        modulus = getattr(forcing, "modulus", None)
        entries += [("R", r_probe), ("r0", cfg["r0"]),
                    ("constant_C", f"{constant:.6g}"), ("I_R", f"{i_r:.6g}"),
                    ("Y", f"{y_rep['Y']:.6g}"), ("Y_exchanged", f"{y_swapped:.6g}")]
        print(f"C = {constant:.4g}   I_R = {i_r:.6g}   Y = {y_rep['Y']:.6g}")
        if modulus is not None and y_rep["Y"] > 0:
            report = blowup_certificate(modulus, spec.dimension,
                                        y_rep["Y"], constant, cfg["r0"])
            entries += [("budget", f"{report.budget:.6g}"),
                        ("lhs_final", f"{report.lhs_final:.6g}"),
                        ("crossing_R", report.crossing_r),
                        ("verdict", report.verdict)]
            print(f"certificate: {report.verdict}")
    out = _run_dir(args, "certificate", cfg)
    _write_record(out, entries)
    print(f"output in {out}")
    return EXIT_OK


# -- entry point ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # `main` reports it as a one-line usage error
        raise ValueError(message)


def main(argv=None):
    parser = _Parser(
        prog="dwlab",
        description="numerical laboratory for the semilinear damped wave equation")
    parser.add_argument("command",
                        choices=["classify", "linear", "run", "sweep", "certificate"])
    parser.add_argument("rest", nargs="*", help="positional arguments of the subcommand")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output root (default $DWLAB_OUT or ./dwlab_out)")
    parser.add_argument("--workers", type=int, default=1, help="sweep worker processes")
    args = argparse.Namespace(command=None)
    # the one boundary for user errors: bad arguments, configs, specs, tables and files
    try:
        parser.parse_args(argv, namespace=args)
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        if extra := args.rest[1 if args.command == "classify" else 0:]:  # classify's spec
            raise ValueError(f"unexpected argument {extra[0]!r}")
        handler = {"classify": cmd_classify, "linear": cmd_linear, "run": cmd_run,
                   "sweep": cmd_sweep, "certificate": cmd_certificate}[args.command]
        raw = parse_config(args.config) if args.config else {}
        return handler(args, resolve_config(args.command, raw))
    except (OSError, ValueError) as exc:
        print(f"dwlab{f' {args.command}' if args.command else ''}: {exc}", file=sys.stderr)
        return EXIT_USAGE
