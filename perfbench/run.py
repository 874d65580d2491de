"""dwlab benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload linear-decay --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics named in BENCHMARK.json; with --trace 1 it carries the per-layer
metrics of a traced pass.  The run record (machine, versions, inputs, pass
times, checks) goes to perfbench/out/<workload>-seed<seed>-trace<t>.json and a
traced run's spans to perfbench/out/<workload>-seed<seed>.spans.csv.  The exit
code is 1 when an output check fails and 2 when dwlab's sources are missing.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
NAMES = ("linear-decay", "semilinear-decay", "certificate", "lifespan-sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
REL_TOL = 1e-9


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; the children figure is the largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup(name, seed, work_dir, tracer=None, tiny=False):
    """Import dwlab and build the workload's inputs; returns (seconds, spec, params, built)."""
    start = time.perf_counter()
    import dwlab  # noqa: F401
    import workloads
    spec = workloads.WORKLOADS[name]
    params = spec["inputs"](seed, tiny)
    if tracer is None:
        built = spec["build"](params, work_dir)
    else:
        tracer.install()
        try:
            built = spec["build"](params, work_dir)
        finally:
            tracer.restore()
    return time.perf_counter() - start, spec, params, built


def setup_in_fresh_process(name, seed, work_dir, tiny):
    cmd = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name,
           "--seed", str(seed), "--work-dir", str(work_dir)] + (["--tiny"] if tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def machine_record():
    import numpy
    import scipy
    record = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
              "python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, "platform": platform.platform(),
              "thread_env": {var: os.environ.get(var) for var in THREAD_VARS}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        record["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    record["caches_cpu0"] = caches
    l3 = caches.get("L3", "")
    l3_mib = int(l3[:-1]) / 1024 if l3.endswith("K") else None
    fits = "fit inside" if l3_mib and l3_mib > 4 else "do not fit inside"
    record["cache_note"] = (
        f"the largest arrays are 512x512 complex128 (4 MiB, linear-decay 2-d); they {fits} "
        f"the {l3_mib:g} MiB L3. " if l3_mib else "L3 size unknown. ") + (
        "The benchmark makes no bandwidth or roofline claim; fft.points is computed from "
        "array sizes.")
    record["git_commit"] = None
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            record["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return record


# -- reference -------------------------------------------------------


def _plain(value):
    import numpy as np
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def compare_reference(current, stored):
    """One check per stored key: relative 1e-9, absolute tolerance, or exact."""
    checks = []
    for key, entry in stored.items():
        kind, want = entry[0], entry[1]
        got = current.get(key, (kind, None))[1]
        if kind == "exact":
            checks.append((f"reference {key}", got == want, f"{got!r} vs {want!r}"))
            continue
        got_list = got if isinstance(got, list) else [got]
        want_list = want if isinstance(want, list) else [want]
        if got is None or len(got_list) != len(want_list):
            checks.append((f"reference {key}", False, "missing or length differs"))
            continue
        if kind == "rel":
            gaps = [abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
                    for a, b in zip(got_list, want_list)]
            limit = REL_TOL
        else:
            gaps = [abs(a - b) for a, b in zip(got_list, want_list)]
            limit = entry[2]
        worst = max(gaps, default=0.0)
        checks.append((f"reference {key}", worst <= limit, f"max gap {worst:.3g} (limit {limit:g})"))
    return checks


# -- per-layer metrics ------------------------------------------------


def layer_metrics(agg, extra):
    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    norms = ("grid.lp_norm", "grid.hdot_norm", "grid.sobolev_norm")
    steps, not_accepted = get("semilinear.step", "calls"), get("semilinear.step", "extra")
    eta_points = get("testfunction.eta", "points")
    values = {
        "fft.calls": (get("fft", "calls"), "count"),
        "fft.points": (get("fft", "points"), "count"),
        "fft.s": (get("fft", "total_s"), "s"),
        "linear.multipliers.calls": (get("linear.multipliers", "calls"), "count"),
        "linear.multipliers.s": (get("linear.multipliers", "total_s"), "s"),
        "linear.propagate.calls": (get("linear.propagate", "calls"), "count"),
        "linear.propagate.self_s": (get("linear.propagate", "self_s"), "s"),
        "grid.norm.calls": (sum(get(n, "calls") for n in norms), "count"),
        "grid.norm.self_s": (sum(get(n, "self_s") for n in norms), "s"),
        "modulus.h_eval.calls": (get("modulus.h_eval", "calls"), "count"),
        "modulus.h_eval.points": (get("modulus.h_eval", "points"), "count"),
        "modulus.h_eval.s": (get("modulus.h_eval", "total_s"), "s"),
        "modulus.integrand.calls": (get("modulus.integrand", "calls"), "count"),
        "modulus.integrand.s": (get("modulus.integrand", "total_s"), "s"),
        "modulus.classify.self_s": (get("modulus.classify_dini", "self_s"), "s"),
        "modulus.catalog_make.s": (get("modulus.catalog_make", "total_s"), "s"),
        "semilinear.make_data.s": (get("semilinear.make_data", "total_s"), "s"),
        "semilinear.step.calls": (steps, "count"),
        "semilinear.step.rejected": (not_accepted, "count"),
        "semilinear.step.accept_ratio": ((steps - not_accepted) / steps if steps else 0.0, "ratio"),
        "semilinear.step.self_s": (get("semilinear.step", "self_s"), "s"),
        "semilinear.evolve.self_s": (get("semilinear.evolve", "self_s"), "s"),
        "semilinear.picard.self_s": (get("semilinear.picard_verify", "self_s"), "s"),
        "testfunction.eta.calls": (get("testfunction.eta", "calls"), "count"),
        "testfunction.eta.points": (eta_points, "count"),
        "testfunction.eta.s": (get("testfunction.eta", "total_s"), "s"),
        "testfunction.eta.support_ratio": (
            get("testfunction.eta", "extra") / eta_points if eta_points else 0.0, "ratio"),
    }
    for fn in ("functional_ir", "functional_y", "functional_y_exchanged"):
        values[f"testfunction.{fn}.self_s"] = (get(f"testfunction.{fn}", "self_s"), "s")
    values["testfunction.certificate.self_s"] = (get("testfunction.blowup_certificate", "self_s"), "s")
    values.update(extra)
    return values


# -- one workload -----------------------------------------------------


def measure(spec, built, seconds, once):
    """Passes until the next one would overrun `seconds` (at least one)."""
    walls, cpus, items = [], [], []
    started = time.perf_counter()
    while True:
        gc.collect()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        result = spec["run"](built)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
        items.append(spec["items"](result, built))
        if once or time.perf_counter() - started + statistics.median(walls) > seconds:
            return result, walls, cpus, items


def traced_pass(spec, built, params, tracer, child_dir, untraced_wall):
    """One pass with the wrappers installed; returns (result, metrics, record)."""
    from tracing import merge_child_totals, totals, uncovered_fraction

    kids_cpu0 = children_cpu_seconds()
    tracer.install()
    try:
        start = time.perf_counter()
        result = spec["run"](built)
        end = time.perf_counter()
    finally:
        tracer.restore()
    wall = end - start
    agg = merge_child_totals(totals(tracer.spans), str(child_dir))
    workers = params.get("workers", 0)
    outcomes = result["outcomes"] if workers else []
    extra = {
        "cli.sweep.jobs": (len(outcomes), "count"),
        "cli.sweep.jobs_failed": (sum(o in ("Failed", "Missing") for o in outcomes), "count"),
        "cli.sweep.cpu_util": (
            (children_cpu_seconds() - kids_cpu0) / (workers * wall) if workers else 0.0, "ratio"),
        "trace.overhead_frac": ((wall - untraced_wall) / untraced_wall, "ratio"),
        "trace.uncovered_frac": (uncovered_fraction(tracer.spans, (start, end)), "ratio"),
    }
    record = {"traced_wall_s": wall, "untraced_wall_s": untraced_wall,
              "spans": len(tracer.spans), "layer_totals": agg}
    return result, layer_metrics(agg, extra), record


def output_checks(args, spec, result, built, metrics):
    checks = spec["checks"](result, built)
    if args.trace:
        uncovered = metrics["trace.uncovered_frac"][0]
        checks.append(("trace covers the pass", uncovered < 0.1,
                       f"{uncovered:.3g} of the traced pass outside every span (< 0.1)"))
    import workloads
    if args.seed != workloads.DEFAULT_SEED or args.tiny:
        return checks
    current = {k: (v[0], _plain(v[1]), *v[2:]) for k, v in spec["reference"](result, built).items()}
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.write_reference:
        stored[args.workload] = current
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        return checks
    if args.workload not in stored:
        return checks + [("reference stored", False, f"no reference for {args.workload}")]
    return checks + compare_reference(current, stored[args.workload])


def run_workload(args):
    load_before = os.getloadavg()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
    work_dir = OUT / f"work-{args.workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    child_dir = work_dir / "trace-children"
    tracer = None
    if args.trace:
        from tracing import Tracer
        child_dir.mkdir(parents=True)
        tracer = Tracer(child_dir=str(child_dir))
    setup_s, spec, params, built = setup(args.workload, args.seed, work_dir, tracer, args.tiny)

    result, walls, cpus, items = measure(spec, built, args.seconds, once=bool(args.trace))
    peak = peak_rss_mb()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs": params,
              "pass_wall_s": walls, "pass_cpu_s": cpus, "pass_items": items}
    if args.trace:
        from tracing import write_spans
        result, metrics, traced = traced_pass(spec, built, params, tracer, child_dir, walls[0])
        spans_path = OUT / f"{tag}.spans.csv"
        write_spans(tracer.spans, spans_path)
        record.update(traced, spans_file=str(spans_path.relative_to(ROOT)))
    else:
        setups = [setup_s] + [setup_in_fresh_process(args.workload, args.seed,
                                                     work_dir / f"setup-{i}", args.tiny)
                              for i in range(1, SETUP_SAMPLES)]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak, "MB"),
            "items_per_s": (statistics.median(n / w for n, w in zip(items, walls)), "1/s"),
        }
        record["setup_samples_s"] = setups

    checks = output_checks(args, spec, result, built, metrics)
    failed = [c for c in checks if not c[1]]
    shutil.rmtree(work_dir, ignore_errors=True)
    record.update(
        machine=machine_record(), load_before=load_before, load_after=os.getloadavg(),
        checks=[{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        failed_frac=len(failed) / len(checks),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    record_path = OUT / f"{tag}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=_plain) + "\n")

    for name, ok, detail in failed:
        print(f"CHECK FAILED {name}: {detail}")
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {key:42s} {value:14.6g} {unit}")
    print(f"{args.workload:18s} {'failed_frac':42s} {len(failed) / len(checks):14.6g} ratio"
          f"   ({len(failed)} of {len(checks)} checks)")
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": {k: {"value": v if isinstance(v, int) else float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 1 if failed else 0


def run_all(args):
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1]), flush=True)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measure passes for about this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the default seed's reference")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "dwlab" / "__init__.py").is_file():
        print(f"dwlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(setup(args.workload, args.seed, Path(args.work_dir), tiny=args.tiny)[0])
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
