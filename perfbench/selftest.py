"""Self-test of the benchmark harness on tiny configurations.

    python3 perfbench/selftest.py

Checks that the tracer restores every function it replaced, that self
times are non-negative, that traced and untraced passes give identical
outputs, and that run.py emits every metric BENCHMARK.json names for every
workload (layers with no work report 0).  Prints one PASS/FAIL line per
check and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys

import numpy as np

import run
import tracing

SEED = 5


def same(a, b):
    """Exact equality through dicts, sequences, dataclasses and arrays."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and same(vars(a), vars(b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def patch_targets():
    """Every (owner, attribute) the tracer may patch, with its current value."""
    import numpy.fft
    import scipy.fft

    import dwlab
    owners = [dwlab] + [importlib.import_module(f"dwlab.{layer}") for layer in tracing.LAYERS]
    snapshot = {(id(ns), key): value for ns in owners for key, value in vars(ns).items()}
    mod = importlib.import_module("dwlab.modulus")
    for cls, attr in ((mod.Nonlinearity, "h_eval"), (mod.PowerForcing, "h_eval"),
                      (mod.Modulus, "eval_neglog")):
        snapshot[(id(cls), attr)] = cls.__dict__[attr]
    for fft_module in (numpy.fft, scipy.fft):
        for attr in tracing.FFT_NAMES:
            if hasattr(fft_module, attr):
                snapshot[(id(fft_module), attr)] = getattr(fft_module, attr)
    return snapshot


def report(failures, label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  ({detail})" if detail else ""), flush=True)
    if not ok:
        failures.append(label)


def main():
    sys.path.insert(0, str(run.SRC))
    failures = []
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)

    import numpy.fft

    import dwlab.linear
    import dwlab.semilinear
    before = patch_targets()
    propagate, fftn = dwlab.linear.propagate, numpy.fft.fftn
    tracer = tracing.Tracer().install()
    report(failures, "install replaces functions in every namespace that binds them",
           dwlab.linear.propagate is not propagate and numpy.fft.fftn is not fftn
           and dwlab.semilinear.propagate is dwlab.linear.propagate)
    tracer.restore()
    after = patch_targets()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    report(failures, "restore puts back every original", not changed and before.keys() == after.keys(),
           f"{len(before)} attributes, {len(changed)} differ")

    for name in run.NAMES:
        child_dir = work / name / "children"
        child_dir.mkdir(parents=True)
        _, spec, _, built = run.setup(name, SEED, work / name, tiny=True)
        plain = spec["run"](built)
        tracer = tracing.Tracer(child_dir=str(child_dir)).install()
        try:
            traced = spec["run"](built)
        finally:
            tracer.restore()
        report(failures, f"{name}: traced and untraced outputs identical", same(plain, traced))
        own = [end - start - child for _, start, end, _, child, _, _ in tracer.spans]
        workers = tracing.merge_child_totals({}, str(child_dir))
        worst = min(own + [a["self_s"] for a in workers.values()], default=0.0)
        report(failures, f"{name}: self times non-negative", worst >= 0.0,
               f"{len(own)} spans and {len(workers)} worker totals, smallest {worst:.3g} s")

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for name in run.NAMES:
            done = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", name,
                                   "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                                   "--tiny"], capture_output=True, text=True, timeout=300)
            try:
                metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
            except (IndexError, ValueError, KeyError):
                metrics = {}
            got = {k: v["unit"] for k, v in metrics.items()}
            report(failures, f"{name} --trace {trace}: emits exactly the {key} metrics",
                   got == wanted, f"missing {sorted(set(wanted) - set(got))}, "
                   f"extra {sorted(set(got) - set(wanted))}" if got != wanted else "")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
