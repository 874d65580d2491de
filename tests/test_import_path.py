"""The package runs without scipy: the quadrature is numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# With scipy blocked from import: a short evolution; the classifier on the
# catalog of tests/test_modulus.py, on iterlog depth 2 and on a kinked table,
# whose kinks fall inside Dini shells; a certificate whose scan crosses the
# continuation kink (iterlog depth 1, p = 1, at x ~ 7.09) before it crosses
# the budget (x ~ 31.6); and the CLI's classify, run and certificate on tiny
# configs, which write under the directory given as the first argument.
_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
import pathlib
from dwlab import (EvolveConfig, GridSpec, Nonlinearity, blowup_certificate, catalog_make,
                   classify_dini, evolve, load_custom_modulus, make_data)
from dwlab.cli import main

tmp = pathlib.Path(sys.argv[1])
spec = GridSpec(1, 64.0, 256)
forcing = Nonlinearity(catalog_make("invlog", p=2.0), 1)
evolve(EvolveConfig(grid=spec, nonlinearity=forcing, data=make_data(spec, amplitude=0.5),
                    dt=0.05, t_max=1.0))
(tmp / "kinked.txt").write_text("0 0\\n1e-12 1e-12\\n1e-6 1e-8\\n1e-2 2e-5\\n1 1e-4\\n")
for mu in [catalog_make(kind, p=p, depth=depth) for kind, p, depth in [
        ("power", 0.5, None), ("power", 1.0, None), ("logplus", 1.0, None),
        ("invlog", 0.5, None), ("invlog", 1.0, None), ("invlog", 2.0, None),
        ("iterlog", 1.0, 1), ("iterlog", 2.0, 1), ("iterlog", 2.0, 2)]
        ] + [load_custom_modulus(tmp / "kinked.txt")]:
    assert classify_dini(mu).dini_verdict.value != "Inconclusive"
report = blowup_certificate(catalog_make("iterlog", p=1.0, depth=1), 1, 5.0, 2.5, 16.0)
assert report.verdict == "witness-observed" and report.crossing_r > 1e13, report
data = "dimension = 1\\nL = 64\\nN = 256\\nwidth = 2\\ndt = 0.05\\nmodulus = invlog:p=2\\n"
(tmp / "run.cfg").write_text(data + "t_max = 2\\n")
(tmp / "cert.cfg").write_text(data + "R = 16\\n")
for argv in (["classify", "iterlog:p=2,depth=2"], ["run", "--config", str(tmp / "run.cfg")],
             ["certificate", "--config", str(tmp / "cert.cfg")]):
    code = main(argv + (["--out", str(tmp / "out")] if argv[0] != "classify" else []))
    assert code == 0, (argv, code)
print("ok")
"""


def test_package_runs_with_scipy_blocked(tmp_path):
    # a fresh interpreter, because the test session itself imports scipy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split()[-1] == "ok"
