"""The package's import path: scipy is imported only where a panel is refused."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# A short evolution, the classifier on the catalog of tests/test_modulus.py and
# on the Bertrand-tail moduli whose shells all pass the first rule, and one
# blow-up certificate; then iterlog depth 2, whose continuation kink makes
# its shell at w ~ 5.3 a refused panel.
_SCRIPT = """
import sys
from dwlab import (EvolveConfig, GridSpec, Nonlinearity, blowup_certificate, catalog_make,
                   classify_dini, evolve, make_data, weight_bound_constant)

spec = GridSpec(1, 64.0, 256)
forcing = Nonlinearity(catalog_make("invlog", p=2.0), 1)
evolve(EvolveConfig(grid=spec, nonlinearity=forcing, data=make_data(spec, amplitude=0.5),
                    dt=0.05, t_max=1.0))
for kind, p, depth in [("power", 0.5, None), ("power", 1.0, None), ("logplus", 1.0, None),
                       ("invlog", 0.5, None), ("invlog", 1.0, None), ("invlog", 2.0, None),
                       ("iterlog", 1.0, 1), ("iterlog", 2.0, 1), ("invlog", 1.2, None),
                       ("invlog", 1.5, None), ("invlog", 3.0, None), ("iterlog", 1.3, 1),
                       ("iterlog", 1.5, 1)]:
    assert classify_dini(catalog_make(kind, p=p, depth=depth)).dini_verdict.value != "Inconclusive"
blowup_certificate(forcing.modulus, 1, 0.1, weight_bound_constant(1, 16.0), 16.0)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
classify_dini(catalog_make("iterlog", p=2.0, depth=2))
print("scipy.integrate" in sys.modules)
"""


def test_scipy_is_imported_only_for_a_refused_panel():
    # a fresh interpreter, because the test session itself imports scipy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["[]", "True"]
