import json
import os
import re
import subprocess
import sys
from pathlib import Path

import extremalflow

# scipy subpackages that a run must not load: a run needs only the LAPACK
# and BLAS wrappers of scipy.linalg
_HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")

_SCRIPT = """
import json, sys
import extremalflow, extremalflow.cli
from extremalflow import (
    ClassifierTolerances, InitialFamily, ProblemParams, StepControl, advance_graph,
    advance_polar, circle_radius, evolve, gamma_lower, gamma_lower_polar, gamma_upper,
)

heavy = {heavy!r}
p = ProblemParams(A=1.0, a=0.5, grid_n=101)
for scheme in ("explicit", "semi_implicit"):
    ctl = StepControl.for_params(p, scheme=scheme)
    advance_graph(gamma_lower(p), ctl, 0.01)
    advance_polar(gamma_lower_polar(p), ctl, 0.01)
    advance_polar(gamma_upper(p), ctl, 0.01)
ctl = StepControl.for_params(p, scheme="semi_implicit", t_max=6.0)
traj = evolve(InitialFamily(p, sigma=2.9), ctl, ClassifierTolerances(t_max=6.0))
charts = "".join(d.chart[0] for d in traj.diagnostics)
run = sorted(m for m in heavy if m in sys.modules)
circle_radius(2.0, 1.0, 1.0)
oracle = sorted(m for m in heavy if m in sys.modules)
print(json.dumps({{"charts": charts, "run": run, "oracle": oracle}}))
"""


def test_a_run_loads_only_scipy_linalg():
    # a fresh interpreter: this one has scipy's subpackages loaded by other tests
    src = str(Path(extremalflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(heavy=_HEAVY)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert re.fullmatch("g+p+", seen["charts"])  # a graph -> polar handoff, one-way
    assert seen["run"] == []
    # the circle oracle loads its Runge-Kutta integrator on first use
    assert "scipy.integrate" in seen["oracle"]
