import json
import os
import re
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

import extremalflow
from extremalflow import evolvers

# scipy subpackages that a run must not load
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
run = sorted(m for m in ("scipy", "scipy.linalg") + heavy if m in sys.modules)
circle_radius(2.0, 1.0, 1.0)
oracle = sorted(m for m in heavy if m in sys.modules)
print(json.dumps({{"charts": charts, "run": run, "oracle": oracle}}))
"""

# the package's dgtsv against scipy's on diagonally dominant block systems
# with zero coupling entries, as the semi-implicit step builds them
_SOLVE = """
import json, sys
import numpy as np
if sys.argv[1] == "scipy_first":
    import scipy.linalg
from extremalflow import evolvers
before = "scipy.linalg" in sys.modules
from scipy.linalg import lapack

rng = np.random.default_rng(2017)
same = []
for k, m in ((1, 15), (2, 99), (7, 199)):
    r = 10.0 ** rng.uniform(-3.0, 3.0, k * m)  # dt / (h^2 M) over six decades
    b = rng.standard_normal(k * m)
    dl, d, du = -r[1:], 1.0 + 2.0 * r, -r[:-1]
    dl[m - 1 :: m] = du[m - 1 :: m] = 0.0
    ours, theirs = evolvers.dgtsv(dl, d, du, b), lapack.dgtsv(dl, d, du, b)
    same.append(ours[4] == theirs[4] == 0 and ours[3].tobytes() == theirs[3].tobytes())
print(json.dumps({"before": before, "same": same, "routine": evolvers.dgtsv is lapack.dgtsv}))
"""


def _fresh(script, *args):
    """Last line of ``script``'s output, as JSON, from a fresh interpreter
    (this one has scipy's subpackages loaded by other tests)."""
    src = str(Path(extremalflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_a_run_imports_neither_scipy_nor_scipy_linalg():
    seen = _fresh(_SCRIPT.format(heavy=_HEAVY))
    assert re.fullmatch("g+p+", seen["charts"])  # a graph -> polar handoff, one-way
    assert seen["run"] == []
    # the circle oracle loads its Runge-Kutta integrator on first use
    assert "scipy.integrate" in seen["oracle"]


@pytest.mark.parametrize("order", ["package_first", "scipy_first"])
def test_dgtsv_is_scipys_own(order):
    seen = _fresh(_SOLVE, order)
    assert seen["before"] is (order == "scipy_first")
    assert seen["same"] == [True, True, True]
    assert seen["routine"]


@pytest.mark.parametrize("module", ["missing", "unloadable"])
def test_dgtsv_falls_back_to_scipy_linalg(tmp_path, module):
    # a scipy directory without the compiled LAPACK module, or with a file
    # of that name that the platform cannot load
    (tmp_path / "linalg").mkdir()
    if module == "unloadable":
        (tmp_path / "linalg" / f"_flapack{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a library")
    routine = evolvers._load_dgtsv([str(tmp_path)])
    rng = np.random.default_rng(7919)
    r, b = rng.uniform(0.0, 50.0, 40), rng.standard_normal(40)
    system = -r[1:], 1.0 + 2.0 * r, -r[:-1], b
    x, info = routine(*system)[3:]
    expect, expect_info = evolvers.dgtsv(*system)[3:]
    assert info == expect_info == 0
    assert x.tobytes() == expect.tobytes()
