import numpy as np
import pytest
from hypothesis import settings

from extremalflow import ProblemParams

# the same examples on every run: each @settings inherits this profile
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def params():
    """Reference configuration used across the suite."""
    return ProblemParams(A=1.0, a=0.5, grid_n=201)


@pytest.fixture(scope="session")
def params_coarse():
    return ProblemParams(A=1.0, a=0.5, grid_n=101)


def pinned_curve(x, y):
    """Build a SampledCurve with the endpoint heights forced to exactly 0."""
    from extremalflow import SampledCurve

    y = np.asarray(y, dtype=float).copy()
    y[0] = 0.0
    y[-1] = 0.0
    return SampledCurve(np.column_stack([x, y]))


def diagnose(profile):
    """The diagnostics record a run would take of a graph or polar profile."""
    from extremalflow import GraphProfile, evolvers

    p = profile.params
    if isinstance(profile, GraphProfile):
        chart, s = evolvers._GraphChart(p.dx, p.A, p), profile.u
    else:
        chart, s = evolvers._PolarChart(p.dtheta, p.A, p.a, p), profile.rho
    return evolvers._diagnose(chart, s, 0.0)[0]
