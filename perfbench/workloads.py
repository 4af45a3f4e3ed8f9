"""The three benchmark workloads: seeded inputs, one pass each, output checks.

Every call into the package goes through a module attribute
(``classifier.bisect_sigma_star``, ``evolvers.advance_graph``, ...) and
is looked up at call time, so a traced run sees the same calls.

* ``bracket`` -- one ``bisect_sigma_star`` on grid 201 down to width
  0.01: the paper's headline computation, serial, polar-chart heavy and
  dominated by near-threshold midpoints.
* ``sweep`` -- one ``classifier.sweep`` over a stratified amplitude
  list that stays clear of the band around sigma*: many short runs,
  mostly in the graph chart, with chart switches and the thread pool.
* ``hold`` -- the equilibria held by ``advance_graph``/``advance_polar``
  in both charts and both schemes: pure stepping, with no diagnostics,
  energy tracker, classifier or chart switching.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from extremalflow import classifier, evolvers, geometry, solutions

# Reference values from the acceptance suite (criteria 1, 6, 7).
SIGMA_STAR = 3.265
SIGMA_STAR_TOL = 0.05
ENERGY_RISE_MAX = 1e-7
DRIFT_MAX = 1e-3
T_MAX = 50.0

# Sweep strata: one amplitude is drawn uniformly inside each interval.
# Intervals narrow where the cost per amplitude grows (towards the band
# around sigma*), so the cost of a sweep varies little between seeds.
LOWER_STRATA = (-1.0, -0.25, 0.5, 1.25, 2.0, 2.5, 2.8, 3.0)
ESCAPE_STRATA = (3.6, 4.0, 5.0, 7.0, 10.0, 15.0, 25.0, 40.0)


@dataclass(frozen=True)
class Scale:
    """Problem size; ``FULL`` is the benchmark, ``SMOKE`` a tiny check."""

    grid_n: int = 201
    width_tol: float = 0.01
    sigma_star: float | None = SIGMA_STAR
    sweep_stride: int = 1
    explicit_hold_t: float = 1.0
    semi_hold_t: float = 5.0


FULL = Scale()
SMOKE = Scale(
    grid_n=81,
    width_tol=2.0,
    sigma_star=None,
    sweep_stride=3,
    explicit_hold_t=0.02,
    semi_hold_t=0.2,
)


@dataclass(frozen=True)
class Problem:
    scale: Scale
    params: geometry.ProblemParams
    semi: evolvers.StepControl
    explicit: evolvers.StepControl
    tols: evolvers.ClassifierTolerances
    template: solutions.InitialFamily
    sigma_escape: float
    lower: geometry.GraphProfile
    lower_polar: geometry.PolarProfile
    upper: geometry.PolarProfile


def build_problem(scale: Scale = FULL) -> Problem:
    """The problem objects every workload starts from (timed as set-up)."""
    params = geometry.ProblemParams(A=1.0, a=0.5, grid_n=scale.grid_n)
    return Problem(
        scale=scale,
        params=params,
        semi=evolvers.StepControl.for_params(
            params, scheme="semi_implicit", t_max=T_MAX
        ),
        explicit=evolvers.StepControl.for_params(params, cfl=0.2, scheme="explicit"),
        tols=evolvers.ClassifierTolerances(t_max=T_MAX),
        template=solutions.InitialFamily(params, sigma=0.0),
        sigma_escape=solutions.grim_reaper_dominating_sigma(params),
        lower=solutions.gamma_lower(params),
        lower_polar=solutions.gamma_lower_polar(params),
        upper=solutions.gamma_upper(params),
    )


class Checks:
    """Output checks: counts attempts and failures, keeps failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def bracket_inputs(problem: Problem, rng: random.Random):
    """lo0 near 0.1; hi0 within 2% above the escape-certifying amplitude.

    Both ranges keep the number of halvings fixed (14 on grid 201).
    """
    lo0 = 0.1 + rng.uniform(-0.01, 0.01)
    hi0 = problem.sigma_escape * (1.0 + rng.uniform(0.0, 0.02))
    return lo0, hi0


def bracket_run(problem: Problem, inputs):
    lo0, hi0 = inputs
    return classifier.bisect_sigma_star(
        problem.template, lo0, hi0, problem.scale.width_tol, problem.semi, problem.tols
    )


def bracket_check(problem: Problem, inputs, br, checks: Checks) -> None:
    tol = problem.scale.width_tol
    checks.expect(br.width <= tol, f"bracket width {br.width} > {tol}")
    checks.expect(
        br.lo_category is classifier.Category.CONVERGE_LOWER,
        f"lo {br.lo} is {br.lo_category.value}",
    )
    checks.expect(
        br.hi_category
        in (classifier.Category.ESCAPE, classifier.Category.CONVERGE_UPPER),
        f"hi {br.hi} is {br.hi_category.value}",
    )
    for it in br.iterations:
        checks.expect(it.word_chain_ok, f"word chain broken at sigma={it.sigma}")
        checks.expect(
            it.max_energy_rise <= ENERGY_RISE_MAX,
            f"energy rise {it.max_energy_rise:.2e} at sigma={it.sigma}",
        )
    if problem.scale.sigma_star is not None:
        checks.expect(
            abs(br.midpoint - problem.scale.sigma_star) <= SIGMA_STAR_TOL,
            f"midpoint {br.midpoint} not within {SIGMA_STAR_TOL} of "
            f"{problem.scale.sigma_star}",
        )


def bracket_flow_time(inputs, br) -> float:
    return sum(it.t_event for it in br.iterations)


def bracket_fingerprint(br) -> str:
    return json.dumps(br.to_dict(), sort_keys=True)


def bracket_counts(problem: Problem, inputs, br) -> dict:
    lo0, hi0 = inputs
    return {"halvings": math.log2((hi0 - lo0) / br.width)}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _strata(edges):
    return list(zip(edges[:-1], edges[1:]))


def sweep_inputs(problem: Problem, rng: random.Random):
    stride = problem.scale.sweep_stride
    strata = _strata(LOWER_STRATA)[::stride] + _strata(ESCAPE_STRATA)[::stride]
    return [rng.uniform(lo, hi) for lo, hi in strata]


def sweep_run(problem: Problem, sigmas):
    # a MonotonicityError propagates and counts as a failed check
    return classifier.sweep(problem.template, sigmas, problem.semi, problem.tols)


def sweep_check(problem: Problem, sigmas, rows, checks: Checks) -> None:
    checks.expect(
        [r.sigma for r in rows] == list(sigmas), "sweep rows do not match amplitudes"
    )
    for r in rows:
        want = (
            classifier.Category.CONVERGE_LOWER
            if r.sigma <= LOWER_STRATA[-1]
            else classifier.Category.ESCAPE
        )
        checks.expect(
            r.category is want, f"sigma={r.sigma} is {r.category.value}, want {want.value}"
        )


def sweep_flow_time(sigmas, rows) -> float:
    return sum(r.t_event for r in rows)


def sweep_fingerprint(rows) -> str:
    return repr(rows)


def sweep_counts(problem: Problem, sigmas, rows) -> dict:
    return {}


# ---------------------------------------------------------------------------
# hold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hold:
    chart: str  # "graph" or "polar"
    ctl: evolvers.StepControl
    t_end: float
    start: object  # GraphProfile or PolarProfile

    @property
    def name(self) -> str:
        return f"evolvers.advance_{self.chart}.{self.ctl.scheme}"

    @property
    def computed_steps(self) -> float:
        return self.t_end / self.ctl.dt


def hold_inputs(problem: Problem, rng: random.Random):
    """The equilibria, each nudged by a seeded bump of size <= 1e-8.

    The explicit pair is criterion 1's (lower in the graph chart, upper
    in the polar chart, t = 1); the semi-implicit pair holds the stable
    lower equilibrium in both charts.
    """
    p = problem.params
    bump_x = np.cos(0.5 * np.pi * p.x_nodes() / p.a)
    bump_th = np.sin(p.theta_nodes())
    bump_x[[0, -1]] = 0.0
    bump_th[[0, -1]] = 0.0

    def graph(g):
        return geometry.GraphProfile(p, g.u + rng.uniform(0.5e-8, 1e-8) * bump_x)

    def polar(q):
        return geometry.PolarProfile(p, q.rho + rng.uniform(0.5e-8, 1e-8) * bump_th)

    s = problem.scale
    return (
        Hold("graph", problem.explicit, s.explicit_hold_t, graph(problem.lower)),
        Hold("polar", problem.explicit, s.explicit_hold_t, polar(problem.upper)),
        Hold("graph", problem.semi, s.semi_hold_t, graph(problem.lower)),
        Hold("polar", problem.semi, s.semi_hold_t, polar(problem.lower_polar)),
    )


def _state(profile) -> np.ndarray:
    return profile.u if isinstance(profile, geometry.GraphProfile) else profile.rho


def hold_run(problem: Problem, holds):
    out = []
    for h in holds:
        advance = evolvers.advance_graph if h.chart == "graph" else evolvers.advance_polar
        out.append(_state(advance(h.start, h.ctl, h.t_end)))
    return out


def hold_check(problem: Problem, holds, finals, checks: Checks) -> None:
    for h, final in zip(holds, finals):
        drift = float(np.max(np.abs(final - _state(h.start))))
        checks.expect(drift < DRIFT_MAX, f"{h.name} sup-drift {drift:.2e}")


def hold_flow_time(holds, finals) -> float:
    return sum(h.t_end for h in holds)


def hold_fingerprint(finals) -> str:
    return repr([f.tobytes().hex() for f in finals])


def hold_counts(problem: Problem, holds, finals) -> dict:
    return {f"steps.{h.name}": h.computed_steps for h in holds}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``inputs(problem, rng)`` -> inputs; ``run(problem, inputs)`` -> output."""

    inputs: Callable
    run: Callable
    check: Callable
    flow_time: Callable
    fingerprint: Callable
    counts: Callable


WORKLOADS = {
    "bracket": Workload(
        bracket_inputs, bracket_run, bracket_check, bracket_flow_time,
        bracket_fingerprint, bracket_counts,
    ),
    "sweep": Workload(
        sweep_inputs, sweep_run, sweep_check, sweep_flow_time,
        sweep_fingerprint, sweep_counts,
    ),
    "hold": Workload(
        hold_inputs, hold_run, hold_check, hold_flow_time,
        hold_fingerprint, hold_counts,
    ),
}


def pass_rng(seed: int, index: int) -> random.Random:
    """Inputs of pass ``index`` of a run with ``seed``: the same on every run."""
    return random.Random(f"{seed}:{index}")


def warm_up(problem: Problem) -> None:
    """One short untimed pass over every code path the workloads use."""
    for sigma in (0.0, problem.sigma_escape):
        classifier.classify(problem.template.with_sigma(sigma), problem.semi, problem.tols)
    for ctl in (problem.explicit, problem.semi):
        evolvers.advance_graph(problem.lower, ctl, 100 * ctl.dt)
        evolvers.advance_polar(problem.lower_polar, ctl, 100 * ctl.dt)
