"""Acceptance suite: eleven checks covering the package's core guarantees.

Each criterion is a function of a shared :class:`VerificationContext`
that lazily runs and caches the expensive simulations (the three
lower-convergence runs, the grim-reaper escape run, the two-grid
threshold bisections, the grid-201 bisection at a tenth of the step
tolerance, and the near-critical run).  Both the command-line
``verify`` entry point and the pytest acceptance module drive the same
functions through ``run_one``, which also times each call, so the
printed table and the test suite cannot drift apart.

All parameters and tolerances are pinned here; nothing is calibrated at
run time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import evolvers
from .analysis import SgnWord, gap_profile, intersection_audit, subword
from .classifier import Category, bisect_sigma_star, classify, closest_upper_approach
from .evolvers import (
    ClassifierTolerances,
    StepControl,
    advance_graph,
    advance_polar,
    evolve,
    graph_flow_rhs,
)
from .geometry import ProblemParams
from .solutions import (
    InitialFamily,
    circle_crossing_time,
    circle_radius,
    gamma_lower,
    gamma_upper,
    grim_reaper_dominating_sigma,
    grim_reaper_value,
)

__all__ = ["CriterionResult", "VerificationContext", "run_one", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float = 0.0  # set by ``run_one``

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {status}  {self.title}: {self.detail} ({self.seconds:.1f}s)"


class VerificationContext:
    """Pinned configuration plus lazily cached expensive runs."""

    def __init__(self):
        self.params = ProblemParams(A=1.0, a=0.5, grid_n=201)
        self.tols = ClassifierTolerances(converge=1e-3, t_max=50.0)
        self.ctl = StepControl.for_params(
            self.params, scheme="semi_implicit", t_max=50.0
        )

    def family(self, sigma: float) -> InitialFamily:
        return InitialFamily(self.params, sigma=sigma)

    @cached_property
    def escape_sigma(self) -> float:
        return grim_reaper_dominating_sigma(self.params)

    @cached_property
    def lower_runs(self):
        """Classified runs for sigma in {-1, 0, 0.1} with their wall time."""
        t0 = time.perf_counter()
        runs = {s: classify(self.family(s), self.ctl, self.tols) for s in (-1.0, 0.0, 0.1)}
        return runs, time.perf_counter() - t0

    @cached_property
    def escape_run(self):
        return classify(self.family(self.escape_sigma), self.ctl, self.tols)

    @cached_property
    def bracket_201(self):
        return bisect_sigma_star(
            self.family(0.0), 0.1, self.escape_sigma, 0.01, self.ctl, self.tols
        )

    @cached_property
    def bracket_101(self):
        params = ProblemParams(A=1.0, a=0.5, grid_n=101)
        ctl = StepControl.for_params(params, scheme="semi_implicit", t_max=50.0)
        fam = InitialFamily(params, sigma=0.0)
        return bisect_sigma_star(
            fam, 0.1, grim_reaper_dominating_sigma(params), 0.01, ctl, self.tols
        )

    @cached_property
    def bracket_201_fine(self):
        """The grid-201 bracket of ``bracket_201`` at a tenth of the step tolerance."""
        tol = evolvers.STEP_TOL
        evolvers.STEP_TOL = tol / 10
        try:
            return bisect_sigma_star(
                self.family(0.0), 0.1, self.escape_sigma, 0.01, self.ctl, self.tols
            )
        finally:
            evolvers.STEP_TOL = tol

    @cached_property
    def refined_bracket(self):
        """The 0.01-wide bracket refined to 0.002 for the near-critical run."""
        br = self.bracket_201
        return bisect_sigma_star(self.family(0.0), br.lo, br.hi, 0.002, self.ctl, self.tols)

    @cached_property
    def near_critical_run(self):
        """The refined bracket's midpoint, run past the convergence proxies."""
        fam = self.family(self.refined_bracket.midpoint)
        return evolve(fam, self.ctl, replace(self.tols, converge=0.0))

    @cached_property
    def identity_run(self):
        """sigma=0.1 to t=5.2, sampled finely and past the convergence
        proxies, for the energy identity."""
        ctl = replace(self.ctl, sample_interval=0.02)
        return evolve(self.family(0.1), ctl, replace(self.tols, converge=0.0, t_max=5.2))

    @cached_property
    def comparison_runs(self):
        return {s: evolve(self.family(s), self.ctl, self.tols) for s in (-0.5, 0.1, 0.5, 1.0)}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1(ctx: VerificationContext) -> CriterionResult:
    """Equilibrium stationarity under explicit stepping over t in [0, 1]."""
    ctl = StepControl.for_params(ctx.params, cfl=0.2, scheme="explicit")
    lower = gamma_lower(ctx.params)
    t_lo = time.perf_counter()
    drift_lo = float(np.max(np.abs(advance_graph(lower, ctl, 1.0).u - lower.u)))
    dt_lo = time.perf_counter() - t_lo
    upper = gamma_upper(ctx.params)
    t_up = time.perf_counter()
    drift_up = float(np.max(np.abs(advance_polar(upper, ctl, 1.0).rho - upper.rho)))
    dt_up = time.perf_counter() - t_up
    ok = drift_lo < 1e-3 and drift_up < 1e-3 and dt_lo < 5.0 and dt_up < 5.0
    return CriterionResult(
        1,
        "equilibrium stationarity",
        ok,
        f"sup-drift lower {drift_lo:.2e}, upper {drift_up:.2e} "
        f"(runtimes {dt_lo:.1f}s/{dt_up:.1f}s, bound 1e-3, <5s each)",
    )


def criterion_2(ctx: VerificationContext) -> CriterionResult:
    """Grim-reaper residual of the discrete unforced graph operator is O(dx^2)."""
    b, C = 0.25, 3.0
    resid = []
    for n in (101, 201, 401):
        xs = np.linspace(-0.3, 0.3, n)
        dx = xs[1] - xs[0]
        g = grim_reaper_value(b, C, xs, 0.0)
        # the wave translates at speed 1/b, so G_t = -1/b exactly
        op = graph_flow_rhs(g, dx, A=0.0)
        resid.append(float(np.max(np.abs(-1.0 / b - op))))
    r1 = resid[0] / resid[1]
    r2 = resid[1] / resid[2]
    ok = r1 >= 3.5 and r2 >= 3.5
    return CriterionResult(
        2,
        "grim reaper residual order",
        ok,
        f"sup-residuals {resid[0]:.2e}/{resid[1]:.2e}/{resid[2]:.2e}, "
        f"halving ratios {r1:.2f}, {r2:.2f} (bound 3.5)",
    )


def criterion_3(ctx: VerificationContext) -> CriterionResult:
    """Adaptive-RK circle radius matches the implicit closed form to 1e-8."""
    from scipy.optimize import brentq  # loaded by this criterion alone

    A, R0 = 1.0, 2.0
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        r_num = circle_radius(R0, A, t)
        r_exact = brentq(
            lambda r: circle_crossing_time(R0, A, r) - t, R0, R0 + A * t + 10.0
        )
        worst = max(worst, abs(r_num - r_exact))
    ok = worst <= 1e-8
    return CriterionResult(
        3,
        "circle ODE oracle",
        ok,
        f"max |numeric - implicit| = {worst:.2e} (bound 1e-8)",
    )


def criterion_4(ctx: VerificationContext) -> CriterionResult:
    """sigma in {-1, 0, 0.1} all converge to the lower equilibrium by t <= 20."""
    runs, wall = ctx.lower_runs
    details = []
    ok = wall < 30.0
    for s, (cat, traj) in sorted(runs.items()):
        dist = traj.diagnostics[-1].dist_lower
        good = (
            cat is Category.CONVERGE_LOWER and dist < 1e-3 and traj.event.t <= 20.0
        )
        ok = ok and good
        details.append(f"sigma={s}: {cat.value} t={traj.event.t:.1f} dist={dist:.1e}")
    return CriterionResult(
        4,
        "lower convergence",
        ok,
        "; ".join(details) + f" (total {wall:.1f}s, bound 30s)",
    )


def criterion_5(ctx: VerificationContext) -> CriterionResult:
    """The grim-reaper-dominating amplitude escapes with final word '+'."""
    cat, traj = ctx.escape_run
    word = traj.diagnostics[-1].sgn_upper
    ok = (
        cat is Category.ESCAPE
        and word == "+"
        and traj.event.t < ctx.tols.t_max
    )
    return CriterionResult(
        5,
        "escape above the upper equilibrium",
        ok,
        f"sigma={ctx.escape_sigma:.1f}: {cat.value} at t={traj.event.t:.2f}, "
        f"final word [{word}]",
    )


def criterion_6(ctx: VerificationContext) -> CriterionResult:
    """Threshold bracketing, cross-grid agreement, and the near-critical run."""
    t0 = time.perf_counter()
    br = ctx.bracket_201
    br101 = ctx.bracket_101
    mid_diff = abs(br.midpoint - br101.midpoint)
    traj = ctx.near_critical_run
    closest = closest_upper_approach(traj)
    bar = 10.0 * ctx.tols.converge
    words_ok = True
    for d in traj.diagnostics:
        if not math.isnan(d.dist_upper) and d.dist_upper < bar:
            break
        if d.sgn_upper != "-+-":
            words_ok = False
            break
    wall = time.perf_counter() - t0
    ok = (
        br.width <= 0.01
        and br.lo_category is Category.CONVERGE_LOWER
        and br.hi_category in (Category.ESCAPE, Category.CONVERGE_UPPER)
        and mid_diff <= 0.05
        and closest < bar
        and words_ok
        and wall < 300.0
    )
    return CriterionResult(
        6,
        "critical amplitude bracketing",
        ok,
        f"bracket [{br.lo:.4f},{br.hi:.4f}] width {br.width:.4f}; "
        f"grid 101 vs 201 midpoints differ by {mid_diff:.2e} (bound 0.05); "
        f"near-critical closest approach {closest:.2e} (bound {bar:.0e}), "
        f"word [-+-] until then: {words_ok} ({wall:.0f}s, bound 300s)",
    )


def criterion_7(ctx: VerificationContext) -> CriterionResult:
    """Energy never rises past the noise floor and dissipates at the stated rate."""
    rises = []
    runs, _ = ctx.lower_runs
    for s, (cat, traj) in runs.items():
        rises.append((f"sigma={s}", traj.max_step_energy_increase))
    _, traj = ctx.escape_run
    rises.append(("escape", traj.max_step_energy_increase))
    rises.append(("near-critical", ctx.near_critical_run.max_step_energy_increase))
    for it in ctx.bracket_201.iterations + ctx.refined_bracket.iterations:
        rises.append((f"bisect sigma={it.sigma:.3f}", it.max_energy_rise))
    worst_name, worst_rise = max(rises, key=lambda r: r[1])
    mono_ok = worst_rise <= 1e-7

    run = ctx.identity_run
    recs = run.diagnostics
    errs = []
    for r0, r1 in zip(recs, recs[1:]):
        tm = 0.5 * (r0.t + r1.t)
        if not 0.5 <= tm <= 5.0:
            continue
        diss = 0.5 * (r0.dissipation + r1.dissipation)
        if diss < 1e-7:
            continue
        dEdt = (r1.E - r0.E) / (r1.t - r0.t)
        errs.append(abs(dEdt + diss) / diss)
    err = max(errs) if errs else float("nan")
    # the dissipation on the stepper's stencil meets the identity to about 1%
    ok = mono_ok and err <= 0.015
    return CriterionResult(
        7,
        "energy monotonicity and dissipation identity",
        ok,
        f"max per-step energy rise {worst_rise:.2e} ({worst_name}; bound 1e-7); "
        f"identity max rel err {err:.2%} over {len(errs)} samples in t=[0.5,5] "
        f"(bound 1.5%)",
    )


def criterion_8(ctx: VerificationContext) -> CriterionResult:
    """Intersection count never increases; words only simplify."""
    bad = []
    runs, _ = ctx.lower_runs
    trajs = {f"sigma={s}": traj for s, (_c, traj) in runs.items()}
    trajs["escape"] = ctx.escape_run[1]
    trajs["near-critical"] = ctx.near_critical_run
    for s, traj in ctx.comparison_runs.items():
        trajs[f"comparison sigma={s}"] = traj
    for name, traj in trajs.items():
        if not intersection_audit(d.sgn_upper for d in traj.diagnostics):
            bad.append(name)
    for it in ctx.bracket_201.iterations + ctx.refined_bracket.iterations:
        if not it.word_chain_ok:
            bad.append(f"bisect sigma={it.sigma:.3f}")
    ok = not bad
    return CriterionResult(
        8,
        "intersection-number principle along runs",
        ok,
        f"{len(trajs) + len(ctx.bracket_201.iterations) + len(ctx.refined_bracket.iterations)}"
        f" runs audited" + ("" if ok else f"; violations: {bad}"),
    )


def criterion_9(ctx: VerificationContext) -> CriterionResult:
    """Ordered initial amplitudes stay pointwise ordered while both run.

    Each pair of samples is compared as curves, through ``gap_profile``,
    so that samples in different charts are compared at the same points.
    """
    runs = ctx.comparison_runs
    pairs = [(0.1, 0.5), (0.5, 1.0), (-0.5, 0.5)]
    details = []
    ok = True
    for lo_s, hi_s in pairs:
        tl, th = runs[lo_s], runs[hi_s]
        t_alive = min(tl.event.t, th.event.t)
        worst = np.inf
        for (t1, c1), (t2, c2) in zip(tl.snapshots, th.snapshots):
            if t1 > t_alive + 1e-9:
                break
            worst = min(worst, float(np.min(gap_profile(c2, c1).gap)))
        good = worst > -1e-9
        ok = ok and good
        details.append(f"({lo_s},{hi_s}): min gap {worst:.2e}")
    return CriterionResult(
        9,
        "comparison-principle ordering",
        ok,
        "; ".join(details) + " (bound -1e-9)",
    )


def criterion_10(ctx: VerificationContext) -> CriterionResult:
    """Word algebra: exhaustive subword checks on all words of length <= 4."""
    ok = True
    ok &= subword(SgnWord("+-"), SgnWord("+"))
    ok &= subword(SgnWord("+-"), SgnWord("-"))
    ok &= subword(SgnWord("+-"), SgnWord("+-"))
    ok &= not subword(SgnWord("+-"), SgnWord("-+"))

    def all_words(max_len):
        out = []
        for n in range(1, max_len + 1):
            for k in range(2**n):
                out.append("".join("+" if (k >> i) & 1 else "-" for i in range(n)))
        return out

    def is_subseq(big, small):
        i = 0
        for ch in big:
            if i < len(small) and ch == small[i]:
                i += 1
        return i == len(small)

    words = all_words(4)
    checked = 0
    for wa in words:
        for wb in words:
            expected = is_subseq(wa, wb)
            got = subword(SgnWord(wa), SgnWord(wb))
            ok &= got == expected
            checked += 1
        # reflexivity
        ok &= subword(SgnWord(wa), SgnWord(wa))
    # antisymmetry and transitivity on the enumerated set
    for wa in words:
        for wb in words:
            if subword(SgnWord(wa), SgnWord(wb)) and subword(SgnWord(wb), SgnWord(wa)):
                ok &= wa == wb
    return CriterionResult(
        10,
        "sign-word algebra",
        bool(ok),
        f"{checked} ordered pairs checked against an independent subsequence scan",
    )


def criterion_11(ctx: VerificationContext) -> CriterionResult:
    """The critical amplitude is converged in time: a tenth of the step
    tolerance returns the same grid-201 bracket."""
    br, fine = ctx.bracket_201, ctx.bracket_201_fine

    def ends(b):
        return b.lo, b.hi, b.lo_category, b.hi_category

    ok = ends(br) == ends(fine)
    tol = evolvers.STEP_TOL
    return CriterionResult(
        11,
        "time refinement of the critical amplitude",
        ok,
        f"bracket [{br.lo:.6f},{br.hi:.6f}] at step tolerance {tol:.0e}, "
        f"[{fine.lo:.6f},{fine.hi:.6f}] at {tol / 10:.0e} (bound: identical)",
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}


def run_one(number: int, ctx: VerificationContext) -> CriterionResult:
    """Run one criterion on ``ctx`` and record its wall time."""
    t0 = time.perf_counter()
    res = CRITERIA[number](ctx)
    res.seconds = time.perf_counter() - t0
    return res


def run_all(numbers=None, quiet: bool = False):
    """Run each selected acceptance criterion once, in order (all for
    ``None``; an empty selection, or one naming no criterion, raises
    ``ValueError`` before any run).

    Returns the list of :class:`CriterionResult`; prints one line per
    criterion unless ``quiet``.
    """
    selected = CRITERIA if numbers is None else set(numbers)
    if not selected:
        raise ValueError("no acceptance criterion selected")
    bad = sorted((n for n in selected if n not in CRITERIA), key=repr)
    if bad:
        raise ValueError(f"unknown criteria {bad}; valid are {sorted(CRITERIA)}")
    ctx = VerificationContext()
    results = []
    for n in sorted(selected):
        res = run_one(n, ctx)
        results.append(res)
        if not quiet:
            print(res.line(), flush=True)
    if not quiet:
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} acceptance criteria passed", flush=True)
    return results
