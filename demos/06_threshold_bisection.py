"""
Bracketing the critical amplitude
=================================

Amplitudes below a critical value sink to the lower equilibrium;
amplitudes above it escape.  Both sets are open half-lines, so bisection
between any certified member of each encloses the threshold.  Orbits
started near the threshold shadow the upper equilibrium, the borderline
case of the trichotomy, before committing to one side; tighter brackets
shadow longer and closer.  The midpoint is evolved as an orbit run
(``converge = 0``), so no convergence proxy stops it while it lingers
near the upper equilibrium: it runs on until it escapes or reaches the
horizon, and its diagnostics show the closest approach and the dwell.
"""

import time
from dataclasses import replace

from extremalflow import (
    ClassifierTolerances,
    InitialFamily,
    ProblemParams,
    StepControl,
    bisect_sigma_star,
    evolve,
    sweep,
)
from extremalflow.classifier import closest_upper_approach, upper_dwell_time

params = ProblemParams(A=1.0, a=0.5, grid_n=101)
ctl = StepControl.for_params(params, scheme="semi_implicit")
tols = ClassifierTolerances()
template = InitialFamily(params, sigma=0.0)

# --- a coarse sweep locates the transition ---------------------------------
rows = sweep(template, [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 6.0], ctl, tols)
print("sweep:")
for r in rows:
    print(f"  sigma={r.sigma:+5.1f}: {r.category.value:14s} t={r.t_event:5.1f} "
          f"word={r.final_sgn}")

# --- bisection tightens it ---------------------------------------------------
t0 = time.time()
bracket = bisect_sigma_star(template, 3.0, 4.0, 0.005, ctl, tols)
print(f"\nbisection ({time.time() - t0:.1f}s):")
for it in bracket.iterations:
    print(f"  sigma={it.sigma:.5f}: {it.category.value:14s} t={it.t_event:5.1f} "
          f"word={it.final_sgn:4s} -> {it.side}")
print(f"critical amplitude in [{bracket.lo:.5f}, {bracket.hi:.5f}] "
      f"(width {bracket.width:.5f})")

# --- the near-critical orbit shadows the separatrix -----------------------------
traj = evolve(template.with_sigma(bracket.midpoint), ctl, replace(tols, converge=0.0))
print(f"\nmidpoint {bracket.midpoint:.5f}: {traj.event.kind.value} at t={traj.event.t:.1f}")
print(f"closest approach to the upper equilibrium: {closest_upper_approach(traj):.2e}")
print(f"dwell time within 10x converge tolerance:  "
      f"{upper_dwell_time(traj, 10 * tols.converge):.2f}")
words = []
for rec in traj.diagnostics:
    if not words or words[-1][1] != rec.sgn_upper:
        words.append((rec.t, rec.sgn_upper))
print("word history:", [(f"t={t:.1f}", w) for t, w in words])
