"""
Small amplitudes fall onto the lower equilibrium
================================================

For amplitudes below the critical one the family curve y = sigma phi(x)
relaxes to the circular cap, and the energy E = L - A*S decreases along
the way at the rate of the curvature dissipation integral.  This script
evolves sigma = 0.1, prints the diagnostic trace, and checks the energy
budget sample by sample.
"""

import os

from extremalflow import (
    ClassifierTolerances,
    InitialFamily,
    ProblemParams,
    StepControl,
    evolve,
)

params = ProblemParams(A=1.0, a=0.5, grid_n=201)
ctl = StepControl.for_params(params, scheme="semi_implicit", sample_interval=0.05)
tols = ClassifierTolerances()

traj = evolve(InitialFamily(params, sigma=0.1), ctl, tols)
print(f"sigma=0.1 terminated: {traj.event.kind.value} at t={traj.event.t:.2f} "
      f"({traj.event.detail})")

print("\n   t      L        S        E        dissipation  dist(lower)  word")
for rec in traj.diagnostics:
    print(f"  {rec.t:4.2f}  {rec.L:.5f}  {rec.S:.5f}  {rec.E:.5f}  "
          f"{rec.dissipation:10.3e}  {rec.dist_lower:10.3e}   {rec.sgn_upper}")

# the energy identity: dE/dt should match minus the dissipation integral
print("\nenergy identity along the run (midpoint comparison):")
recs = traj.diagnostics
for r0, r1 in zip(recs, recs[1:]):
    dEdt = (r1.E - r0.E) / (r1.t - r0.t)
    diss = 0.5 * (r0.dissipation + r1.dissipation)
    if diss > 1e-7:
        print(f"  t={0.5 * (r0.t + r1.t):.3f}: dE/dt = {dEdt:+.5e}, "
              f"-dissipation = {-diss:+.5e}")

print(f"\nlargest single-step energy increase: {traj.max_step_energy_increase:.2e}")

out = os.path.join(os.path.dirname(__file__), "output", "lower_run")
traj.write_outputs(out)
print(f"snapshots and diagnostics written to {out}/")
