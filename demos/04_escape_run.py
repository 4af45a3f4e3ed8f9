"""
Large amplitudes escape past the upper equilibrium
==================================================

An amplitude dominating the capped grim reaper must cross the upper
equilibrium in finite time.  Numerically the run starts as a very tall
narrow graph, hands off to the polar chart the moment the graph
representation starts to fail near the pins, and is declared escaped when
the whole curve clears the upper arc with a quantitative radial margin.
Along the way the sign word against the upper equilibrium can only
simplify: [- + -] collapses to [+].
"""

from extremalflow import (
    ClassifierTolerances,
    InitialFamily,
    ProblemParams,
    SgnWord,
    StepControl,
    evolve,
    grim_reaper_dominating_sigma,
)

params = ProblemParams(A=1.0, a=0.5, grid_n=201)
sigma = grim_reaper_dominating_sigma(params)
print(f"escape certificate amplitude: sigma = {sigma:.2f}")

ctl = StepControl.for_params(params, scheme="semi_implicit", sample_interval=0.05)
traj = evolve(InitialFamily(params, sigma=sigma), ctl, ClassifierTolerances())

print(f"terminated: {traj.event.kind.value} at t={traj.event.t:.2f} ({traj.event.detail})")
print("\n   t    chart  word   Z   tangent_y(P)   length")
for rec in traj.diagnostics:
    print(f"  {rec.t:4.2f}  {rec.chart:5s}  {rec.sgn_upper or '?':5s} "
          f"{SgnWord(rec.sgn_upper).z if rec.sgn_upper else 0:2d}   "
          f"{rec.tangent_y_P:+.4f}     {rec.L:8.2f}")

switches = [
    (rec.t, rec.chart)
    for i, rec in enumerate(traj.diagnostics)
    if i == 0 or traj.diagnostics[i - 1].chart != rec.chart
]
print(f"\nchart history: {switches}")
zs = [SgnWord(rec.sgn_upper).z for rec in traj.diagnostics if rec.sgn_upper]
print(f"intersection count along the run: {zs} (never increases)")
