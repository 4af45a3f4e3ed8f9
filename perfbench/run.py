"""Layered benchmark of extremalflow: one workload per invocation.

    python3 perfbench/run.py --workload {bracket,sweep,hold} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the run times whole passes of the workload for at
least ``--seconds`` seconds and reports the end-to-end metrics.  With
``--trace 1`` it times one untraced pass, then the same pass again with
spans around the package's public functions, and reports per-layer
metrics; the spans are written to ``perfbench/out/``.

Every pass checks its outputs.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Single-threaded native libraries, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The sweep runs at the package's own default concurrency.
os.environ.pop("EXTREMALFLOW_THREADS", None)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Target, Totals, Tracer, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "sim_time_per_s": "1/s",
    "peak_rss_mb": "MB",
}

ANALYSIS = (
    "word_from_gap",
    "dissipation_estimate",
    "endpoint_curvature_deviation",
    "lyapunov_graph",
    "intersection_audit",
)
GEOMETRY = (
    "graph_to_sampled",
    "polar_to_sampled",
    "endpoint_tangents",
    "is_graph_representable",
)
SOLUTIONS = (
    "initial_curve",
    "gamma_lower",
    "gamma_lower_polar",
    "gamma_upper",
    "grim_reaper_dominating_sigma",
)
MODULES = ("classifier", "evolvers", "analysis", "geometry", "solutions")
ADVANCES = tuple(
    f"evolvers.advance_{chart}.{scheme}"
    for chart in ("graph", "polar")
    for scheme in ("explicit", "semi_implicit")
)
CALLS_BUSY = (("calls", "count"), ("busy_s", "s"))

PER_LAYER = {
    "classifier.classify.calls": "count",
    "classifier.classify.busy_s": "s",
    "classifier.bisect_sigma_star.halvings_per_classify": "ratio",
    "classifier.sweep.overlap": "ratio",
    "classifier.sweep.workers": "count",
    "evolvers.evolve.self_s": "s",
    "evolvers.evolve.sim_time_per_s": "1/s",
    "evolvers.samples.graph": "count",
    "evolvers.samples.polar": "count",
    "evolvers.switch_chart.calls": "count",
    "evolvers.switch_chart.busy_s": "s",
    **{f"{name}.us_per_step": "us/computed_step" for name in ADVANCES},
    **{f"analysis.{f}.{k}": u for f in ANALYSIS for k, u in CALLS_BUSY},
    "analysis.diagnostics_share": "ratio",
    **{f"geometry.{f}.{k}": u for f in GEOMETRY for k, u in CALLS_BUSY},
    **{f"solutions.{f}.busy_s": "s" for f in SOLUTIONS},
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("bracket", "sweep", "hold"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import the package from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "extremalflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import extremalflow

    if Path(extremalflow.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: extremalflow imported from {extremalflow.__file__}")
    import workloads

    return workloads


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing and building."""
    code = (
        f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; "
        "import workloads; workloads.build_problem()"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def one_pass(wl, problem, inputs, checks):
    """Run and check one pass. Returns (wall seconds, output or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(problem, inputs)
    except (ValueError, RuntimeError) as exc:
        # the package refused the inputs or the run failed: a failed check
        checks.expect(False, f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    wall = time.perf_counter() - t0
    wl.check(problem, inputs, out, checks)
    return wall, out


def run_untraced(workloads, name, seed, seconds, checks, scale=None):
    """Passes over fresh seeded inputs until ``seconds`` have elapsed."""
    wl = workloads.WORKLOADS[name]
    metrics = {"setup_s": measure_setup()}
    problem = workloads.build_problem(scale or workloads.FULL)
    workloads.warm_up(problem)
    walls, rates, sizes = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        inputs = wl.inputs(problem, workloads.pass_rng(seed, len(walls)))
        wall, out = one_pass(wl, problem, inputs, checks)
        walls.append(wall)
        sizes.append(len(inputs) / wall)
        if out is not None:
            rates.append(wl.flow_time(inputs, out) / wall)
    metrics["sim_time_per_s"] = statistics.median(rates) if rates else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"passes: {len(walls)}, seconds each: {[round(w, 4) for w in walls]}")
    # Pass times depend on where a bisection's midpoints fall, so they are
    # shown in the table but are not metrics of the result line.
    shown = {
        "bracket": {"bracket_s": (statistics.median(walls), "s")},
        "sweep": {"sweep_amplitudes_per_s": (statistics.median(sizes), "1/s")},
        "hold": {"hold_s": (statistics.median(walls), "s")},
    }[name]
    return metrics, shown


def run_traced(workloads, name, seed, checks, scale=None):
    """One untraced pass, then the same pass traced; per-layer metrics."""
    import extremalflow

    wl = workloads.WORKLOADS[name]
    tracer = Tracer()
    targets = trace_targets()
    with tracer.installed(extremalflow, targets):
        problem = workloads.build_problem(scale or workloads.FULL)
    workloads.warm_up(problem)
    inputs = wl.inputs(problem, workloads.pass_rng(seed, 0))
    plain_wall, plain_out = one_pass(wl, problem, inputs, checks)
    with tracer.installed(extremalflow, targets):
        traced_wall, traced_out = one_pass(wl, problem, inputs, checks)
    same = plain_out is not None and traced_out is not None and (
        wl.fingerprint(plain_out) == wl.fingerprint(traced_out)
    )
    checks.expect(same, "traced pass output differs from the untraced pass")
    if traced_out is not None:
        for key, value in wl.counts(problem, inputs, traced_out).items():
            tracer.count(key, value)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(trace_file)
    print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    return layer_metrics(tracer, traced_wall / plain_wall)


def trace_targets():
    def scheme(args, kwargs):
        ctl = args[1] if len(args) > 1 else kwargs["ctl"]
        return ctl.scheme

    def evolve_counts(traj, count):
        count("flow_time", traj.event.t)
        graph = sum(d.chart == "graph" for d in traj.diagnostics)
        count("samples.graph", graph)
        count("samples.polar", len(traj.diagnostics) - graph)

    return [
        Target("classifier", "classify"),
        Target("classifier", "sweep"),
        Target("classifier", "bisect_sigma_star"),
        Target("evolvers", "evolve", observe=evolve_counts),
        Target("evolvers", "switch_chart"),
        Target("evolvers", "advance_graph", label=scheme),
        Target("evolvers", "advance_polar", label=scheme),
        *(Target("analysis", f) for f in ANALYSIS),
        *(Target("geometry", f) for f in GEOMETRY),
        *(Target("solutions", f) for f in SOLUTIONS),
    ]


def layer_metrics(tracer, overhead_ratio: float) -> dict:
    tot = totals_by_name(tracer.spans)
    none = Totals(0, 0.0, 0.0)
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("classifier.classify", "evolvers.switch_chart") + tuple(
        f"analysis.{f}" for f in ANALYSIS
    ) + tuple(f"geometry.{f}" for f in GEOMETRY):
        m[f"{name}.calls"] = tot.get(name, none).calls
        m[f"{name}.busy_s"] = tot.get(name, none).busy
    for f in SOLUTIONS:
        m[f"solutions.{f}.busy_s"] = tot.get(f"solutions.{f}", none).busy

    m["classifier.bisect_sigma_star.halvings_per_classify"] = ratio(
        c.get("halvings", 0.0), m["classifier.classify.calls"]
    )
    sweeps = {s.id: s for s in tracer.spans if s.name == "classifier.sweep"}
    pooled = [
        s for s in tracer.spans if s.name == "classifier.classify" and s.parent in sweeps
    ]
    m["classifier.sweep.overlap"] = ratio(
        sum(s.cpu for s in pooled), sum(s.end - s.start for s in sweeps.values())
    )
    m["classifier.sweep.workers"] = len({s.thread for s in pooled})

    evolve = tot.get("evolvers.evolve", none)
    m["evolvers.evolve.self_s"] = evolve.self
    m["evolvers.evolve.sim_time_per_s"] = ratio(c.get("flow_time", 0.0), evolve.self)
    m["evolvers.samples.graph"] = int(c.get("samples.graph", 0))
    m["evolvers.samples.polar"] = int(c.get("samples.polar", 0))
    for name in ADVANCES:
        m[f"{name}.us_per_step"] = 1e6 * ratio(
            tot.get(name, none).busy, c.get(f"steps.{name}", 0.0)
        )

    module_self = {mod: 0.0 for mod in MODULES}
    for name, t in tot.items():
        module_self[name.split(".", 1)[0]] += t.self
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_self[mod]
    m["analysis.diagnostics_share"] = ratio(
        module_self["analysis"] + module_self["geometry"], sum(module_self.values())
    )
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_package()
    checks = workloads.Checks()
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    if args.trace:
        values = run_traced(workloads, args.workload, args.seed, checks)
        units = PER_LAYER
        shown = {}
    else:
        values, shown = run_untraced(
            workloads, args.workload, args.seed, args.seconds, checks
        )
        units = END_TO_END
    shown["failed_ratio"] = (checks.failed / max(checks.attempted, 1), "ratio")
    for note in checks.notes:
        print(f"FAILED CHECK: {note}")
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    table = {k: (m["value"], m["unit"]) for k, m in metrics.items()} | shown
    width = max(map(len, table))
    for k, (value, unit) in table.items():
        print(f"{k:<{width}}  {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
