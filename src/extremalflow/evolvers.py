"""Time integration of the driven flow in graph and polar charts.

The flow V = -kappa + A is integrated as a method-of-lines system in
whichever chart currently represents the curve:

* graph chart:  u_t = u_xx / (1 + u_x^2) + A sqrt(1 + u_x^2),  u(+-a) = 0
* polar chart:  rho_t = rho_tt / W^2 - (2 rho_t^2 + rho^2) / (rho W^2)
                + (A / rho) sqrt(W^2),   W^2 = rho^2 + rho_t^2, rho(0,pi) = a

Both are s_t = s_qq / M + F, stepped by one loop, ``_advance``, that owns
the central-difference stencils and the step size, one rule per scheme.
The explicit scheme takes RKL2 super-steps (Runge-Kutta-Legendre, second
order; Meyer, Balsara and Aslam 2014, J. Comput. Phys. 257:594, after
Alexiades, Amiez and Gremaud 1996).  ``cfl`` sets the step: a row's step
spans at most 232 Euler limits cfl h^2 min(M) (the span of
``RKL_STAGES`` stages) and moves no node by more than one cell, and a
step within one limit is an Euler step.  The parabolic bound h^2 min(M)
/ 2 of the row sets the stages: s stages, each one right-hand side, span
(s^2 + s - 2) / 4 times 0.9 of that bound, and a longer step takes the
fewest that cover it.
The semi-implicit variant, for long runs where the parabolic
bound is the bottleneck, is linearly implicit Euler (diffusion implicit
with frozen coefficients, forcing explicit; Ascher, Ruuth and Wetton
1995) extrapolated to third order from one full, two half and three third
steps (the harmonic sequence 1, 2, 3; Deuflhard 1985, SIAM Rev. 27:505),
whose last two tableau entries set an adaptive step size per row (Hairer
and Wanner, Solving ODEs II, IV.9): each row takes the step its error
tolerance allows, at most ``ctl.sample_interval``, with the exponent
1/3 of a third-order step.  A chart object supplies what differs:
spacing and pinned value, M, F and the speed factor, the guards, the
sampled points and the diagnostics.  Shared stencils make the discrete
equilibria coincide.  The stencil is the
package's one curvature: the right-hand side is V sqrt(M) / f, with V = A - kappa the
normal velocity and f = 1 (graph) or rho (polar); the curvature
functions and each sample's dissipation sum V^2 ds and endpoint
deviation |V| read V.

The loop advances a batch: a (K, n) state, one row per member, each row
with its own time, step size, step count and energy tracker; a row may
reject a step while the others accept theirs.  A row that reaches its
end is sampled there, in the loop, and goes on to its next end or leaves
the batch; the batch is then packed to the rows still stepping, so every
numpy call is shared by all members in step, but for the stages of an
explicit super-step, which each row takes by itself: a stage is two small
matrix products (numpy's BLAS), one for the stencil and one for the RKL2
recurrence, around the chart's M and F.
Each accepted step's energy E = L - A*S is bitwise ``analysis.energy``
of the points the chart's ``sample`` returns, evaluated per chunk: the
stepped states are copied into a buffer of ``ENERGY_CHUNK`` steps, one
per packing of the batch, and ``energy`` runs once on all buffered rows
when it is full and when a row leaves.
The tridiagonal systems of a semi-implicit step go to LAPACK ``gtsv`` in
three calls, as block-diagonal systems with zero coupling entries: the
first substep of each sequence for every row, then the second H/2 and
H/3 substeps, then the last H/3 substep.  It is the package's
one compiled routine outside numpy, taken from scipy's LAPACK extension
module by ``_load_dgtsv`` without importing scipy.  The matrix is
diagonally dominant, so gtsv never swaps rows, a zero multiplier adds
exactly nothing, and each row's solution is bitwise that of its own
solve.  Row reductions (max, min, sum along a row) are bitwise those of
the row alone, a row's step size and its acceptance read only its own
error estimate, and an explicit row takes its own super-step by itself,
so a member of a batch steps exactly as it would alone.  The guards are
written so that NaN fails them (the graph chart checks every 32 steps);
a row whose right-hand side is not finite is
'blown' before its step, which would carry it into its neighbours
through the zero coupling (0 * inf is NaN).  Buffers are reused across
steps.

``evolve_batch`` drives full runs from family curves: a member whose
graph is ``_GraphChart.steep`` (a cell slope past ``SLOPE_SWITCH``, on or
above the axis) is stopped as 'steep' by ``_advance`` before its next
step and switches there, and only there, to the polar chart for good,
since both equilibria have a polar form; it records diagnostics on a
fixed sampling cadence and terminates on its first classification event.
A run has two chart segments at most, each one ``_advance`` call: the
graph-chart members step together to their handoff or event, then the
polar-chart ones from their handoff to their event, and each member is
sampled inside the loop whenever it reaches its next sample time.  A
member handed off between samples (or at one) takes its next sample in
the polar chart.  A segment starts each member's trial step at
``ctl.dt``, and the member keeps it from one sample interval to the
next.  A sample computes what the stop rule reads; the snapshot curve,
and the energy and tangent taken from it, are built on first read
(``DiagnosticRecord``).  ``evolve`` is its one-member case; a caller
that keeps only outcomes (a sweep) has each member keep only its latest
sample, so a batch holds K states, not K histories.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from math import inf

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import (
    Unresolvable,
    energy,
    word_from_gap,
)
from .geometry import (
    AXIS_TOL,
    GraphProfile,
    PolarProfile,
    ProblemParams,
    SampledCurve,
    _end_tangent,
    _length_and_area,
    _polar_angles,
    _polar_xy,
    graph_to_sampled,
    polar_to_sampled,
)
from .solutions import (
    InitialFamily,
    _arc_heights,
    gamma_lower,
    gamma_lower_polar,
    gamma_upper,
    initial_curve,
)

__all__ = [
    "BlowupError",
    "StepControl",
    "ClassifierTolerances",
    "EventKind",
    "TerminationEvent",
    "DiagnosticRecord",
    "Trajectory",
    "graph_flow_rhs",
    "curvature_graph",
    "curvature_polar",
    "advance_graph",
    "advance_polar",
    "switch_chart",
    "evolve",
    "evolve_batch",
]

BLOWUP_LIMIT = 1e6
ORIGIN_LIMIT = 1e-9
# Graph cell slope past which a curve on or above the axis is handed to the
# polar chart before its next step, for the rest of its run.
SLOPE_SWITCH = 10.0
# Steps whose states are buffered per evaluation of the tracked energy.  An
# evaluation holds a few temporaries of the buffer's size, so a larger chunk
# raises the peak memory of a run more than it cuts the evaluation's cost.
ENERGY_CHUNK = 16
# Local error tolerance of a semi-implicit step in flow units: a step is
# accepted when its error estimate is at most STEP_TOL / A.
STEP_TOL = 1e-4
# The longest explicit super-step (RKL2, ``_advance``) spans as many Euler
# limits as RKL_STAGES stages span stage units, (s^2 + s - 2) / 4: 232 at 30.
# Its stages are set by the parabolic bound: 20 at cfl = 0.2, 23 at 0.25, so
# the coefficient table up to RKL_STAGES stages covers every step.
RKL_STAGES = 30
# The stop rule's thresholds (``_decide``): the radial clearance above the upper
# equilibrium that certifies escape, and the dissipation floor of convergence.
ESCAPE_GAP = 1e-3
DISSIPATION_FLOOR = 1e-4

# The reductions of the stepping loop, called as ufunc methods: the same
# arithmetic as ndarray.max() and friends without their Python wrapper.
_max, _min, _sum = np.maximum.reduce, np.minimum.reduce, np.add.reduce
# The loop's constant operands are 0-d arrays (the charts' as well): a
# ufunc takes one in about 0.3 us and a Python float in about 0.45 us,
# for the same arithmetic.
_HALF, _ONE, _TWO, _THREE = np.array(0.5), np.array(1.0), np.array(2.0), np.array(3.0)


def _rkl_coefficients(s_max):
    """The RKL2 recursion up to ``s_max`` stages (Meyer, Balsara and Aslam
    2014, J. Comput. Phys. 257:594, section 3) as an (s_max + 1, 6) table,
    and the span (s^2 + s - 2) / 4 of s stages, in the step one stage may
    take, for s = 0 .. s_max (an increasing list).

    Row j >= 2 weighs the rows of ``_super_step``'s stage buffer, the two
    stage slots, Y0, lap / M, F and w1 tau rhs(Y0), into stage j:
    Y_j = mu_j Y_(j-1) + nu_j Y_(j-2) + (1 - mu_j - nu_j) Y0
          + mu_j w1 tau (lap / M + F) - a_(j-1) mu_j w1 tau rhs(Y0).
    Stage j is written to slot j % 2, over Y_(j-2), so mu_j sits in column
    (j - 1) % 2 and nu_j in column j % 2; the columns of lap / M and F hold
    mu_j, which the step scales by its w1 tau.  No entry depends on the
    stage count s; rows 0 and 1 are zero.
    """
    b = [1 / 3] * 3 + [(j * j + j - 2) / (2 * j * (j + 1)) for j in range(3, s_max + 1)]
    table = np.zeros((s_max + 1, 6))
    for j in range(2, s_max + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        table[j, (j - 1) % 2], table[j, j % 2] = mu, nu
        table[j, 2:] = 1.0 - mu - nu, mu, mu, -(1.0 - b[j - 1]) * mu
    return table, [(s * s + s - 2) / 4 for s in range(s_max + 1)]


_RKL, _RKL_SPANS = _rkl_coefficients(RKL_STAGES)
_THIRD = np.array(1 / 3)  # b_1 of the first stage


def _load_dgtsv(locations=None):
    """LAPACK ``dgtsv`` of scipy's compiled LAPACK module, without scipy.

    The module ``scipy.linalg._flapack`` is loaded from its file under its
    own name, so neither ``scipy`` nor ``scipy.linalg`` is imported; the
    routine is the one ``scipy.linalg.lapack`` exports.  ``locations`` are
    the directories of the scipy package (by default those ``find_spec``
    reports, which imports nothing).  With no such module there that loads
    and has ``dgtsv`` (a missing file, or one the platform cannot load on
    its own, e.g. whose libraries only ``import scipy`` makes findable),
    the routine is imported from ``scipy.linalg.lapack``.
    """
    if locations is None:
        spec = find_spec("scipy")
        locations = (spec and spec.submodule_search_locations) or ()
    name = "scipy.linalg._flapack"
    for base in locations:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            loader = ExtensionFileLoader(name, path)
            try:
                module = module_from_spec(spec_from_loader(name, loader))
                loader.exec_module(module)
            except (ImportError, OSError):
                continue
            if hasattr(module, "dgtsv"):
                return module.dgtsv
    from scipy.linalg.lapack import dgtsv

    return dgtsv


dgtsv = _load_dgtsv()


class BlowupError(RuntimeError):
    """The discrete state left the representable range."""


@dataclass(frozen=True)
class StepControl:
    """Stepping parameters, for any grid.

    ``scheme`` selects 'explicit' RKL2 super-steps or the 'semi_implicit'
    linearized-diffusion variant.  ``cfl`` sets the explicit scheme's Euler
    limit cfl * h^2 * min(M) on the grid being stepped: a step within it is
    an Euler step, and no step is longer than 232 of them (see
    ``_advance``); at most 0.25, half the Euler bound h^2 M / 2.  The
    stages of a longer step are set by that bound, not by ``cfl``.
    ``dt`` is read only as the first trial step of the semi-implicit
    scheme's error-controlled step size; no semi-implicit step exceeds
    ``sample_interval``, at least 1e-9 (above ``_decide``'s 1e-12 horizon
    slack).  ``t_max`` is finite.
    Build one with ``for_params``, which states the defaults.
    """

    dt: float
    cfl: float
    t_max: float
    scheme: str
    sample_interval: float

    def __post_init__(self):
        if self.scheme not in ("explicit", "semi_implicit"):
            raise ValueError(f"unknown scheme '{self.scheme}'")
        if self.scheme == "explicit" and not 0 < self.cfl <= 0.25:
            raise ValueError("explicit scheme requires 0 < cfl <= 0.25")
        # written so that a NaN fails the test
        positive = (self.dt, self.cfl, self.sample_interval)
        if not (all(v > 0 for v in positive) and 0 < self.t_max < inf):
            raise ValueError("dt, cfl, t_max and sample_interval must be positive, t_max finite")
        if self.sample_interval < 1e-9:
            raise ValueError(f"sample_interval must be at least 1e-9, got {self.sample_interval!r}")

    @classmethod
    def for_params(
        cls,
        params: ProblemParams,
        cfl: float = 0.2,
        t_max: float = 50.0,
        scheme: str = "explicit",
        sample_interval: float = 0.1,
    ) -> "StepControl":
        """Controls sized for the grid of ``params``: dt = cfl * dx^2 for
        the explicit scheme (its Euler limit on a graph with a node of
        zero slope), a first trial step dt = 0.1 * dx for the
        semi-implicit one."""
        dx = params.dx
        return cls(
            dt=cfl * dx**2 if scheme == "explicit" else 0.1 * dx,
            cfl=cfl,
            t_max=t_max,
            scheme=scheme,
            sample_interval=sample_interval,
        )


@dataclass(frozen=True)
class ClassifierTolerances:
    """Finite-time proxies for the asymptotic statements of the theory.

    ``converge``: sup-distance at which an orbit is declared locked onto
    an equilibrium (together with a dissipation below
    ``DISSIPATION_FLOOR``); 0 switches both convergence events off, so
    the run follows its orbit until it escapes (a clearance past
    ``ESCAPE_GAP``), blows up or reaches the horizon.  ``t_max``: the
    classification horizon, finite.
    """

    converge: float = 1e-3
    t_max: float = 50.0

    def __post_init__(self):
        # written so that a NaN fails the test
        if not (self.converge >= 0 and 0 < self.t_max < inf):
            raise ValueError("all tolerances must be positive (converge may be 0, t_max finite)")


class EventKind(Enum):
    ESCAPED = "Escaped"
    CONVERGED_LOWER = "ConvergedLower"
    CONVERGED_UPPER = "ConvergedUpper"
    HORIZON_REACHED = "HorizonReached"
    BLOWUP = "Blowup"


@dataclass(frozen=True)
class TerminationEvent:
    kind: EventKind
    t: float
    detail: str = ""


@dataclass
class DiagnosticRecord:
    """Per-sample diagnostics along a run.

    A run's records (``_diagnose``) hold their snapshot and leave the
    fields that come from it to their first read: L, S and E are
    ``analysis.energy`` of the snapshot and tangent_y_P is the y-component
    of its ``endpoint_tangents`` at P, each bitwise the value an eager
    record would hold.
    """

    t: float
    chart: str
    L: float
    S: float
    E: float
    dissipation: float
    sgn_upper: str | None
    kappa_dev_P: float
    tangent_y_P: float
    dist_lower: float
    dist_upper: float

    def __getattr__(self, name):
        # reached only for an attribute that is not set
        snapshot = vars(self).get("_snapshot")
        if snapshot is None or name not in ("L", "S", "E", "tangent_y_P"):
            raise AttributeError(name)
        L, S, E = energy(snapshot, self._A)
        tangent_y_P = float(_end_tangent(*snapshot.points[:3])[1])  # endpoint_tangents' at_P
        vars(self).update(L=L, S=S, E=E, tangent_y_P=tangent_y_P)
        return vars(self)[name]


@dataclass
class Trajectory:
    """Time series of curves and diagnostics ending in a termination event."""

    params: ProblemParams
    sigma: float
    diagnostics: list
    event: TerminationEvent
    max_step_energy_increase: float = float("-inf")

    @property
    def snapshots(self) -> list:
        """(t, curve) of each sample, from its record."""
        return [(r.t, r._snapshot) for r in self.diagnostics]

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.diagnostics])

    def final_curve(self) -> SampledCurve:
        return self.diagnostics[-1]._snapshot

    def summary_dict(self) -> dict:
        def clean(v):
            # strict JSON has no NaN/Infinity
            if isinstance(v, float) and not np.isfinite(v):
                return None
            return v

        last = self.diagnostics[-1]
        return {
            "sigma": self.sigma,
            "A": self.params.A,
            "a": self.params.a,
            "grid_n": self.params.grid_n,
            "event": self.event.kind.value,
            "event_time": self.event.t,
            "event_detail": self.event.detail,
            "final_dist_lower": clean(last.dist_lower),
            "final_dist_upper": clean(last.dist_upper),
            "final_sgn": last.sgn_upper,
            "final_chart": last.chart,
            "max_step_energy_increase": clean(self.max_step_energy_increase),
        }

    def write_outputs(self, outdir) -> None:
        """Write the snapshot CSVs and the diagnostics CSV."""
        import glob
        import os

        os.makedirs(outdir, exist_ok=True)
        for stale in glob.glob(os.path.join(outdir, "snapshot_*.csv")):
            os.remove(stale)
        for k, (_t, curve) in enumerate(self.snapshots):
            curve.to_csv(os.path.join(outdir, f"snapshot_{k:04d}.csv"))
        with open(os.path.join(outdir, "diagnostics.csv"), "w", encoding="utf-8") as fh:
            fh.write("t,L,S,E,Z,sgn_word,kappa_dev_P,tangent_y_P\n")
            for r in self.diagnostics:
                # Z, the intersection count, is the word length plus one
                w = r.sgn_upper or ""
                z = str(len(w) + 1) if w else ""
                fh.write(
                    f"{r.t:.17g},{r.L:.17g},{r.S:.17g},{r.E:.17g},"
                    f"{z},{w},{r.kappa_dev_P:.17g},{r.tangent_y_P:.17g}\n"
                )


# ---------------------------------------------------------------------------
# the two charts
# ---------------------------------------------------------------------------


class _Snapshot(SampledCurve):
    """The ``SampledCurve`` of a graph or polar profile, converted (and
    checked) on first read of its points."""

    def __init__(self, profile):
        object.__setattr__(self, "_profile", profile)

    def __getattr__(self, name):
        # reached only for an attribute that is not set
        profile = vars(self).get("_profile")
        if profile is None or name != "points":
            raise AttributeError(name)
        to_sampled = graph_to_sampled if isinstance(profile, GraphProfile) else polar_to_sampled
        points = to_sampled(profile).points
        object.__setattr__(self, "points", points)
        return points


class _EnergyTracker:
    """Largest single-step rise of E = L - A*S along a run.

    The energies of a chunk of steps arrive together, in time order, and
    are folded in one by one, so the result is that of a per-step update.
    Only states confined to {y >= -1e-9} participate; the handoff to the
    polar chart or an excursion below the axis (an energy of NaN)
    re-baselines the tracker:
    a difference with a NaN is NaN, and a NaN never wins ``max``.
    """

    __slots__ = ("prev", "max_rise")

    def __init__(self):
        self.prev, self.max_rise = float("nan"), float("-inf")

    def reset(self):
        self.prev = float("nan")

    def extend(self, Es):
        prev, rise = self.prev, self.max_rise
        for E in Es:
            rise = max(rise, E - prev)
            prev = E
        self.prev, self.max_rise = prev, rise


class _GraphChart:
    """Graph heights u(x), pinned to 0: M = 1 + u_x^2, F = A sqrt(M).

    Since M >= 1, the explicit Euler limit cfl * dx^2 * min(M) is
    cfl * dx^2 on a graph with a node of zero slope.  A chart built with
    ``params`` (that of a full run) compares against their lower equilibrium and
    stops a row by one rule, ``steep``, before every step (``guard``):
    near the pins the discrete forcing A*sqrt(1 + u_x^2) outruns the
    diffusion as the wall steepens.  ``evolve_batch`` hands a steep row
    off to the polar chart, or ends it as a blow-up if the curve is not
    star-shaped; a graph below the axis has no polar chart.

    The stepping methods take a (k, n) array of states, one per row.
    """

    # P = (-a, 0) is the first node, so the first interior node is next to it
    name, pin, near_P = "graph", 0.0, 0

    def __init__(self, h, A, params=None):
        self.h, self.A, self.params = h, A, params
        self.inv2h, self.invh2 = np.array(1.0 / (2.0 * h)), np.array(1.0 / h**2)
        self.stencil = _stencil(self.inv2h, self.invh2)
        self.A0 = np.array(A)
        self.fill_cache = {}
        if params is not None:
            self.x, self.lower = params.x_nodes(), gamma_lower(params).u
            self.depth_scale = max(params.center_offset, 0.05 * params.a)

    def terms(self, inner, d1, M, F, work):
        np.multiply(d1, d1, out=M)
        M += _ONE
        np.sqrt(M, out=F)
        F *= self.A0

    def speed(self, inner):
        """u_t = V sqrt(M): the factor is 1."""
        return _ONE

    def steep(self, X):
        """Positions of the rows of the (k, n) batch X too steep for the
        graph chart: a cell slope |u_{i+1} - u_i| / h past ``SLOPE_SWITCH``
        and min u >= -AXIS_TOL.  The batch's steepest cell screens all
        rows first; a NaN passes the screen and fails the axis test.
        """
        h = self.h
        c = np.subtract(X[:, 1:], X[:, :-1])
        np.abs(c, out=c)
        if _max(c, None) / h <= SLOPE_SWITCH:
            return []
        # the rows whose lowest node is on or above the axis (a NaN is
        # its row's argmin, and fails)
        rows = [i for i, j in enumerate(X.argmin(1).tolist()) if X.item(i, j) >= -AXIS_TOL]
        if not rows:
            return []
        slopes = (_max(c, 1) / h).tolist()
        return [i for i in rows if slopes[i] > SLOPE_SWITCH]

    def guard(self, X, d1, k):
        """{row position: 'steep' or 'blown'} for the rows that must stop, or None."""
        hits = None
        if self.params is not None:
            steep = self.steep(X)
            if steep:
                hits = dict.fromkeys(steep, "steep")
        if k % 32 == 0:
            # written so that a NaN fails the test
            heights = _max(np.abs(X), 1).tolist()
            slopes = _max(np.abs(d1), 1).tolist()
            for i in range(len(heights)):
                if not (heights[i] <= BLOWUP_LIMIT and slopes[i] <= BLOWUP_LIMIT):
                    hits = hits or {}
                    hits.setdefault(i, "blown")
        return hits

    def energy(self, X):
        """E = L - A*S per row: ``analysis.energy`` of the row's sample,
        the points (x, u), bitwise; NaN for a row below the axis."""
        L, S = _length_and_area(self.x, X)
        return (L - self.A * S).tolist()

    def sample(self, u) -> SampledCurve:
        """The curve of the graph u, checked now and converted on first read."""
        return _Snapshot(GraphProfile(self.params, u))

    def compare(self, u):
        """(Word parameter, gap above the upper equilibrium, distance to
        the lower one, to the upper one, smallest gap).

        The gap is sampled on a fill grid: a steep profile crosses the
        equilibrium inside a single cell near the pins and node sampling
        alone would miss it.  The density needed scales with the wall
        slope (the sliver depth is set by the equilibrium scale).  The
        graph chart certifies neither escape nor upper convergence.
        """
        params = self.params
        slope = float(_max(np.abs(np.subtract(u[1:], u[:-1])))) / self.h
        # np.clip's bounds, NaN kept
        factor = int(min(max(np.ceil(2.0 * slope * self.h / self.depth_scale), 16.0), 256.0))
        if factor not in self.fill_cache:
            xs = np.linspace(-params.a, params.a, factor * (params.grid_n - 1) + 1)[1:-1]
            self.fill_cache[factor] = (xs, _arc_heights(params, xs, 1.0))
        x_fill, upper_fill = self.fill_cache[factor]
        gap = np.interp(x_fill, self.x, u) - upper_fill
        dist_lower = float(_max(np.abs(u - self.lower)))
        return x_fill, gap, dist_lower, float("nan"), float("-inf")


class _PolarChart:
    """Polar radii rho(theta), pinned to a: M = rho^2 + rho_theta^2 and
    F = -(2 rho_theta^2 + rho^2) / (rho M) + A sqrt(M) / rho.

    The explicit Euler limit cfl * dtheta^2 * min(M) is weighted by the
    metric, as the diffusion coefficient 1 / M is.  A chart built with
    ``params`` compares against both equilibria of those ``params``.  The
    stepping methods work on (k, n) arrays as in the graph chart.
    """

    # P = (-a, 0) sits at theta = pi, the last node
    name, near_P = "polar", -1

    def __init__(self, h, A, pin, params=None):
        self.h, self.A, self.pin, self.params = h, A, pin, params
        self.inv2h, self.invh2 = np.array(1.0 / (2.0 * h)), np.array(1.0 / h**2)
        self.stencil = _stencil(self.inv2h, self.invh2)
        self.A0 = np.array(A)
        if params is not None:
            self.theta = params.theta_nodes()
            self.lower, self.upper = gamma_lower_polar(params).rho, gamma_upper(params).rho

    def terms(self, inner, d1, M, F, work):
        # F = A sqrt(M) / rho - (2 rho_t^2 + rho^2) / (rho M), in place:
        # F holds rho^2 and then rho M while ``work`` builds the second term
        # (doubling is exact, so 2 * (rho_t * rho_t) is (2 rho_t) * rho_t)
        np.multiply(inner, inner, out=F)
        np.multiply(d1, d1, out=work)
        np.add(F, work, out=M)
        work *= _TWO
        work += F
        np.multiply(inner, M, out=F)
        work /= F
        np.sqrt(M, out=F)
        F *= self.A0
        F /= inner
        F -= work

    def speed(self, inner):
        """rho_t = V sqrt(M) / rho: the factor is rho."""
        return inner

    def guard(self, X, d1, k):
        # written so that a NaN fails the test
        if ORIGIN_LIMIT < _min(X, None) and _max(X, None) < BLOWUP_LIMIT:
            return None
        low, high = _min(X, 1), _max(X, 1)
        return {
            i: "blown"
            for i in range(len(X))
            if not (ORIGIN_LIMIT < low[i] and high[i] < BLOWUP_LIMIT)
        }

    def energy(self, X):
        """E = L - A*S per row: ``analysis.energy`` of the row's sample,
        the points (rho cos theta, rho sin theta) from P to Q, bitwise."""
        L, S = _length_and_area(*_polar_xy(X, self.params))
        return (L - self.A * S).tolist()

    def sample(self, rho) -> SampledCurve:
        """The curve of the radii rho, checked now and converted on first read."""
        return _Snapshot(PolarProfile(self.params, rho))

    def compare(self, rho):
        """As for the graph chart, with words on the nodes themselves (exact
        radii; fill interpolation would add a chord bias near tangency)."""
        gap = rho[1:-1] - self.upper[1:-1]
        dist_lower = float(_max(np.abs(rho - self.lower)))
        dist_upper = float(_max(np.abs(rho - self.upper)))
        return self.theta[1:-1], gap, dist_lower, dist_upper, float(_min(gap))


# ---------------------------------------------------------------------------
# the stepping loop
# ---------------------------------------------------------------------------


def _stencil(inv2h, invh2):
    """The (2, 3) matrix of ``_flow_rhs``'s differences: three neighbouring
    nodes to the first derivative and the Laplacian at the middle one."""
    return np.array([[-1.0, 0.0, 1.0], [1.0, -2.0, 1.0]]) * [[inv2h], [invh2]]


def _flow_terms(lo, inner, hi, chart, d1, M, F, work):
    """First derivative into ``d1``, and the chart's M and F from it.

    ``lo``, ``inner`` and ``hi`` are the state without its last two, its
    first and last, and its first two nodes; ``work`` is a buffer of
    their shape, for the chart.
    """
    np.subtract(hi, lo, out=d1)
    d1 *= chart.inv2h
    chart.terms(inner, d1, M, F, work)


def _flow_rhs(lo, inner, hi, chart, d1, M, F, rhs):
    """Interior right-hand side lap / M + F of either chart, into ``rhs``,
    with d1, M and F as ``_flow_terms`` fills them."""
    _flow_terms(lo, inner, hi, chart, d1, M, F, rhs)  # rhs is free until the stencil below
    np.subtract(hi, inner, out=rhs)
    rhs -= inner
    rhs += lo
    rhs *= chart.invh2
    rhs /= M
    rhs += F


def _rhs(s: np.ndarray, chart):
    """Interior right-hand side of one state of ``chart`` and its metric M."""
    m = len(s) - 2
    d1, M, F, rhs = np.empty((4, m))
    _flow_rhs(s[:-2], s[1:-1], s[2:], chart, d1, M, F, rhs)
    return rhs, M


def graph_flow_rhs(u: np.ndarray, dx: float, A: float) -> np.ndarray:
    """Interior right-hand side of the graph-chart flow, as the stepper computes it."""
    return _rhs(u, _GraphChart(dx, A))[0]


def _normal_velocity(s: np.ndarray, chart):
    """Normal velocity V = A - kappa (the chart's A) at the interior nodes
    of one state of ``chart``, and the arc length h sqrt(M) of each node.

    The right-hand side is V sqrt(M) / f, with the chart's ``speed``
    factor f; V is exactly 0 at a discrete equilibrium.
    """
    rhs, M = _rhs(s, chart)
    ds = np.sqrt(M)
    V = rhs * chart.speed(s[1:-1]) / ds
    ds *= chart.h
    return V, ds


def curvature_graph(g: GraphProfile) -> np.ndarray:
    """Signed curvature at the interior nodes of a graph profile: -V at A = 0.

    Concave-down profiles get kappa > 0, so the circular-cap equilibrium
    carries kappa = +A.
    """
    return -_normal_velocity(g.u, _GraphChart(g.params.dx, 0.0))[0]


def curvature_polar(p: PolarProfile) -> np.ndarray:
    """Signed curvature at the interior nodes of a polar profile: -V at A = 0.

    This is the polar formula (rho^2 + 2 rho_t^2 - rho rho_tt) / M^(3/2)
    with M = rho^2 + rho_t^2.  Positive for arcs bending around the
    origin, matching the graph-chart sign on shared curves.
    """
    return -_normal_velocity(p.rho, _PolarChart(p.params.dtheta, 0.0, p.params.a))[0]


def _implicit_solve(r, b, d, dl, du, m):
    """Solve (1 + 2 r_i) x_i - r_i (x_(i-1) + x_(i+1)) = b_i by LAPACK gtsv.

    ``r`` and ``b`` hold consecutive systems of m unknowns each, solved
    as one block-diagonal system whose coupling entries are zero.  The
    matrix is diagonally dominant, so gtsv never swaps rows and a zero
    multiplier adds exactly nothing: each block's solution is bitwise
    that of its own solve.  ``d``, ``dl`` and ``du`` are work buffers of
    the lengths of ``r``, ``r[1:]`` and ``r[1:]`` for the three
    diagonals; ``b`` is overwritten by the solution, which is returned.
    """
    np.negative(r[1:], out=dl)  # row i, column i-1
    np.multiply(r, _TWO, out=d)
    d += _ONE
    np.negative(r[:-1], out=du)  # row i, column i+1
    if m < len(r):
        dl[m - 1 :: m] = 0.0
        du[m - 1 :: m] = 0.0
    x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)[3:]
    if info:
        raise np.linalg.LinAlgError("singular matrix")
    if x is not b:  # gtsv works in place on a contiguous float64 b
        b[...] = x
    return b


def _euler_substep(H, invh2, M, F, inner, R, B, pins, pin, work):
    """Linearly implicit Euler substeps of sizes ``H`` (a column, one per
    row) from states with interior ``inner``, metric M and forcing F.

    R = H / (h^2 M) and B = inner + H F, with the pinned values moved into
    the first and last entry of each system (``pins`` lists its (b, r)
    row pairs), are solved into B by one gtsv call with the work buffers
    ``work`` = (d, dl, du, m) of ``_implicit_solve``; B may be F itself.
    """
    np.divide(H * invh2, M, out=R)
    np.multiply(H, F, out=B)
    B += inner
    for b, r in pins:
        b[0] += r[0] * pin
        b[-1] += r[-1] * pin
    _implicit_solve(R.reshape(-1), B.reshape(-1), *work)


def _stage_work(n):
    """Buffers of ``_super_step`` for states of n nodes, which each row
    uses in turn: the (6, n) stage buffer Q (rows: the two stage slots
    with the pinned values, Y0, lap / M, F and w1 tau rhs(Y0)), read-only
    (3, n - 2) windows of the slots, a copy of the RKL2 table, the
    stencil's (2, n - 2) output, M and w1 tau (0-d).
    """
    Q = np.empty((6, n))
    windows = [sliding_window_view(y, 3).T for y in Q[:2]]
    return Q, windows, _RKL.copy(), np.empty((2, n - 2)), np.empty(n - 2), np.empty(())


def _super_step(X, inner, chart, stages, wts, rhs, work):
    """One RKL2 super-step of every row of the (k, n) batch X, in place.

    Row i takes ``stages[i]`` stages, 1 being the Euler step X += tau rhs,
    and ``wts[i]`` is its w1 * tau (tau itself for an Euler step), where
    w1 = 4 / (s^2 + s - 2).  ``rhs`` holds the right-hand side of X and
    ``work`` is ``_stage_work``'s.  Each row is stepped by itself, so a
    member of a batch steps exactly as it would alone.

    A stage j >= 2 is two small matrix products around the chart's
    ``terms``: the chart's ``stencil`` times the window of the slot of
    stage j - 1 gives its d1 and lap, from which the chart fills M and F
    (F into the stage buffer Q), and lap / M goes to Q; row j of the RKL2
    table (``_rkl_coefficients``) times the interior of Q is then stage
    j, written to slot j % 2 over stage j - 2, which it weighs (numpy
    routes an output that is also an input through a temporary).  The
    table's columns of lap / M and F are scaled by w1 tau once per
    super-step, and slot 0 starts as Y0, which stage 2 weighs there.
    """
    Q, windows, table, DL, M, w = work
    Qi = Q[:, 1:-1]
    slots, lap_M, F, D = (Qi[0], Qi[1]), Qi[3], Qi[4], Qi[5]
    d1, lap, stencil, terms = DL[0], DL[1], chart.stencil, chart.terms
    for i, s in enumerate(stages):
        x, w[()] = inner[i], wts[i]
        np.multiply(rhs[i], w, out=D)  # w1 tau rhs(Y0)
        if s == 1:
            x += D
            continue
        Q[:3] = X[i]  # both slots and Y0, pins included
        y = np.multiply(D, _THIRD, out=slots[1])  # Y1 = Y0 + w1 tau rhs(Y0) / 3
        y += x
        np.multiply(_RKL[:, 3:5], w, out=table[:, 3:5])
        a, b = 1, 0  # the slots of stage j - 1 and of stage j
        for j in range(2, s + 1):
            np.dot(stencil, windows[a], out=DL)
            terms(slots[a], d1, M, F, lap_M)  # lap_M is free until the division
            np.divide(lap, M, out=lap_M)
            np.dot(table[j], Qi, out=slots[b])
            a, b = b, a
        x[...] = slots[a]


def _advance(S, chart, t, t_end, ctl, trackers=None, sample=None):
    """Advance each row of ``S`` in place from t[i] until t_end[i].

    ``S`` is a (K, n) array with one state of ``chart`` per row, ``t`` and
    ``t_end`` hold K times and ``trackers`` K energy trackers (or is
    None).  Each row takes its own steps of its own size; a semi-implicit
    row's first trial step is ``ctl.dt``.  With ``sample``, a row that
    reaches its end is sampled there and may go on: ``sample(row, s, t)``
    gets the row's index in ``S``, its state (a view into the batch, which
    the call may change) and its time, and returns the row's next end, or
    None.  A row that has reached its last end or stopped leaves the
    batch, which is then packed into fewer rows, so an idle row takes no
    step and records no energy.

    With trackers, the state after step j of the packed batch's row i is
    copied to row j * nk + i of an energy buffer made each time the batch
    is packed; the chart's ``energy`` evaluates the buffered rows when
    ``ENERGY_CHUNK`` steps are buffered and before the batch is packed,
    and each tracker takes its row's energies of accepted steps in time
    order.  Every energy is bitwise that of its step evaluated alone, and
    every tracker is up to date on return.
    Returns (t, status), lists of K entries with status 'ok', 'blown', or
    'steep' (``_GraphChart.steep`` flagged the row before its step; the
    caller hands it off to the polar chart).

    The loop owns the step size, one rule per scheme, each cut to the
    row's end.  A semi-implicit step is the row's trial step (below), at
    most ``ctl.sample_interval``.  An explicit step is an RKL2 super-step
    (``_super_step``).  Its length is set by the row's Euler limit cfl h^2
    min(M), read at the start of the step: the step tau is the least of
    (s^2 + s - 2) / 4 limits for s = ``RKL_STAGES`` (232), the row's
    remaining interval, and the one-cell cap tau max |rhs / f| <= h (f
    the chart's ``speed`` factor), without which a fast transient is less
    accurate than by Euler steps.  A step within one limit is an Euler
    step, bitwise.  A longer one takes the fewest s >= 2 stages with
    (s^2 + s - 2) / 4 * 0.45 h^2 min(M) >= tau: each stage within 0.9 of
    the Euler bound h^2 min(M) / 2 of s_t = s_qq / M + F, which leaves
    room for M to drift within the step (the one-cell cap moves a polar
    rho by at most dtheta relative, and M by about twice that: 3 % on
    grid 201; the graph chart's min(M) stays near 1).
    The same max |rhs / f| screens the row: it is NaN or inf exactly when
    an entry is (or on overflow); the semi-implicit scheme screens by the
    row sum.  A row whose right-hand side is not finite is 'blown' before its
    step, so that it cannot leak into the other rows of the solve.

    The semi-implicit step Phi_H treats lap / M implicitly with M frozen
    and moves the pinned values to the right-hand side.  It is
    extrapolated on the harmonic sequence 1, 2, 3: from the same state a
    row takes Phi_H once (T11), Phi_H/2 twice (T21) and Phi_H/3 three
    times (T31); Aitken-Neville gives T22 = 2 T21 - T11, T32 = 3 T31 -
    2 T21 and T33 = T32 + (T32 - T22) / 2, third order in H, and the row
    moves to T33.  The last correction, max |T32 - T22| / 2, estimates
    the error of the step; a step whose estimate exceeds STEP_TOL / A is
    rejected and retried from the same state.  Either way the next trial
    step is H * clip(0.9 (tol / err)^(1/3), 0.2, 4); an accepted step cut
    short by ``ctl.sample_interval`` or the row's end does not shrink the
    trial step.  The first substeps of all three sequences share M and F,
    so their systems and those of every row go to one block-diagonal gtsv
    call; the second H/2 and H/3 substeps are one stacked (2k, n)
    right-hand side and one gtsv call, and the last H/3 substep a third.
    The step that reaches a row's end sets its time to the end itself,
    not to the sum t + dt, so sample times stay on their grid.  Each
    row's time, end and trial step live in lists of the packed batch,
    packed with its rows; a row's time and status reach the returned
    lists, and its state ``S``, when it leaves.  Stepping buffers and pin
    lists are built each time the batch is packed, and the explicit stage
    buffers once per call.
    """
    K, n = S.shape
    m, pin = n - 2, chart.pin
    explicit = ctl.scheme == "explicit"
    h, dt_max = chart.h, ctl.sample_interval
    # the Euler limit's and a stage's unit: 0.45 h^2 is 0.9 of the Euler
    # bound h^2 min(M) / 2, room for M to drift within a step
    dt_stab, dt_stage, span = ctl.cfl * h**2, 0.45 * h**2, _RKL_SPANS[RKL_STAGES]
    invh2, tol = float(chart.invh2), STEP_TOL / chart.A
    t, status = list(t), ["ok"] * K
    rows = [row for row in range(K) if t[row] < t_end[row] - 1e-14]
    # per row of the packed batch: time, end, trial step and tracker
    times, ends = [t[row] for row in rows], [t_end[row] for row in rows]
    trial = [ctl.dt] * len(rows)
    tracked = None if trackers is None else [trackers[row] for row in rows]
    X, k = (S if len(rows) == K else S[rows]), 0
    if explicit:
        work = _stage_work(n)  # the stage buffers, which the rows use in turn
    while rows:
        nk = len(rows)
        if tracked is not None:
            hist, j = np.empty((ENERGY_CHUNK, nk, n)), 0
            skipped = []  # (j, i) of each buffered row whose step was rejected
        lo, inner, hi = X[:, :-2], X[:, 1:-1], X[:, 2:]  # views: they follow in-place updates
        d1, M, F, rhs, W = np.empty((5, nk, m))
        if explicit:
            stages, wts = [1] * nk, [0.0] * nk  # the rows' own stage counts and w1 * tau
        else:
            # Hs: the substeps H, H/2 and H/3 of every row ([0], [1], [2]);
            # R and B, the coefficients and right-hand sides of the first
            # substep of each sequence: one solve.  Z holds the states
            # after the first H/2 substep (rows [:nk]) and after the first
            # H/3 substep (rows [nk:]), pins included; G their next
            # substeps, one solve, and then the last H/3 substep in G3
            Hs = np.empty((3, nk, 1))
            H23 = Hs[1:].reshape(2 * nk, 1)
            R, B = np.empty((2, 3, nk, m))
            Z = np.concatenate((X, X))
            zlo, zinner, zhi = Z[:, :-2], Z[:, 1:-1], Z[:, 2:]
            d1z, Mz, G, Wz = np.empty((4, 2 * nk, m))
            z3, M3, G3 = zinner[nk:], Mz[nk:], G[nk:]
            last = zlo[nk:], z3, zhi[nk:], chart, d1z[nk:], M3, G3, Wz[nk:]
            R2, N = R[:2].reshape(2 * nk, m), nk * m
            d, dl, du = np.empty(3 * N), np.empty(3 * N - 1), np.empty(3 * N - 1)
            first = d, dl, du, m
            second = d[: 2 * N], dl[: 2 * N - 1], du[: 2 * N - 1], m
            third = d[:N], dl[: N - 1], du[: N - 1], m
            # row by row: a ufunc on strided end columns costs more than a few rows
            pinned = [(b[i], r[i]) for b, r in zip(B, R) for i in range(nk)]
            pinned_second = [(G[i], R2[i]) for i in range(2 * nk)]
            pinned_third = [(G[nk + i], R[2, i]) for i in range(nk)]
        while True:
            _flow_rhs(lo, inner, hi, chart, d1, M, F, rhs)
            leaving = chart.guard(X, d1, k)
            if explicit:
                # the Euler limit cfl h^2 min(M), the parabolic bound of
                # s_t = s_qq / M + F, and max |rhs| / f, NaN or inf if an entry is
                steps = _min(M, 1).tolist()
                np.abs(rhs, out=M)
                M /= chart.speed(inner)
                screen = _max(M, 1).tolist()
            else:
                steps = trial[:]
                screen = _sum(rhs, 1).tolist()  # NaN or +-inf if an entry is, or on overflow
            for i in range(nk):
                if explicit:
                    lim = dt_stab * steps[i]
                    dt = span * lim
                else:
                    dt = min(steps[i], dt_max)
                rem = ends[i] - times[i]
                if rem < dt:  # min(dt, rem), NaN kept
                    dt = rem
                if explicit:
                    if dt * screen[i] > h:  # no node moves more than h f
                        dt = h / screen[i]
                    # within one Euler limit an Euler step, else the fewest stages
                    # whose span covers dt, each advancing at most 0.45 h^2 min(M):
                    # s >= 2 (dt exceeds cfl h^2 min(M) > 0), and s <= 23 < RKL_STAGES
                    # (dt is at most 232 cfl h^2 min(M), cfl <= 0.25)
                    if dt <= lim:
                        stages[i], wts[i] = 1, dt
                    else:
                        s = bisect_left(_RKL_SPANS, dt / (dt_stage * steps[i]))
                        stages[i], wts[i] = s, dt / _RKL_SPANS[s]
                steps[i] = dt
                if not (-inf < screen[i] < inf and dt > 0.0):
                    leaving = leaving or {}
                    leaving.setdefault(i, "blown")
            if leaving:
                break
            k += 1
            done = rejected = None
            if explicit:
                _super_step(X, inner, chart, stages, wts, rhs, work)
            else:
                Hs[0, :, 0] = steps
                np.multiply(Hs[0], _HALF, out=Hs[1])
                np.divide(Hs[0], _THREE, out=Hs[2])
                # the first substeps share M and F: B = Phi_H, Phi_H/2, Phi_H/3
                _euler_substep(Hs, invh2, M, F, inner, R, B, pinned, pin, first)
                zinner[...] = B[1:].reshape(2 * nk, m)
                _flow_terms(zlo, zinner, zhi, chart, d1z, Mz, G, Wz)
                # G = Phi_H/2(Phi_H/2), Phi_H/3(Phi_H/3)
                _euler_substep(H23, invh2, Mz, G, zinner, R2, G, pinned_second, pin, second)
                z3[...] = G3
                _flow_terms(*last)
                # G3 = Phi_H/3 three times
                _euler_substep(Hs[2], invh2, M3, G3, z3, R[2], G3, pinned_third, pin, third)
                # Aitken-Neville on the harmonic sequence 1, 2, 3, in place:
                # T22 = 2 T21 - T11, T32 = 3 T31 - 2 T21, T33 = T32 + (T32 - T22) / 2
                T11, T21, T31 = B[0], G[:nk], G3
                np.subtract(T21, T11, out=T11)
                T11 += T21  # T22
                np.subtract(T31, T21, out=T21)
                T21 *= _TWO
                T31 += T21  # T32
                np.subtract(T31, T11, out=W)
                W *= _HALF  # T33 - T32, the error estimate
                errs = _max(np.abs(W, out=rhs), 1).tolist()
                T31 += W  # T33
                for i in range(nk):
                    err, dt_i = errs[i], steps[i]
                    # a NaN estimate passes: its row is blown before its next step
                    if err > tol:  # retried from the same state
                        trial[i] = dt_i * max(0.2, 0.9 * (tol / err) ** (1 / 3))
                        rejected = rejected or set()
                        rejected.add(i)
                        continue
                    grown = dt_i * (min(4.0, 0.9 * (tol / err) ** (1 / 3)) if err > 0.0 else 4.0)
                    if grown > trial[i] or not dt_i < trial[i]:  # a step cut short shrinks nothing
                        trial[i] = grown
                if rejected is None:
                    inner[...] = T31
                else:
                    for i in range(nk):
                        if i not in rejected:
                            inner[i] = T31[i]
            for i in range(nk):
                if rejected is None or i not in rejected:
                    ti = times[i] + steps[i]
                    if not ti < ends[i] - 1e-14:  # the step that reaches the end lands on it
                        ti = ends[i]
                        done = done or {}
                        done[i] = "ok"
                    times[i] = ti
            if tracked is not None and (rejected is None or len(rejected) < nk):
                hist[j] = X
                if rejected is not None:
                    skipped.extend((j, i) for i in rejected)
                j += 1
                if j == ENERGY_CHUNK:
                    _track(chart, hist, j, tracked, skipped)
                    j = 0
            if done:
                if sample is not None:
                    for i in list(done):
                        end = sample(rows[i], X[i], times[i])
                        if end is not None:
                            ends[i] = end
                            del done[i]
                if done:
                    leaving = done
                    break
        if tracked is not None and j:
            _track(chart, hist, j, tracked, skipped)
        for i, st in leaving.items():
            t[rows[i]], status[rows[i]] = times[i], st
            if X is not S:
                S[rows[i]] = X[i]
        keep = [i for i in range(nk) if i not in leaving]
        rows, times, ends, trial = ([v[i] for i in keep] for v in (rows, times, ends, trial))
        if tracked is not None:
            tracked = [tracked[i] for i in keep]
        if rows:
            X = X[keep]
    return t, status


def _track(chart, hist, j, trackers, skipped):
    """Fold the energies of the first j buffered steps into the trackers,
    leaving out the ``skipped`` (step, row) entries, and empty ``skipped``."""
    nk, n = hist.shape[1:]
    Es = chart.energy(hist[:j].reshape(j * nk, n))
    for jj, i in skipped:
        Es[jj * nk + i] = None
    for i, tracker in enumerate(trackers):
        row = Es[i::nk]
        tracker.extend([E for E in row if E is not None] if skipped else row)
    skipped.clear()


def advance_graph(g: GraphProfile, ctl: StepControl, t_end: float) -> GraphProfile:
    """Run the graph-chart flow from t = 0 to t_end and return the profile."""
    u = g.u.copy()
    _, (status,) = _advance(u[None], _GraphChart(g.params.dx, g.params.A), [0.0], [t_end], ctl)
    if status == "blown":
        raise BlowupError("graph advance blew up")
    return GraphProfile(g.params, u)


def advance_polar(p: PolarProfile, ctl: StepControl, t_end: float) -> PolarProfile:
    """Run the polar-chart flow from t = 0 to t_end and return the profile."""
    rho = p.rho.copy()
    chart = _PolarChart(p.params.dtheta, p.params.A, p.params.a)
    _, (status,) = _advance(rho[None], chart, [0.0], [t_end], ctl)
    if status == "blown":
        raise BlowupError("polar advance blew up")
    return PolarProfile(p.params, rho)


# ---------------------------------------------------------------------------
# chart switching
# ---------------------------------------------------------------------------


def _ray_radii(points: np.ndarray, th_vertex: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Exact radial distance of a star-shaped polyline along given rays.

    ``points`` ordered with ``th_vertex`` ascending.  Intersects each ray
    with the covering segment, so sparse vertex coverage in angle (steep
    profiles sweep large angular ranges within one segment) stays exact.
    """
    idx = np.clip(np.searchsorted(th_vertex, thetas) - 1, 0, len(points) - 2)
    pv = points[idx]
    e = points[idx + 1] - pv
    d = np.column_stack([np.cos(thetas), np.sin(thetas)])
    denom = e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0]
    s = -(pv[:, 0] * d[:, 1] - pv[:, 1] * d[:, 0]) / denom
    z = pv + s[:, None] * e
    return z[:, 0] * d[:, 0] + z[:, 1] * d[:, 1]


def switch_chart(c: SampledCurve, params: ProblemParams) -> PolarProfile:
    """Resample a polyline onto the uniform grid of the polar chart.

    Each node's radius is that of the polyline along the node's ray
    (``_ray_radii``), so the resampled curve lies on the polyline and
    cannot overshoot.  The endpoints are pinned exactly.  Raises
    ``ValueError`` when the curve dips below the axis or is not
    star-shaped about the origin.
    """
    th = _polar_angles(c)
    if th is None:
        raise ValueError("curve dips below the axis or is not star-shaped; polar chart unavailable")
    th_asc = th[::-1].copy()
    th_asc[0] = 0.0
    th_asc[-1] = np.pi
    rho = _ray_radii(c.points[::-1], th_asc, params.theta_nodes())
    rho[0] = params.a
    rho[-1] = params.a
    return PolarProfile(params, rho)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def evolve(fam: InitialFamily, ctl: StepControl, tols: ClassifierTolerances) -> Trajectory:
    """Evolve a family curve until a classification event fires.

    Starts in the graph chart.  When the profile steepens past
    ``SLOPE_SWITCH`` and the curve has a star-shaped resampling,
    evolution hands off to the polar chart for good: both equilibria
    are polar arcs, so no run needs the graph chart again.  Diagnostics are
    recorded every ``ctl.sample_interval`` time units, and on that cadence
    the run ends on a certificate (escape, convergence) or a limit:

    * ``Escaped``           -- sign word '+' against the upper equilibrium
                               with interior radial clearance above
                               ``ESCAPE_GAP`` (polar chart),
    * ``ConvergedLower/Upper`` -- sup-distance to the equilibrium below
                               ``tols.converge`` with dissipation below
                               ``DISSIPATION_FLOOR`` (never, for
                               ``tols.converge == 0``: an orbit run),
    * ``HorizonReached``    -- the time horizon min(ctl.t_max, tols.t_max),
    * ``Blowup``            -- a state out of range, a polar radius at
                               the origin, or a graph too steep to go on
                               with no polar resampling.

    This is the one-member case of ``evolve_batch``.
    """
    ((_, traj),) = evolve_batch([fam], ctl, tols)
    return traj


class _Run:
    """One member of a batch: its chart, state, time, next sample time,
    tracker and records.  It starts in the graph chart; ``evolve_batch``
    may hand it off once, to the polar chart."""

    __slots__ = ("fam", "index", "chart", "s", "t", "t_next", "tracker",
                 "history", "samples", "diagnostics", "event")

    def __init__(self, index, fam, graph, s, history):
        self.index, self.fam, self.chart, self.s = index, fam, graph, s
        self.t, self.tracker, self.history = 0.0, _EnergyTracker(), history
        self.samples = 0
        self.diagnostics, self.event = [], None

    def sample(self, ctl, tols, horizon):
        """Record a sample; then fire an event, or set the next sample time."""
        rec, min_gap_up = _diagnose(self.chart, self.s, self.t)
        if not self.history:
            self.diagnostics.clear()
        self.diagnostics.append(rec)
        self.event = _decide(rec, min_gap_up, tols, horizon)
        self.samples += 1
        if self.event is None:
            # on the sample grid: a sum of intervals would drift off it
            self.t_next = min(self.samples * ctl.sample_interval, horizon)

    def trajectory(self) -> Trajectory:
        return Trajectory(
            params=self.fam.params,
            sigma=self.fam.sigma,
            diagnostics=self.diagnostics,
            event=self.event,
            max_step_energy_increase=self.tracker.max_rise if self.history else float("nan"),
        )


def evolve_batch(fams, ctl: StepControl, tols: ClassifierTolerances, history: bool = True):
    """Evolve several family curves of one ``ProblemParams`` as one batch.

    Yields ``(i, trajectory)`` for ``fams[i]``, the members that end in the
    graph chart when its segment is over and then the others, so that a
    caller can drop what it does not keep.  With ``history`` false
    a member keeps only its latest sample's record (which holds the
    snapshot), so that a long batch holds K states, not K histories, and
    records no per-step energy: its ``max_step_energy_increase`` is NaN,
    "not recorded".  Every member follows ``evolve`` exactly, bitwise: all
    sample on the ``ctl.sample_interval`` cadence, each with its own time,
    steps, energy tracker and event.
    The graph-chart members step as one ``(k, n)`` state in one
    ``_advance`` call, which samples each at its sample times, to their
    events or handoffs; then the polar-chart ones, in a second call.
    Each call starts its members' trial steps at ``ctl.dt`` and returns
    their states, times and statuses.  A member that ``_advance`` stops
    as 'steep' (at a sample time or between two) is handed off here, the
    one place a run changes chart, and takes its next sample in the polar
    chart.
    """
    fams = list(fams)
    if not fams:
        return
    params, A = fams[0].params, fams[0].params.A
    if any(f.params != params for f in fams):
        raise ValueError("the members of a batch must share their ProblemParams")
    graph = _GraphChart(params.dx, A, params)
    polar = _PolarChart(params.dtheta, A, params.a, params)
    horizon = min(ctl.t_max, tols.t_max)

    runs = [_Run(i, fam, graph, initial_curve(fam).u.copy(), history) for i, fam in enumerate(fams)]

    def sample(i, s, t):
        """Sample member i of ``group`` at state s and time t; return its next
        sample time, or None after its event."""
        run = group[i]
        run.s, run.t = s, t
        run.sample(ctl, tols, horizon)
        return run.t_next if run.event is None else None

    for run in runs:
        run.sample(ctl, tols, horizon)
    for chart in (graph, polar):
        group = [run for run in runs if run.event is None and run.chart is chart]
        if group:
            S = np.array([run.s for run in group])
            t, status = _advance(
                S, chart, [run.t for run in group], [run.t_next for run in group], ctl,
                [run.tracker for run in group] if history else None, sample,
            )
            for run, s, t_run, st in zip(group, S, t, status):
                run.s, run.t = s, t_run
                if st == "steep":
                    # hand off before the graph representation fails
                    try:
                        run.s = switch_chart(chart.sample(s), params).rho
                    except ValueError:
                        st = "blown"
                    else:
                        run.chart = polar
                        run.tracker.reset()
                if st == "blown":
                    run.event = TerminationEvent(EventKind.BLOWUP, t_run, f"in {chart.name} chart")
        for run in runs:
            if run.event is not None:
                yield run.index, run.trajectory()
        runs = [run for run in runs if run.event is None]


def _diagnose(chart, s, t: float):
    """Diagnostics of a sample of state s of ``chart`` at time t, and its
    smallest gap above the upper equilibrium.

    The record holds the state's curve (``chart.sample``) and computes
    what ``_decide`` reads now and the fields that come from the curve
    on first read (``DiagnosticRecord``).
    """
    curve = chart.sample(s)
    V, ds = _normal_velocity(s, chart)
    param, gap_up, dist_lower, dist_upper, min_gap_up = chart.compare(s)
    try:
        letters = word_from_gap(param, gap_up).letters
    except Unresolvable:
        letters = None
    rec = object.__new__(DiagnosticRecord)
    vars(rec).update(
        t=t,
        chart=chart.name,
        dissipation=float(_sum(V * V * ds)),
        sgn_upper=letters,
        kappa_dev_P=abs(float(V[chart.near_P])),
        dist_lower=dist_lower,
        dist_upper=dist_upper,
        _snapshot=curve,
        _A=chart.A,
    )
    return rec, min_gap_up


def _decide(rec: DiagnosticRecord, min_gap_up: float, tols, horizon: float):
    """The termination event a sample fires, or None: Escaped past a
    clearance of ``ESCAPE_GAP``, a convergence within ``tols.converge``
    once the dissipation is below ``DISSIPATION_FLOOR``, or the horizon."""
    t = rec.t
    settled = rec.dissipation < DISSIPATION_FLOOR
    if rec.sgn_upper == "+" and min_gap_up > ESCAPE_GAP:
        return TerminationEvent(EventKind.ESCAPED, t, f"clearance {min_gap_up:.3e}")
    if rec.dist_lower < tols.converge and settled:
        return TerminationEvent(EventKind.CONVERGED_LOWER, t, f"sup-distance {rec.dist_lower:.3e}")
    if rec.dist_upper < tols.converge and settled:
        return TerminationEvent(EventKind.CONVERGED_UPPER, t, f"sup-distance {rec.dist_upper:.3e}")
    if t >= horizon - 1e-12:
        return TerminationEvent(EventKind.HORIZON_REACHED, t, "")
    return None
