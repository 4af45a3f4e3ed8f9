"""Closed-form curves used as equilibria, barriers and comparison data.

The flow V = -kappa + A with endpoints pinned at (+-a, 0) has two
circular-arc equilibria of radius 1/A:

* the *lower* equilibrium, a shallow cap below: y = sqrt(1/A^2 - x^2) - c,
* the *upper* equilibrium, the complementary major arc of the circle of
  radius 1/A centered at (0, c),

where c = sqrt(1/A^2 - a^2).  Both come from one circle, written once as
heights over x and once as radii over theta.  This module also provides
the grim-reaper traveling wave of the unforced graph flow (used as a
moving sub-solution), expanding circle barriers, and the one-parameter
family of concave initial graphs y = sigma * phi(x) whose long-time fate
the classifier decides; a family curve's intersections with the upper
equilibrium are counted by the package's sign-word rule,
``analysis.word_from_gap``, with exact signs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .analysis import word_from_gap
from .geometry import (
    GraphProfile,
    PolarProfile,
    ProblemParams,
    SampledCurve,
)

__all__ = [
    "InitialFamily",
    "BarrierCircle",
    "BarrierGeometry",
    "gamma_lower",
    "gamma_lower_polar",
    "gamma_upper",
    "grim_reaper_value",
    "grim_reaper_kink",
    "grim_reaper_subsolution",
    "circle_radius",
    "circle_crossing_time",
    "barrier_geometry",
    "initial_curve",
    "grim_reaper_dominating_sigma",
]


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------


def _arc_heights(params: ProblemParams, x: np.ndarray, side: float) -> np.ndarray:
    """Heights sqrt(1/A^2 - x^2) + side * c of the circle of radius 1/A
    about (0, side * c): the lower cap for side = -1, and the upper arc
    over the open interval |x| < a for side = +1."""
    return np.sqrt(np.maximum(params.radius**2 - x**2, 0.0)) + side * params.center_offset


def _arc_radii(params: ProblemParams, side: float) -> PolarProfile:
    """Radii side * c sin(theta) + sqrt(1/A^2 - c^2 cos^2(theta)) of the same
    circle at the theta-nodes, pinned exactly to a."""
    th = params.theta_nodes()
    c = params.center_offset
    rho = side * c * np.sin(th) + np.sqrt(params.radius**2 - (c * np.cos(th)) ** 2)
    rho[0] = params.a
    rho[-1] = params.a
    return PolarProfile(params, rho)


def gamma_lower(params: ProblemParams) -> GraphProfile:
    """Lower equilibrium as a graph: y = sqrt(1/A^2 - x^2) - c, pinned exactly."""
    u = _arc_heights(params, params.x_nodes(), -1.0)
    u[0] = 0.0
    u[-1] = 0.0
    return GraphProfile(params, u)


def gamma_upper(params: ProblemParams) -> PolarProfile:
    """Upper equilibrium in the polar chart.

    rho(theta) = c sin(theta) + sqrt(1/A^2 - c^2 cos^2(theta)) traces the
    major arc of the circle of radius 1/A about (0, c), from Q over the
    apex (0, c + 1/A) back to P.  Degenerate case c = 0 (a = 1/A) reduces
    to the constant semicircle rho = 1/A.
    """
    return _arc_radii(params, 1.0)


def gamma_lower_polar(params: ProblemParams) -> PolarProfile:
    """Lower equilibrium in the polar chart (minor arc about (0, -c))."""
    return _arc_radii(params, -1.0)


# ---------------------------------------------------------------------------
# grim reaper
# ---------------------------------------------------------------------------


def grim_reaper_value(b: float, C: float, x, t):
    """Height of the grim-reaper wave G(x, t) = C - t/b + b ln cos(x/b).

    The wave solves the unforced graph flow G_t = G_xx / (1 + G_x^2)
    identically and translates downward with speed 1/b.  Defined only for
    |x| < b*pi/2.
    """
    if not b > 0:  # written so that a NaN fails the test
        raise ValueError("width b must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= b * np.pi / 2.0):
        raise ValueError("grim reaper undefined for |x| >= b*pi/2")
    val = C - t / b + b * np.log(np.cos(x / b))
    return float(val) if val.ndim == 0 else val


def grim_reaper_kink(b: float, C: float, t: float) -> float:
    """Positive root x(t) of G(x, t) = 0, i.e. where the capped wave meets y = 0."""
    if not b > 0:  # written so that a NaN fails the test
        raise ValueError("width b must be positive")
    if t >= b * C:
        return 0.0
    arg = np.exp((t - b * C) / b**2)
    return float(b * np.arccos(arg))


def grim_reaper_subsolution(params: ProblemParams, b: float, C: float, t: float) -> SampledCurve:
    """Capped-and-flattened grim reaper pinned at P and Q.

    The curve is max(G(x, t), 0) on |x| < b*pi/2 and 0 on the remaining
    span; it is a moving sub-solution of the driven flow whenever
    0 < b < 2a/pi.  For t >= b*C the wave has dropped below the axis and the
    curve degenerates to the straight baseline segment.
    """
    if not 0 < b < 2.0 * params.a / np.pi:  # written so that a NaN fails the test
        raise ValueError("grim reaper sub-solution requires 0 < b < 2a/pi")
    x = params.x_nodes()
    y = np.zeros_like(x)
    inside = np.abs(x) < b * np.pi / 2.0
    if t < b * C:
        y[inside] = np.maximum(grim_reaper_value(b, C, x[inside], t), 0.0)
    y[0] = 0.0
    y[-1] = 0.0
    return SampledCurve(np.column_stack([x, y]))


# ---------------------------------------------------------------------------
# expanding circle and barrier geometry
# ---------------------------------------------------------------------------


def circle_crossing_time(R0: float, A: float, R: float) -> float:
    """Time at which the expanding-circle radius reaches R, in closed form.

    Inverts R'(t) = A - 1/R analytically:
    t = (R - R0)/A + (1/A^2) ln((A R - 1)/(A R0 - 1)).
    """
    if not np.all(np.isfinite([R0, A, R])):
        raise ValueError("R0, A and R must be finite")
    if not A > 0:
        raise ValueError("A must be positive")
    if not R0 > 1.0 / A:
        raise ValueError("initial radius must exceed the equilibrium radius 1/A")
    if not R >= R0:
        raise ValueError("radius is increasing; target must satisfy R >= R0")
    return float((R - R0) / A + np.log((A * R - 1.0) / (A * R0 - 1.0)) / A**2)


def circle_radius(R0: float, A: float, t: float) -> float:
    """Radius R(t) of a circle evolving by V = -kappa + A, from R(0) = R0 > 1/A.

    Integrated with an adaptive Runge-Kutta scheme; agrees with the
    implicit closed form of :func:`circle_crossing_time` to 1e-8.
    """
    if not np.all(np.isfinite([R0, A, t])):
        raise ValueError("R0, A and t must be finite")
    if not A > 0:
        raise ValueError("A must be positive")
    if not R0 > 1.0 / A:
        raise ValueError("initial radius must exceed the equilibrium radius 1/A")
    if not t >= 0:
        raise ValueError("time must be non-negative")
    if t == 0.0:
        return float(R0)
    from scipy.integrate import solve_ivp  # loaded by the circle oracle alone

    sol = solve_ivp(
        lambda _t, r: A - 1.0 / r[0],
        (0.0, t),
        [R0],
        method="RK45",
        rtol=1e-11,
        atol=1e-12,
        dense_output=False,
        t_eval=[t],
    )
    if not sol.success:
        raise RuntimeError(f"circle radius integration failed: {sol.message}")
    return float(sol.y[0, -1])


@dataclass(frozen=True)
class BarrierCircle:
    """A circle used as a comparison barrier."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("barrier circle radius must be positive")

    def distance_to(self, point) -> float:
        return float(np.hypot(point[0] - self.center[0], point[1] - self.center[1]))


@dataclass(frozen=True)
class BarrierGeometry:
    """Barrier circles for the escape argument.

    ``inner`` has radius R about (R, (1 + R/a) c); ``outer`` shares the
    center with radius (1 + R/a)/A and is tangent to the upper equilibrium
    at P.  ``apex_height`` is the height K where the outer circle crosses
    the y-axis, and ``crossing_time`` the time t* at which the expanding
    circle grown from R reaches the outer radius.
    """

    inner: BarrierCircle
    outer: BarrierCircle
    apex_height: float
    crossing_time: float


def barrier_geometry(params: ProblemParams, R: float) -> BarrierGeometry:
    """Construct the barrier circles for an expanding-circle radius R > 1/A."""
    if not params.radius < R < np.inf:
        raise ValueError("barrier construction requires R > 1/A (finite)")
    scale = 1.0 + R / params.a
    center = (R, scale * params.center_offset)
    r_outer = scale / params.A
    inner = BarrierCircle(center, R)
    outer = BarrierCircle(center, r_outer)
    K = center[1] + np.sqrt(r_outer**2 - R**2)
    t_star = circle_crossing_time(R, params.A, r_outer)
    return BarrierGeometry(inner=inner, outer=outer, apex_height=float(K), crossing_time=t_star)


# ---------------------------------------------------------------------------
# initial family
# ---------------------------------------------------------------------------


def _phi_cos(a: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: np.cos(np.pi * x / (2.0 * a))


def _phi_parabola(a: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: 1.0 - (x / a) ** 2


_PHI_BUILTINS = {"cos": _phi_cos, "parabola": _phi_parabola}


@dataclass(frozen=True)
class InitialFamily:
    """The concave initial family y = sigma * phi(x).

    ``phi`` is either a built-in name ('cos', the default, or 'parabola')
    or a callable; it must be even, vanish at +-a, and be concave on
    (-a, a).  The resulting curve may meet the upper equilibrium at most
    four times (endpoints included); this is checked numerically when the
    curve is built.
    """

    params: ProblemParams
    sigma: float
    phi: Union[str, Callable] = "cos"

    def __post_init__(self):
        if not np.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        phi = self.phi
        if isinstance(phi, str):
            if phi not in _PHI_BUILTINS:
                raise ValueError(f"unknown profile '{phi}'; choose from {sorted(_PHI_BUILTINS)}")
        elif not callable(phi):
            raise ValueError("phi must be a profile name or a callable")
        self._validate_shape()

    def phi_values(self, x: np.ndarray) -> np.ndarray:
        if isinstance(self.phi, str):
            fn = _PHI_BUILTINS[self.phi](self.params.a)
        else:
            fn = self.phi
        return np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)

    def _validate_shape(self):
        x = self.params.x_nodes()
        v = self.phi_values(x)
        if not np.all(np.isfinite(v)):
            raise ValueError("profile must be finite on [-a, a]")
        scale = max(1.0, float(np.max(np.abs(v))))
        if abs(v[0]) > 1e-9 * scale or abs(v[-1]) > 1e-9 * scale:
            raise ValueError("profile must vanish at the endpoints")
        if np.max(np.abs(v - v[::-1])) > 1e-9 * scale:
            raise ValueError("profile must be even in x")
        dx = self.params.dx
        second = v[2:] - 2.0 * v[1:-1] + v[:-2]
        if np.max(second) > 1e-8 * scale * dx**2 + 1e-12:
            raise ValueError("profile must be concave (phi'' <= 0) on (-a, a)")

    def with_sigma(self, sigma: float) -> "InitialFamily":
        return replace(self, sigma=sigma)


def initial_curve(fam: InitialFamily) -> GraphProfile:
    """Graph profile of sigma * phi at the grid nodes.

    Rejects profiles crossing the upper equilibrium more than allowed:
    the classification machinery assumes at most four intersections
    (endpoints included).
    """
    params = fam.params
    x = params.x_nodes()
    u = fam.sigma * fam.phi_values(x)
    u[0] = 0.0
    u[-1] = 0.0
    # exact signs: a tolerance would merge the crossings near the pins
    gap = u[1:-1] - _arc_heights(params, x[1:-1], 1.0)
    z = word_from_gap(x[1:-1], gap, tol=0.0).z
    if z > 4:
        raise ValueError(
            f"initial curve meets the upper equilibrium {z} times; at most 4 allowed"
        )
    return GraphProfile(params, u)


def grim_reaper_dominating_sigma(
    params: ProblemParams, phi: Union[str, Callable] = "cos"
) -> float:
    """Amplitude of the family ``InitialFamily(params, sigma, phi)``
    guaranteeing escape via grim-reaper domination.

    Builds the barrier geometry for the expanding-circle radius R = 2/A,
    places a grim reaper of width b = 0.9 * 2a/pi (inside the sub-solution
    range b < 2a/pi) with its center a margin 1/A above the barrier apex K
    at the crossing time t*, and returns the smallest family amplitude
    whose graph strictly dominates the capped reaper at t = 0, scaled by a
    safety factor of 1.05.  The flow is invariant under x -> lx, t -> l^2 t,
    A -> A/l, and R and the margin scale with 1/A, so the certificate for
    (A, a) is that for (1, aA) scaled by 1/A: it exists for every A > 0.
    """
    b = 0.9 * 2.0 * params.a / np.pi
    geom = barrier_geometry(params, 2.0 / params.A)
    C = geom.apex_height + geom.crossing_time / b + 1.0 / params.A
    # Dense scan: the binding constraint sits near the reaper's kink where
    # the profile phi is small.
    x = np.linspace(-params.a, params.a, 8001)[1:-1]
    phi = InitialFamily(params, 1.0, phi).phi_values(x)
    g = np.zeros_like(x)
    inside = np.abs(x) < b * np.pi / 2.0
    g[inside] = np.maximum(grim_reaper_value(b, C, x[inside], 0.0), 0.0)
    ratio = g / phi
    return float(1.05 * np.max(ratio))
