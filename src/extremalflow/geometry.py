"""Curve representations and differential geometry for pinned planar curves.

Every curve handled by this package joins two fixed endpoints
P = (-a, 0) and Q = (a, 0).  Three representations are used:

* ``GraphProfile``  -- heights u(x) on a uniform grid over [-a, a],
* ``PolarProfile``  -- radii rho(theta) about the origin on [0, pi],
* ``SampledCurve``  -- a chart-free polyline ordered from P to Q.

The curvature sign is fixed so that a concave-down graph has positive
curvature.  With the flow law V = -kappa + A this makes the circular-arc
equilibria (where kappa = A everywhere) stationary in both charts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ProblemParams",
    "GraphProfile",
    "PolarProfile",
    "SampledCurve",
    "EndpointTangents",
    "graph_to_sampled",
    "polar_to_sampled",
    "length",
    "enclosed_area",
    "endpoint_tangents",
    "is_graph_representable",
    "is_star_shaped",
]

# Curves are treated as confined to {y >= 0} when no point dips below this.
AXIS_TOL = 1e-9


@dataclass(frozen=True)
class ProblemParams:
    """Problem constants: driving force ``A`` and endpoint half-span ``a``.

    Requires A > 0 and 0 < a <= 1/A.  ``grid_n`` is the node count used by
    each chart; it must be odd (so the symmetry axis x = 0 / theta = pi/2
    is a node) and at least 17.
    """

    A: float
    a: float
    grid_n: int = 201

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError(f"driving force A must be positive, got {self.A}")
        if not 0 < self.a <= 1.0 / self.A:
            raise ValueError(
                f"half-span must satisfy 0 < a <= 1/A, got a={self.a}, 1/A={1.0 / self.A}"
            )
        if self.a == 1.0 / self.A:
            warnings.warn(
                "a == 1/A: the lower and upper equilibria coincide (degenerate "
                "semicircle); the convergence categories collapse.",
                stacklevel=2,
            )
        if self.grid_n < 17 or self.grid_n % 2 == 0:
            raise ValueError(f"grid_n must be odd and >= 17, got {self.grid_n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.a / (self.grid_n - 1)

    @property
    def dtheta(self) -> float:
        return np.pi / (self.grid_n - 1)

    @property
    def radius(self) -> float:
        """Radius 1/A of the equilibrium circular arcs."""
        return 1.0 / self.A

    @property
    def center_offset(self) -> float:
        """Vertical offset sqrt(1/A^2 - a^2) of the equilibrium circle centers."""
        return float(np.sqrt(max(self.radius**2 - self.a**2, 0.0)))

    def x_nodes(self) -> np.ndarray:
        return np.linspace(-self.a, self.a, self.grid_n)

    def theta_nodes(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.grid_n)


def _finite(arr) -> bool:
    # ufunc methods, here and in PolarProfile: the same tests as np.all and
    # np.any without their Python wrappers
    return bool(np.logical_and.reduce(np.isfinite(arr), None))


@dataclass(frozen=True)
class GraphProfile:
    """Heights u at the uniform x-nodes of ``params``, pinned to 0 at both ends."""

    params: ProblemParams
    u: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        if u.shape != (self.params.grid_n,):
            raise ValueError(f"u must have {self.params.grid_n} entries, got {u.shape}")
        if not _finite(u):
            raise ValueError("graph profile contains non-finite heights")
        if u[0] != 0.0 or u[-1] != 0.0:
            raise ValueError("graph profile must be pinned to exactly 0 at both endpoints")


@dataclass(frozen=True)
class PolarProfile:
    """Radii rho at the uniform theta-nodes of ``params``.

    theta = 0 maps to Q = (a, 0) and theta = pi to P = (-a, 0), so both
    boundary radii are pinned to exactly ``a``.
    """

    params: ProblemParams
    rho: np.ndarray

    def __post_init__(self):
        rho = np.array(self.rho, dtype=float)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        if rho.shape != (self.params.grid_n,):
            raise ValueError(f"rho must have {self.params.grid_n} entries, got {rho.shape}")
        if not _finite(rho):
            raise ValueError("polar profile contains non-finite radii")
        if rho[0] != self.params.a or rho[-1] != self.params.a:
            raise ValueError("polar profile must be pinned to exactly a at both endpoints")
        if not np.minimum.reduce(rho) > 0.0:
            raise ValueError("polar radii must be strictly positive")


@dataclass(frozen=True)
class SampledCurve:
    """Chart-free polyline from P = (-a, 0) to Q = (a, 0).

    ``points`` is an (n, 2) array ordered from P to Q.  Consecutive points
    must be distinct; simplicity (absence of self-intersections) is not
    enforced on construction but can be checked with :meth:`is_simple`.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("points must be an (n, 2) array with n >= 2")
        if not _finite(pts):
            raise ValueError("curve contains non-finite coordinates")
        if pts[0, 1] != 0.0 or pts[-1, 1] != 0.0:
            raise ValueError("endpoints must lie exactly on the axis y = 0")
        if not (pts[-1, 0] > 0.0 and pts[0, 0] == -pts[-1, 0]):
            raise ValueError("endpoints must be (-a, 0) and (a, 0) with a > 0")
        if np.any(np.all(np.diff(pts, axis=0) == 0.0, axis=1)):
            raise ValueError("consecutive points must be distinct")

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def half_span(self) -> float:
        return float(self.points[-1, 0])

    def is_simple(self) -> bool:
        """Check for self-intersections by brute-force segment pair tests."""
        p = self.points
        n = len(p) - 1  # segment count
        a0, a1 = p[:-1], p[1:]

        def orient(pa, pb, pc):
            return (pb[..., 0] - pa[..., 0]) * (pc[..., 1] - pa[..., 1]) - (
                pb[..., 1] - pa[..., 1]
            ) * (pc[..., 0] - pa[..., 0])

        # Broadcast all segment pairs (i, j); adjacency and self-pairs excluded.
        i = np.arange(n)
        sep = np.abs(i[:, None] - i[None, :]) > 1
        d1 = orient(a0[:, None], a1[:, None], a0[None, :])
        d2 = orient(a0[:, None], a1[:, None], a1[None, :])
        d3 = orient(a0[None, :], a1[None, :], a0[:, None])
        d4 = orient(a0[None, :], a1[None, :], a1[:, None])
        crossing = (d1 * d2 < 0) & (d3 * d4 < 0)
        return not bool(np.any(crossing & sep))

    def to_csv(self, path) -> None:
        """Write the polyline as CSV with header ``x,y`` (17 significant digits)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y\n")
            for px, py in self.points:
                fh.write(f"{px:.17g},{py:.17g}\n")


@dataclass(frozen=True)
class EndpointTangents:
    """Unit tangent vectors at P and Q, both taken along the P -> Q direction."""

    at_P: np.ndarray
    at_Q: np.ndarray

    def __post_init__(self):
        for name in ("at_P", "at_Q"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
            if v.shape != (2,):
                raise ValueError(f"{name} must be a 2-vector")
            if abs(np.hypot(v[0], v[1]) - 1.0) > 1e-12:
                raise ValueError(f"{name} must have unit norm")


# ---------------------------------------------------------------------------
# chart conversions
# ---------------------------------------------------------------------------


def graph_to_sampled(g: GraphProfile) -> SampledCurve:
    """Sample a graph profile as a polyline, one point per grid node."""
    pts = np.column_stack([g.params.x_nodes(), g.u])
    return SampledCurve(pts)


@lru_cache
def _polar_trig(params: ProblemParams):
    """cos and sin of the theta-nodes in P-to-Q order (theta from pi to 0),
    computed once per parameter set and returned read-only."""
    th = params.theta_nodes()
    cos, sin = np.cos(th)[::-1].copy(), np.sin(th)[::-1].copy()
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _polar_xy(rho, params: ProblemParams):
    """x and y of polar radii ``rho`` (rows along the last axis) from P to Q.

    theta = 0 corresponds to Q, so the node order is reversed.  Endpoints
    are pinned exactly (sin(pi) is not exactly zero in floating point).
    """
    cos, sin = _polar_trig(params)
    rho = rho[..., ::-1]
    x, y = rho * cos, rho * sin
    x[..., 0], x[..., -1] = -params.a, params.a
    y[..., 0] = y[..., -1] = 0.0
    return x, y


def polar_to_sampled(p: PolarProfile) -> SampledCurve:
    """Sample a polar profile as a polyline ordered from P to Q."""
    return SampledCurve(np.column_stack(_polar_xy(p.rho, p.params)))


def is_graph_representable(c: SampledCurve) -> bool:
    """True when the polyline is single-valued over x (strictly increasing x)."""
    return bool(np.all(np.diff(c.x) > 0.0))


def _polar_angles(c: SampledCurve):
    """Polar angles of the vertices, or None when the polyline is not
    star-shaped about the origin with y >= 0.

    Star-shaped means the angle decreases strictly from pi to 0 along the
    P -> Q order, which makes rho(theta) single-valued.
    """
    if np.any(c.y < -AXIS_TOL):
        return None
    th = np.arctan2(np.maximum(c.y, 0.0), c.x)
    return th if np.all(np.diff(th) < 0.0) else None


def is_star_shaped(c: SampledCurve) -> bool:
    """True when the polyline is star-shaped about the origin with y >= 0."""
    return _polar_angles(c) is not None


# ---------------------------------------------------------------------------
# differential quantities
# ---------------------------------------------------------------------------


def _length_and_area(x: np.ndarray, y: np.ndarray):
    """Length L and enclosed area S of polylines along the last axis, one
    per row.

    L is the chord sum.  S is the shoelace area of the polygon closed
    along y = 0, positive for curves above the axis, and NaN for a row
    that dips below y = -AXIS_TOL, where the enclosed region is
    ill-defined.  Each row's values are bitwise those of the row alone.
    """
    L = np.sum(np.hypot(np.diff(x), np.diff(y)), axis=-1)
    # the closing segment back along y = 0 contributes nothing
    S = 0.5 * np.sum(x[..., 1:] * y[..., :-1] - x[..., :-1] * y[..., 1:], axis=-1)
    return L, np.where(np.min(y, axis=-1) < -AXIS_TOL, np.nan, S)


def length(c: SampledCurve) -> float:
    """Polyline length (sum of chord lengths)."""
    return float(_length_and_area(c.x, c.y)[0])


def enclosed_area(c: SampledCurve) -> float:
    """Area enclosed between the curve and the axis segment from Q back to P.

    Shoelace formula over the polygon closed along y = 0; positive for
    curves above the axis.  Curves dipping below y = -AXIS_TOL are
    rejected because the enclosed region is then ill-defined.
    """
    S = float(_length_and_area(c.x, c.y)[1])
    if np.isnan(S):
        raise ValueError("enclosed area undefined: curve dips below the axis")
    return S


def _end_tangent(p0, p1, p2) -> np.ndarray:
    """Unit tangent leaving p0 along the polyline p0, p1, p2: the derivative
    at p0 of the quadratic through (0, p0), (s1, p1), (s2, p2), with s1 and
    s2 the chord lengths from p0."""
    s1 = np.hypot(*(p1 - p0))
    s2 = s1 + np.hypot(*(p2 - p1))
    c0 = -(s1 + s2) / (s1 * s2)
    c1 = s2 / (s1 * (s2 - s1))
    c2 = -s1 / (s2 * (s2 - s1))
    v = c0 * p0 + c1 * p1 + c2 * p2
    return v / np.hypot(v[0], v[1])


def endpoint_tangents(c: SampledCurve) -> EndpointTangents:
    """Unit tangents at P and Q from one-sided 3-point stencils.

    Both tangents point in the P -> Q direction: ``at_P`` leaves P along
    the curve, ``at_Q`` arrives at Q.  The y-component of ``at_P`` is the
    ``tangent_y_P`` column of the evolvers' ``diagnostics.csv``, which
    they take from ``_end_tangent`` of the first three points.
    """
    pts = c.points
    if len(pts) < 3:
        raise ValueError("need at least 3 points for endpoint tangents")
    return EndpointTangents(
        at_P=_end_tangent(pts[0], pts[1], pts[2]), at_Q=-_end_tangent(pts[-1], pts[-2], pts[-3])
    )
