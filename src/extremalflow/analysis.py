"""Intersection counting, sign words, semi-order, and the energy E = L - A*S.

Two pinned curves sharing the endpoints P and Q are compared through a
scalar *gap* function in a common parameterization: the x-coordinate when
both curves are single-valued over the open span, otherwise the polar
angle when both are star-shaped about the origin.  Sign changes of the
gap are the interior intersections; the signs of the gap on the segments
between consecutive intersections form an ordered word over {+, -}.

Along the flow the intersection count between two evolving curves can
only decrease and the word can only simplify to a subword, which is what
the trajectory diagnostics assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    SampledCurve,
    _length_and_area,
    _polar_angles,
    endpoint_tangents,
    is_graph_representable,
)

__all__ = [
    "Unresolvable",
    "SgnWord",
    "GapProfile",
    "gap_profile",
    "word_from_gap",
    "intersection_count",
    "sgn_word",
    "subword",
    "intersection_audit",
    "semi_order",
    "energy",
]


class Unresolvable(ValueError):
    """Raised when two curves coincide over a sub-arc and the count is ill-defined."""


@dataclass(frozen=True)
class SgnWord:
    """Ordered word of gap signs between consecutive intersections.

    ``letters`` is a string over '+'/'-'; the intersection count is
    ``len(letters) + 1`` (the shared endpoints always contribute).
    """

    letters: str

    def __post_init__(self):
        if any(ch not in "+-" for ch in self.letters):
            raise ValueError("letters must be drawn from '+' and '-'")
        if len(self.letters) < 1:
            raise ValueError("a sign word needs at least one letter")

    @property
    def z(self) -> int:
        return len(self.letters) + 1

    def __str__(self):
        return self.letters


def subword(w1: SgnWord, w2: SgnWord) -> bool:
    """True when w2 is an ordered subword (subsequence) of w1."""
    it = iter(w1.letters)
    return all(ch in it for ch in w2.letters)


def intersection_audit(words) -> bool:
    """Check a time-ordered sequence of sign words against the flow's rules.

    Along a run the intersection count with a fixed comparison curve can
    only decrease and each word must be a subword of its predecessor.
    ``None`` entries (samples where no word was certifiable) are skipped.
    """
    seq = [SgnWord(w) for w in words if w]
    for prev, cur in zip(seq, seq[1:]):
        if cur.z > prev.z or not subword(prev, cur):
            return False
    return True


# ---------------------------------------------------------------------------
# common parameterization and gap extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapProfile:
    """Oriented gap of curve 1 relative to curve 2 in a common chart.

    ``param`` holds the strictly increasing interior parameter values (x
    or the polar angle) and ``gap`` the signed separation (positive where
    curve 1 lies above / radially outside curve 2).  The implied gap at
    both endpoints is exactly zero.
    """

    param: np.ndarray
    gap: np.ndarray


def _heights_at(c: SampledCurve, xs: np.ndarray) -> np.ndarray:
    """Heights of a polyline over interior query abscissae.

    Works for curves that are single-valued over the *open* span even if
    they carry multivalued lobes at the very endpoints (the upper
    equilibrium does).  Raises when a vertical line meets the polyline
    more than once.
    """
    x0, x1 = c.x[:-1], c.x[1:]
    y0, y1 = c.y[:-1], c.y[1:]
    # Half-open crossing test so shared vertices are not double counted.
    hits = ((x0[None, :] <= xs[:, None]) & (xs[:, None] < x1[None, :])) | (
        (x1[None, :] <= xs[:, None]) & (xs[:, None] < x0[None, :])
    )
    counts = hits.sum(axis=1)
    if np.any(counts != 1):
        raise ValueError("curve is not single-valued over the requested abscissae")
    seg = hits.argmax(axis=1)
    frac = (xs - x0[seg]) / (x1[seg] - x0[seg])
    return y0[seg] + frac * (y1[seg] - y0[seg])


def gap_profile(c1: SampledCurve, c2: SampledCurve) -> GapProfile:
    """Gap of c1 relative to c2 in the best available common chart.

    Prefers the x-chart (both curves single-valued over the open span,
    where it stays well resolved even for very steep graphs) and falls
    back to the polar angle when both curves are star-shaped.  Raises
    ``ValueError`` when no common parameterization exists.
    """
    if abs(c1.half_span - c2.half_span) > 1e-12:
        raise ValueError("curves must share the endpoints P and Q")
    a = c1.half_span

    interior = lambda v: v[(v > -a) & (v < a)]
    fill = np.linspace(-a, a, 2 * max(len(c1.points), len(c2.points)))[1:-1]
    xs = np.unique(np.concatenate([interior(c1.x), interior(c2.x), fill]))
    if xs.size:
        try:
            if is_graph_representable(c1):
                h1 = np.interp(xs, c1.x, c1.y)
            else:
                h1 = _heights_at(c1, xs)
            if is_graph_representable(c2):
                h2 = np.interp(xs, c2.x, c2.y)
            else:
                h2 = _heights_at(c2, xs)
            return GapProfile(param=xs, gap=h1 - h2)
        except ValueError:
            pass

    th1, th2 = _polar_angles(c1), _polar_angles(c2)
    if th1 is not None and th2 is not None:
        # theta ascending
        th1, r1 = th1[::-1], np.hypot(c1.x, c1.y)[::-1]
        th2, r2 = th2[::-1], np.hypot(c2.x, c2.y)[::-1]
        fill = np.linspace(0.0, np.pi, 2 * max(len(th1), len(th2)))
        th = np.unique(np.concatenate([th1, th2, fill]))
        th = th[(th > 0.0) & (th < np.pi)]
        g1 = np.interp(th, th1, r1)
        g2 = np.interp(th, th2, r2)
        return GapProfile(param=th, gap=g1 - g2)

    raise ValueError("no common parameterization: curves are neither both "
                     "x-representable nor both star-shaped")


# ---------------------------------------------------------------------------
# word extraction from a gap profile
# ---------------------------------------------------------------------------

_COINCIDE_EPS = 1e-12


def _median(v: np.ndarray) -> float:
    """``np.median`` of a 1-d float array, bitwise, by one partition.

    The same partition as numpy's (the middle index or indices and the
    last, where any NaN sorts) and the same mean of the middle entries,
    ``np.add.reduce`` over their count, without the dispatch of
    ``np.median`` or ``np.partition``.
    """
    n = len(v)
    half = n // 2
    part = v.copy()
    part.partition([half, -1] if n % 2 else [half - 1, half, -1])
    if part[-1] != part[-1]:  # NaN
        return float(part[-1])
    mid = part[half : half + 1] if n % 2 else part[half - 1 : half + 1]
    return float(np.add.reduce(mid) / len(mid))


def _tolerance(ds: np.ndarray, h: float, gap: np.ndarray, tol: float | None) -> float:
    """Indistinguishability threshold: ``tol``, or by default 3 x typical
    spacing x typical slope.

    A gap value below the amount the gap typically changes between
    neighbouring samples cannot be assigned a reliable sign.  Median
    spacing and median slope set the scale: worst-case (maximum) slopes
    would let one steep feature, such as a radial cliff on an evolving
    curve, wash out sign structure that is perfectly resolved elsewhere.
    ``ds`` is the parameter spacing and ``h`` its median.  A given ``tol``
    must be at least 0: a negative one would give a zero gap both signs.
    """
    if tol is not None:
        tol = float(tol)
        if not tol >= 0.0:  # written so that a NaN fails the test
            raise ValueError(f"tol must be at least 0, got {tol!r}")
        return tol
    slopes = np.abs(np.subtract(gap[1:], gap[:-1])) / ds
    return float(3.0 * h * _median(slopes) + 1e-14)


def word_from_gap(param: np.ndarray, gap: np.ndarray, tol: float | None = None) -> SgnWord:
    """Sign word of an interior gap profile (endpoints implicitly zero).

    Nodes within tolerance of zero form contact zones: a zone flanked by
    like signs is a single tangential intersection, one flanked by
    opposite signs a single transversal crossing, and zones touching the
    endpoints merge into the endpoint intersections.  A contact zone in
    which the gap vanishes to machine precision over more than a few
    samples means the curves coincide there and the count is ill-defined.
    """
    param = np.asarray(param, float)
    gap = np.asarray(gap, float)
    if param.ndim != 1 or param.shape != gap.shape or len(param) < 3:
        raise ValueError("need matching 1-d param/gap arrays with >= 3 samples")

    ds = np.subtract(param[1:], param[:-1])
    h = _median(ds)
    tol_val = _tolerance(ds, h, gap, tol)

    # 1 above the tolerance, -1 below minus it, 0 within (the tolerance is
    # not negative, so never both)
    cls = np.subtract(gap > tol_val, gap < -tol_val, dtype=np.int8)

    # maximal runs of equal class: (class, start, end)
    bounds = [0, *(np.not_equal(cls[1:], cls[:-1]).nonzero()[0] + 1).tolist(), len(cls)]
    runs = list(zip(cls[bounds[:-1]].tolist(), bounds[:-1], bounds[1:]))

    # contact zones touching an endpoint belong to the endpoint intersection
    if runs and runs[0][0] == 0:
        runs = runs[1:]
    if runs and runs[-1][0] == 0:
        runs = runs[:-1]

    coincide_len = 3.0 * h
    for sign, s, e in runs:
        if sign == 0:
            seg = np.abs(gap[s:e])
            extent = param[e - 1] - param[s]
            if np.maximum.reduce(seg) <= _COINCIDE_EPS and extent > coincide_len:
                raise Unresolvable("curves coincide over a sub-arc; count ill-defined")

    letters = "".join("+" if sign > 0 else "-" for sign, _, _ in runs if sign != 0)
    if not letters:
        raise Unresolvable("curves are indistinguishable within tolerance")
    return SgnWord(letters)


def sgn_word(c1: SampledCurve, c2: SampledCurve, tol: float | None = None) -> SgnWord:
    """Ordered sign word of c1 against c2 ('+' where c1 lies above/outside)."""
    gp = gap_profile(c1, c2)
    return word_from_gap(gp.param, gp.gap, tol)


def intersection_count(c1: SampledCurve, c2: SampledCurve, tol: float | None = None) -> int:
    """Number of intersections between two pinned curves (endpoints included).

    Equals the word length plus one; near-tangential contacts within
    tolerance collapse to a single intersection.
    """
    return sgn_word(c1, c2, tol).z


# ---------------------------------------------------------------------------
# semi-order
# ---------------------------------------------------------------------------

_TRANSVERSAL_ANGLE = 1e-6


def _transversal(c1: SampledCurve, c2: SampledCurve) -> bool:
    t1 = endpoint_tangents(c1)
    t2 = endpoint_tangents(c2)
    for v1, v2 in ((t1.at_P, t2.at_P), (t1.at_Q, t2.at_Q)):
        dot = float(np.clip(np.dot(v1, v2), -1.0, 1.0))
        if math.acos(dot) <= _TRANSVERSAL_ANGLE:
            return False
    return True


def semi_order(c1: SampledCurve, c2: SampledCurve, tol: float | None = None) -> str:
    """Order two pinned curves: 'Above', 'Below', 'Crossing' or 'Touching'.

    'Above' requires the interior gap to clear the tolerance everywhere
    *and* the endpoint tangents to be transversal (within an angular gap
    of 1e-6 rad); contact without crossing yields 'Touching'.
    """
    gp = gap_profile(c1, c2)
    ds = np.diff(gp.param)
    tol_val = _tolerance(ds, _median(ds), gp.gap, tol)
    above = gp.gap > tol_val
    below = gp.gap < -tol_val
    if np.all(above):
        return "Above" if _transversal(c1, c2) else "Touching"
    if np.all(below):
        return "Below" if _transversal(c1, c2) else "Touching"
    if np.any(above) and np.any(below):
        return "Crossing"
    return "Touching"


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


class Energy(NamedTuple):
    """Length, enclosed area and ``E = L - A*S`` of a curve.

    ``E`` is the flow's Lyapunov functional in either chart, and this is
    its one definition: it decreases along any run confined to {y >= 0},
    at the rate of the curvature dissipation integral, which the evolvers
    read off their stencil.
    """

    L: float
    S: float
    E: float


def energy(c: SampledCurve, A: float) -> Energy:
    """Length, enclosed area, and the energy E = L - A*S of a curve.

    Below y = -1e-9 the enclosed area, and hence E, is undefined: both
    read NaN.  The evolvers' per-step energy tracker evaluates the same
    row-wise length and area on the points each chart samples, so every
    tracked E is bitwise this one.
    """
    L, S = map(float, _length_and_area(c.x, c.y))
    return Energy(L, S, L - A * S)
