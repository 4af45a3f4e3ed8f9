"""Per-amplitude outcome classification and critical-threshold bracketing.

For the concave initial family y = sigma * phi(x) the flow has exactly
three long-time fates: escape above the upper equilibrium (large sigma),
convergence to the lower equilibrium (small or negative sigma), and -- at
a single critical amplitude -- convergence to the upper equilibrium
itself.  The escape and lower-convergence amplitude sets are open
half-lines, so the critical amplitude is found by bisection between any
certified member of each.

Runs that do not depend on each other go through ``evolve_batch`` as
one batch: a sweep evolves its whole amplitude list together, and a
bisection checks both endpoints in one two-member call.  Every member's
outcome is bitwise that of its own ``classify``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

from .analysis import intersection_audit
from .evolvers import (
    ClassifierTolerances,
    EventKind,
    StepControl,
    Trajectory,
    evolve,
    evolve_batch,
)
from .solutions import InitialFamily

__all__ = [
    "Category",
    "Bracket",
    "BisectStep",
    "SweepRow",
    "MonotonicityError",
    "classify",
    "sweep",
    "bisect_sigma_star",
    "closest_upper_approach",
    "upper_dwell_time",
]


class Category(Enum):
    ESCAPE = "Escape"
    CONVERGE_UPPER = "ConvergeUpper"
    CONVERGE_LOWER = "ConvergeLower"
    UNDETERMINED = "Undetermined"


class MonotonicityError(RuntimeError):
    """A sweep found lower-convergence above an escape: ordering violated."""


_EVENT_TO_CATEGORY = {
    EventKind.ESCAPED: Category.ESCAPE,
    EventKind.CONVERGED_LOWER: Category.CONVERGE_LOWER,
    EventKind.CONVERGED_UPPER: Category.CONVERGE_UPPER,
    EventKind.HORIZON_REACHED: Category.UNDETERMINED,
    EventKind.BLOWUP: Category.UNDETERMINED,
}


def classify(
    fam: InitialFamily, ctl: StepControl, tols: ClassifierTolerances
) -> tuple[Category, Trajectory]:
    """Run one amplitude to its termination event and name its fate.

    Each certificate (escape clearance, convergence to either
    equilibrium) names its category; blowups and exhausted horizons are
    Undetermined (the event on the trajectory keeps the distinction).
    """
    traj = evolve(fam, ctl, tols)
    return _EVENT_TO_CATEGORY[traj.event.kind], traj


def _classify_batch(template: InitialFamily, sigmas, ctl, tols):
    """Yield (i, category, trajectory) for ``sigmas[i]`` as each member of
    one batch finishes; a trajectory holds only its last sample."""
    fams = [template.with_sigma(s) for s in sigmas]
    for i, traj in evolve_batch(fams, ctl, tols, history=False):
        yield i, _EVENT_TO_CATEGORY[traj.event.kind], traj


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    category: Category
    t_event: float
    final_sgn: str | None

    @classmethod
    def of(cls, sigma: float, category: Category, traj: Trajectory, **more):
        """The row of a classified run; ``more`` holds a subclass's fields."""
        return cls(sigma, category, traj.event.t, traj.diagnostics[-1].sgn_upper, **more)


def sweep(
    template: InitialFamily,
    sigmas,
    ctl: StepControl,
    tols: ClassifierTolerances,
) -> list[SweepRow]:
    """Classify the amplitudes as one batch and audit the ordering.

    All amplitudes step together in one ``(K, n)`` state, each exactly as
    its own ``classify`` would.  A member keeps only its latest sample
    while it runs and only its row once it has finished.  Rows come back in
    input order.  Any lower-convergence above an escape contradicts the
    comparison principle and raises ``MonotonicityError``.
    """
    sigmas = list(sigmas)
    rows = [None] * len(sigmas)
    for i, cat, traj in _classify_batch(template, sigmas, ctl, tols):
        rows[i] = SweepRow.of(sigmas[i], cat, traj)
    _audit_order(rows)
    return rows


def _audit_order(rows) -> None:
    """Raise ``MonotonicityError`` if a lower convergence lies above an escape."""
    escapes = [r.sigma for r in rows if r.category is Category.ESCAPE]
    lowers = [r.sigma for r in rows if r.category is Category.CONVERGE_LOWER]
    if escapes and lowers and max(lowers) > min(escapes):
        raise MonotonicityError(
            f"lower convergence at sigma={max(lowers)} above escape at "
            f"sigma={min(escapes)}"
        )


@dataclass(frozen=True)
class BisectStep(SweepRow):
    """One midpoint evaluation: its sweep row, the side it moved and its audits."""

    side: str
    max_energy_rise: float
    word_chain_ok: bool


@dataclass(frozen=True)
class Bracket:
    """Certified enclosure of the critical amplitude.

    ``lo`` classified ConvergeLower and ``hi`` Escape (or ConvergeUpper,
    an orbit latched onto the separatrix); the critical amplitude lies in
    between.  ``iterations`` logs every midpoint evaluation, including its
    energy-monotonicity and word-chain audits.
    """

    lo: float
    hi: float
    lo_category: Category
    hi_category: Category
    grid_n: int
    iterations: tuple

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket requires lo < hi")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def to_dict(self) -> dict:
        """The fields, categories written by value, plus width and midpoint."""
        payload = asdict(self, dict_factory=_by_value)
        return {**payload, "width": self.width, "midpoint": self.midpoint}


def _by_value(items) -> dict:
    return {key: val.value if isinstance(val, Enum) else val for key, val in items}


def bisect_sigma_star(
    template: InitialFamily,
    lo0: float,
    hi0: float,
    width_tol: float,
    ctl: StepControl,
    tols: ClassifierTolerances,
) -> Bracket:
    """Bisect between a lower-converging and an escaping amplitude.

    The endpoints are verified first, in one two-member batch; each
    midpoint then replaces the side its category dictates: Escape and
    ConvergeUpper move ``hi``, ConvergeLower moves ``lo``.  A midpoint
    that ends Undetermined (horizon or blowup) has no certified side, so
    it raises ``ValueError`` naming its amplitude, its event and the
    certified enclosure so far.
    """
    if not lo0 < hi0:
        raise ValueError("need lo0 < hi0")
    if not width_tol > 0:  # NaN fails it too
        raise ValueError("width_tol must be positive")
    ends = {i: cat for i, cat, _ in _classify_batch(template, (lo0, hi0), ctl, tols)}
    cat_lo, cat_hi = ends[0], ends[1]
    if cat_lo is not Category.CONVERGE_LOWER:
        raise ValueError(f"lo0={lo0} classifies as {cat_lo.value}, not ConvergeLower")
    if cat_hi is not Category.ESCAPE:
        raise ValueError(f"hi0={hi0} classifies as {cat_hi.value}, not Escape")

    lo, hi = lo0, hi0
    log = []
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        cat, traj = classify(template.with_sigma(mid), ctl, tols)
        if cat is Category.UNDETERMINED:
            raise ValueError(
                f"midpoint sigma={mid!r} is Undetermined ({traj.event.kind.value} at "
                f"t={traj.event.t:.6g}); the certified enclosure is [{lo!r}, {hi!r}]"
            )
        if cat is Category.CONVERGE_LOWER:
            side, lo, cat_lo = "lo", mid, cat
        else:  # a ConvergeUpper midpoint sits on the separatrix itself; shrink from above
            side, hi, cat_hi = "hi", mid, cat
        log.append(
            BisectStep.of(
                mid,
                cat,
                traj,
                side=side,
                max_energy_rise=traj.max_step_energy_increase,
                word_chain_ok=intersection_audit(d.sgn_upper for d in traj.diagnostics),
            )
        )

    return Bracket(
        lo=lo,
        hi=hi,
        lo_category=cat_lo,
        hi_category=cat_hi,
        grid_n=template.params.grid_n,
        iterations=tuple(log),
    )


def closest_upper_approach(traj: Trajectory) -> float:
    """Minimum sampled sup-distance to the upper equilibrium along a run."""
    import math

    dists = [d.dist_upper for d in traj.diagnostics if not math.isnan(d.dist_upper)]
    return min(dists) if dists else float("inf")


def upper_dwell_time(traj: Trajectory, within: float) -> float:
    """Total sampled time spent within ``within`` of the upper equilibrium."""
    import math

    total = 0.0
    recs = traj.diagnostics
    for prev, cur in zip(recs, recs[1:]):
        if not math.isnan(cur.dist_upper) and cur.dist_upper < within:
            total += cur.t - prev.t
    return total