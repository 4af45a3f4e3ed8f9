"""Driven curvature flow V = -kappa + A between fixed endpoints.

Simulation of planar curves moving by curvature plus a constant driving
force, pinned at two endpoints on the axis; diagnostics (intersection
words, energies) and classification of the long-time fate of the concave
initial family, including bisection for the critical amplitude.
"""

from .geometry import (
    EndpointTangents,
    GraphProfile,
    PolarProfile,
    ProblemParams,
    SampledCurve,
    enclosed_area,
    endpoint_tangents,
    graph_to_sampled,
    length,
    polar_to_sampled,
)
from .solutions import (
    BarrierCircle,
    BarrierGeometry,
    InitialFamily,
    barrier_geometry,
    circle_crossing_time,
    circle_radius,
    gamma_lower,
    gamma_lower_polar,
    gamma_upper,
    grim_reaper_dominating_sigma,
    grim_reaper_subsolution,
    grim_reaper_value,
    initial_curve,
)
from .analysis import (
    SgnWord,
    Unresolvable,
    energy,
    intersection_audit,
    intersection_count,
    semi_order,
    sgn_word,
    subword,
)
from .evolvers import (
    BlowupError,
    ClassifierTolerances,
    EventKind,
    StepControl,
    TerminationEvent,
    Trajectory,
    advance_graph,
    advance_polar,
    curvature_graph,
    curvature_polar,
    evolve,
    switch_chart,
)
from .classifier import (
    Bracket,
    Category,
    MonotonicityError,
    bisect_sigma_star,
    classify,
    sweep,
)

__version__ = "0.1.0"
