import warnings

import numpy as np
import pytest

from extremalflow import (
    GraphProfile,
    PolarProfile,
    ProblemParams,
    SampledCurve,
    curvature_graph,
    curvature_polar,
    enclosed_area,
    endpoint_tangents,
    gamma_lower,
    gamma_lower_polar,
    gamma_upper,
    graph_to_sampled,
    length,
    polar_to_sampled,
)
from extremalflow.geometry import is_graph_representable, is_star_shaped

from conftest import pinned_curve


# --- parameter validation ---------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(A=-1.0, a=0.5)
    with pytest.raises(ValueError):
        ProblemParams(A=1.0, a=1.2)  # a > 1/A
    with pytest.raises(ValueError):
        ProblemParams(A=1.0, a=0.5, grid_n=16)  # even
    with pytest.raises(ValueError):
        ProblemParams(A=1.0, a=0.5, grid_n=15)  # too small


def test_degenerate_half_span_warns():
    with pytest.warns(UserWarning):
        ProblemParams(A=1.0, a=1.0, grid_n=101)


def test_profile_pinning_enforced(params):
    u = np.zeros(params.grid_n)
    u[0] = 1e-16
    with pytest.raises(ValueError):
        GraphProfile(params, u)
    rho = np.full(params.grid_n, params.a)
    rho[-1] = params.a * (1 + 1e-15)
    with pytest.raises(ValueError):
        PolarProfile(params, rho)


# --- chart conversions -------------------------------------------------------


def test_zero_profile_is_straight_segment(params):
    c = graph_to_sampled(GraphProfile(params, np.zeros(params.grid_n)))
    assert np.all(c.y == 0.0)
    assert c.points[0, 0] == -params.a and c.points[-1, 0] == params.a


def test_lower_equilibrium_apex(params):
    # closed form: y(0) = 1/A - sqrt(1/A^2 - a^2)
    expected = 1.0 - np.sqrt(0.75)
    c = graph_to_sampled(gamma_lower(params))
    mid = params.grid_n // 2
    assert c.points[mid, 0] == pytest.approx(0.0, abs=1e-15)
    assert c.points[mid, 1] == pytest.approx(expected, abs=1e-12)


def test_node_count_preserved():
    p = ProblemParams(A=1.0, a=0.5, grid_n=17)
    assert len(graph_to_sampled(GraphProfile(p, np.zeros(17))).points) == 17


def test_constant_radius_maps_to_semicircle(params):
    rho = np.full(params.grid_n, params.a)
    c = polar_to_sampled(PolarProfile(params, rho))
    assert np.max(np.abs(np.hypot(c.x, c.y) - params.a)) < 1e-12
    assert c.points[0, 0] == -params.a and c.points[-1, 0] == params.a


def test_upper_equilibrium_apex(params):
    # closed form: rho(pi/2) = sqrt(1/A^2 - a^2) + 1/A
    c = polar_to_sampled(gamma_upper(params))
    mid = params.grid_n // 2
    assert c.points[mid, 1] == pytest.approx(np.sqrt(0.75) + 1.0, abs=1e-12)


def test_graph_round_trip_exact_at_nodes(params):
    g = gamma_lower(params)
    c = graph_to_sampled(g)
    assert np.max(np.abs(c.x - params.x_nodes())) == 0.0
    assert np.max(np.abs(c.y - g.u)) == 0.0


def test_polar_round_trip_exact_at_nodes(params):
    c = polar_to_sampled(gamma_lower_polar(params))
    th = np.arctan2(np.maximum(c.y, 0.0), c.x)[::-1]
    rho = np.hypot(c.x, c.y)[::-1]
    rebuilt = np.column_stack([rho * np.cos(th), rho * np.sin(th)])[::-1]
    assert np.max(np.abs(rebuilt[1:-1] - c.points[1:-1])) < 1e-12


# --- curvature ----------------------------------------------------------------


def test_curvature_straight_is_zero(params):
    assert np.max(np.abs(curvature_graph(GraphProfile(params, np.zeros(params.grid_n))))) == 0.0


def test_curvature_of_equilibria_matches_driving_force(params):
    assert np.max(np.abs(curvature_graph(gamma_lower(params)) - 1.0)) < 1e-3
    assert np.max(np.abs(curvature_polar(gamma_upper(params)) - 1.0)) < 1e-3
    assert np.max(np.abs(curvature_polar(gamma_lower_polar(params)) - 1.0)) < 1e-3


def test_curvature_charts_agree_with_refinement():
    # both charts represent the lower cap; errors must shrink at order ~2
    errs_g, errs_p = [], []
    for n in (101, 201, 401):
        p = ProblemParams(A=1.0, a=0.5, grid_n=n)
        errs_g.append(np.max(np.abs(curvature_graph(gamma_lower(p)) - 1.0)))
        errs_p.append(np.max(np.abs(curvature_polar(gamma_lower_polar(p)) - 1.0)))
    assert errs_g[0] / errs_g[1] > 3.5 and errs_g[1] / errs_g[2] > 3.5
    assert errs_p[0] / errs_p[1] > 3.5 and errs_p[1] / errs_p[2] > 3.5


@pytest.mark.parametrize("n", [101, 201, 401])
def test_curvature_matches_central_difference_expressions(n):
    # the curvature runs on the stepper's stencil; it must agree with the
    # textbook central-difference formulas
    p = ProblemParams(A=1.0, a=0.5, grid_n=n)
    dx, dth = p.dx, p.dtheta
    x = p.x_nodes()
    for u in (gamma_lower(p).u, np.where(np.abs(x) < p.a, 3.0 * np.cos(np.pi * x), 0.0)):
        ux = (u[2:] - u[:-2]) / (2.0 * dx)
        uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
        expected = -uxx / (1.0 + ux**2) ** 1.5
        assert np.max(np.abs(curvature_graph(GraphProfile(p, u)) - expected)) < 1e-12
    for r in (gamma_upper(p).rho, gamma_lower_polar(p).rho):
        rt = (r[2:] - r[:-2]) / (2.0 * dth)
        rtt = (r[2:] - 2.0 * r[1:-1] + r[:-2]) / dth**2
        ri = r[1:-1]
        expected = (ri**2 + 2.0 * rt**2 - ri * rtt) / (ri**2 + rt**2) ** 1.5
        assert np.max(np.abs(curvature_polar(PolarProfile(p, r)) - expected)) < 1e-12


def test_parabola_curvature_at_apex(params):
    x = params.x_nodes()
    u = params.a**2 - x**2
    u[0] = 0.0
    u[-1] = 0.0
    kappa = curvature_graph(GraphProfile(params, u))
    mid = params.grid_n // 2 - 1  # interior index of x = 0
    # central differences are exact on quadratics
    assert kappa[mid] == pytest.approx(2.0, abs=1e-10)


def test_curvature_of_straight_chord_in_polar_chart():
    # rho = eps / sin(theta) describes the horizontal line y = eps
    p = ProblemParams(A=1.0, a=0.5, grid_n=201)
    eps = 0.3
    th = p.theta_nodes()
    th0 = np.arcsin(eps / p.a)
    rho = np.where(
        (th > th0) & (th < np.pi - th0), eps / np.maximum(np.sin(th), 1e-9), p.a
    )
    rho[0] = p.a
    rho[-1] = p.a
    kappa = curvature_polar(PolarProfile(p, rho))
    inner = (th[1:-1] > th0 + 0.2) & (th[1:-1] < np.pi - th0 - 0.2)
    assert np.max(np.abs(kappa[inner])) < 1e-3


# --- length and area -----------------------------------------------------------


def _semicircle(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ProblemParams(A=1.0, a=1.0, grid_n=n)
    return polar_to_sampled(PolarProfile(p, np.ones(n)))


def test_length_straight(params):
    c = graph_to_sampled(GraphProfile(params, np.zeros(params.grid_n)))
    assert length(c) == pytest.approx(2 * params.a, abs=1e-15)


def test_length_semicircle_and_order():
    errs = [abs(length(_semicircle(n)) - np.pi) for n in (201, 401)]
    assert errs[1] < 1e-4
    assert errs[0] / errs[1] >= 2**1.9  # order >= 1.9


def test_area_straight_and_semicircle():
    p = ProblemParams(A=1.0, a=0.5, grid_n=201)
    straight = graph_to_sampled(GraphProfile(p, np.zeros(201)))
    assert enclosed_area(straight) == pytest.approx(0.0, abs=1e-15)
    errs = [abs(enclosed_area(_semicircle(n)) - np.pi / 2) for n in (201, 401)]
    assert errs[1] < 1e-4
    assert errs[0] / errs[1] >= 2**1.9


def test_area_matches_trapezoid_for_graphs(params):
    x = params.x_nodes()
    u = 0.3 * np.cos(np.pi * x)
    u[0] = 0.0
    u[-1] = 0.0
    c = graph_to_sampled(GraphProfile(params, u))
    assert enclosed_area(c) == pytest.approx(np.trapezoid(u, x), abs=1e-12)


def test_area_rejects_curves_below_axis(params):
    x = params.x_nodes()
    c = pinned_curve(x, -1e-6 * np.sin(np.pi * (x + params.a)))
    with pytest.raises(ValueError):
        enclosed_area(c)


# --- endpoint tangents ----------------------------------------------------------


def test_tangents_straight(params):
    c = graph_to_sampled(GraphProfile(params, np.zeros(params.grid_n)))
    t = endpoint_tangents(c)
    assert np.allclose(t.at_P, [1.0, 0.0], atol=1e-14)
    assert np.allclose(t.at_Q, [1.0, 0.0], atol=1e-14)


def test_tangents_positive_slope_families(params):
    x = params.x_nodes()
    c = pinned_curve(x, 0.7 * np.cos(np.pi * x))
    assert endpoint_tangents(c).at_P[1] > 0.0


def test_upper_equilibrium_tangent(params):
    # tangent of the circle through P: y-component equals a*A
    t = endpoint_tangents(polar_to_sampled(gamma_upper(params)))
    assert abs(t.at_P[1] - params.a * params.A) < 5e-3
    assert t.at_P[0] < 0.0  # the arc leaves P outward


# --- representability predicates and simplicity ---------------------------------


def test_representability_predicates(params):
    lower = graph_to_sampled(gamma_lower(params))
    upper = polar_to_sampled(gamma_upper(params))
    assert is_graph_representable(lower) and is_star_shaped(lower)
    assert not is_graph_representable(upper) and is_star_shaped(upper)


def test_self_intersection_detection():
    crossing = SampledCurve(
        np.array([[-0.5, 0.0], [0.4, 0.2], [-0.4, 0.25], [0.5, 0.0]])
    )
    assert not crossing.is_simple()
    p = ProblemParams(A=1.0, a=0.5, grid_n=201)
    assert graph_to_sampled(gamma_lower(p)).is_simple()


def test_curve_validation():
    with pytest.raises(ValueError):
        SampledCurve(np.array([[-0.5, 0.1], [0.5, 0.0]]))  # endpoint off axis
    with pytest.raises(ValueError):
        SampledCurve(np.array([[-0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]]))  # repeat
    with pytest.raises(ValueError):
        SampledCurve(np.array([[-0.4, 0.0], [0.5, 0.0]]))  # asymmetric pins


def test_values_immutable_after_construction(params):
    # profiles and curves are shared across concurrent runs; their arrays
    # are frozen so sharing is safe
    g = gamma_lower(params)
    with pytest.raises(ValueError):
        g.u[0] = 1.0
    c = graph_to_sampled(g)
    with pytest.raises(ValueError):
        c.points[0, 0] = 0.0
    writable = g.u.copy()
    writable[0] = 1.0  # copies remain workable


def test_csv_serialization(tmp_path, params):
    c = graph_to_sampled(gamma_lower(params))
    path = tmp_path / "curve.csv"
    c.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert np.max(np.abs(data - c.points)) == 0.0  # 17 digits round-trips
