import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from extremalflow import (
    InitialFamily,
    ProblemParams,
    barrier_geometry,
    circle_crossing_time,
    circle_radius,
    gamma_lower,
    gamma_lower_polar,
    gamma_upper,
    graph_to_sampled,
    grim_reaper_dominating_sigma,
    grim_reaper_subsolution,
    grim_reaper_value,
    initial_curve,
    polar_to_sampled,
)
from extremalflow.analysis import word_from_gap
from extremalflow.solutions import _arc_heights, grim_reaper_kink


# --- equilibria -----------------------------------------------------------------


def test_lower_equilibrium_values(params):
    g = gamma_lower(params)
    assert g.u[0] == 0.0 and g.u[-1] == 0.0
    mid = params.grid_n // 2
    assert g.u[mid] == pytest.approx(0.1339745962155614, abs=1e-13)


@pytest.mark.parametrize(
    "A,a,n", [(1.0, 0.5, 201), (1.0, 0.5, 101), (2.0, 0.3, 151), (1.0, 1.0, 201)]
)
def test_arc_formulas_match_closed_forms(A, a, n):
    # each arc's closed form, written out on its own
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a = 1/A is the degenerate semicircle
        p = ProblemParams(A=A, a=a, grid_n=n)
    x, th, c, r = p.x_nodes(), p.theta_nodes(), p.center_offset, p.radius

    def pinned(v, end):
        v[0] = v[-1] = end
        return v

    lower = pinned(np.sqrt(np.maximum(r**2 - x**2, 0.0)) - c, 0.0)
    upper = pinned(c * np.sin(th) + np.sqrt(r**2 - (c * np.cos(th)) ** 2), a)
    lower_polar = pinned(-c * np.sin(th) + np.sqrt(r**2 - (c * np.cos(th)) ** 2), a)
    xs = np.linspace(-a, a, 4001)[1:-1]
    assert np.array_equal(gamma_lower(p).u, lower)
    assert np.array_equal(gamma_upper(p).rho, upper)
    assert np.array_equal(gamma_lower_polar(p).rho, lower_polar)
    assert np.array_equal(_arc_heights(p, xs, 1.0), c + np.sqrt(r**2 - xs**2))


def test_degenerate_lower_is_semicircle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ProblemParams(A=1.0, a=1.0, grid_n=201)
    g = gamma_lower(p)
    x = p.x_nodes()
    assert np.max(np.abs(g.u[1:-1] - np.sqrt(1 - x[1:-1] ** 2))) < 1e-12


def test_upper_equilibrium_values(params):
    r = gamma_upper(params)
    assert r.rho[0] == params.a and r.rho[-1] == params.a
    mid = params.grid_n // 2
    assert r.rho[mid] == pytest.approx(1.8660254037844386, abs=1e-13)


def test_degenerate_upper_is_constant():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ProblemParams(A=1.0, a=1.0, grid_n=201)
    assert np.max(np.abs(gamma_upper(p).rho - 1.0)) == 0.0


def test_lower_polar_chart_consistent(params):
    # the polar chart of the lower cap traces the same curve as its graph;
    # the comparison itself carries the O(dx^2) chord-interpolation floor
    cg = graph_to_sampled(gamma_lower(params))
    cp = polar_to_sampled(gamma_lower_polar(params))
    h = np.interp(cg.x[1:-1], cp.x, cp.y)
    assert np.max(np.abs(h - cg.y[1:-1])) < 1e-4


# --- grim reaper -----------------------------------------------------------------


def test_reaper_center_value():
    assert grim_reaper_value(0.25, 3.0, 0.0, 0.0) == pytest.approx(3.0)


def test_reaper_wave_speed():
    b, C = 0.25, 3.0
    x = np.linspace(-0.3, 0.3, 33)
    drop = grim_reaper_value(b, C, x, 1.0 + b) - grim_reaper_value(b, C, x, 1.0)
    assert np.max(np.abs(drop + 1.0)) < 1e-12


def test_reaper_analytic_residual():
    # exact derivatives: G_t = -1/b, G_x = -tan(x/b), G_xx = -sec^2(x/b)/b
    b, x = 0.25, 0.3
    gt = -1.0 / b
    gx = -np.tan(x / b)
    gxx = -1.0 / (b * np.cos(x / b) ** 2)
    assert abs(gt - gxx / (1.0 + gx**2)) < 1e-10


def test_reaper_domain_error():
    with pytest.raises(ValueError):
        grim_reaper_value(0.25, 3.0, 0.25 * np.pi / 2, 0.0)


def test_reaper_rejects_a_width_not_positive(params):
    # a wave of width b <= 0 (or NaN) does not exist: its kink and its
    # sub-solution refuse it as the wave does, not return 0 or the baseline
    for b in (0.0, -0.1, -0.25, np.nan):
        with pytest.raises(ValueError, match="width b must be positive"):
            grim_reaper_value(b, 3.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="width b must be positive"):
            grim_reaper_kink(b, 3.0, 0.0)
        with pytest.raises(ValueError, match="requires 0 < b"):
            grim_reaper_subsolution(params, b, 3.0, 0.0)


def test_reaper_subsolution_baseline_and_apex(params):
    b, C = 0.25, 3.0
    flat = grim_reaper_subsolution(params, b, C, t=b * C + 1.0)
    assert np.all(flat.y == 0.0)
    fresh = grim_reaper_subsolution(params, b, C, t=0.0)
    mid = params.grid_n // 2
    assert fresh.points[mid, 1] == pytest.approx(C)


def test_reaper_kink_matches_root(params):
    b, C, t = 0.25, 3.0, 0.3
    xk = grim_reaper_kink(b, C, t)
    root = brentq(lambda x: grim_reaper_value(b, C, x, t), 1e-9, b * np.pi / 2 - 1e-12)
    assert xk == pytest.approx(root, abs=1e-10)
    assert abs(grim_reaper_value(b, C, xk, t)) < 1e-10


def test_reaper_subsolution_width_precondition(params):
    with pytest.raises(ValueError):
        grim_reaper_subsolution(params, b=2 * params.a / np.pi, C=3.0, t=0.0)


# --- expanding circle --------------------------------------------------------------


def test_circle_radius_monotone():
    radii = [circle_radius(2.0, 1.0, t) for t in (0.0, 0.5, 1.0, 2.0)]
    assert radii[0] == 2.0
    assert all(r2 > r1 for r1, r2 in zip(radii, radii[1:]))


def test_circle_radius_matches_implicit_form():
    # t(R) = (R - R0)/A + ln((A R - 1)/(A R0 - 1)) / A^2 inverted as oracle
    t_star = circle_crossing_time(2.0, 1.0, 3.0)
    assert t_star == pytest.approx(1.0 + np.log(2.0), abs=1e-14)
    for t in (0.5, 1.0, 2.0, t_star):
        r_num = circle_radius(2.0, 1.0, t)
        r_oracle = brentq(lambda r: circle_crossing_time(2.0, 1.0, r) - t, 2.0, 20.0)
        assert abs(r_num - r_oracle) < 1e-8


def test_circle_radius_rejects_subcritical():
    with pytest.raises(ValueError):
        circle_radius(0.9, 1.0, 1.0)
    with pytest.raises(ValueError):
        circle_crossing_time(1.0, 1.0, 2.0)


def test_circle_oracle_rejects_non_positive_forcing():
    # for A < 0 every positive R0 exceeds 1/A, so the radius check alone
    # would pass a circle that shrinks and never reaches R; A = 0 has no
    # equilibrium radius at all
    for A in (-1.0, 0.0):
        with pytest.raises(ValueError, match="A must be positive"):
            circle_crossing_time(2.0, A, 3.0)
        with pytest.raises(ValueError, match="A must be positive"):
            circle_radius(2.0, A, 1.0)


@pytest.mark.parametrize(
    "R0, A, t", [(2.0, 1.0, np.nan), (2.0, 1.0, np.inf), (2.0, np.nan, 1.0), (np.inf, 1.0, 1.0)]
)
def test_circle_radius_rejects_non_finite(R0, A, t):
    # a NaN or inf time would leave the Runge-Kutta integrator stepping forever
    with pytest.raises(ValueError, match="must be finite"):
        circle_radius(R0, A, t)


@pytest.mark.parametrize("R0, A, R", [(2.0, 1.0, np.nan), (np.nan, 1.0, 3.0), (2.0, 1.0, np.inf)])
def test_circle_crossing_time_rejects_non_finite(R0, A, R):
    with pytest.raises(ValueError, match="must be finite"):
        circle_crossing_time(R0, A, R)


# --- barrier geometry ----------------------------------------------------------------


def test_barrier_tangency_and_sizes(params):
    geom = barrier_geometry(params, R=2.0)
    # outer circle passes through P = (-a, 0)
    assert abs(geom.outer.distance_to((-params.a, 0.0)) - geom.outer.radius) < 1e-10
    assert geom.outer.radius > geom.inner.radius
    assert geom.apex_height > 0.0
    assert geom.crossing_time > 0.0
    # the expanding circle grown from R reaches the outer radius at t*
    assert circle_radius(2.0, params.A, geom.crossing_time) == pytest.approx(
        geom.outer.radius, abs=1e-8
    )


def test_barrier_requires_supercritical_radius(params):
    with pytest.raises(ValueError):
        barrier_geometry(params, R=params.radius)


@pytest.mark.parametrize("R", [np.nan, np.inf])
def test_barrier_requires_finite_radius(params, R):
    with pytest.raises(ValueError, match="requires R > 1/A"):
        barrier_geometry(params, R)


# --- initial family ---------------------------------------------------------------------


def test_initial_curve_zero_amplitude(params):
    g = initial_curve(InitialFamily(params, sigma=0.0))
    assert np.all(g.u == 0.0)


def test_initial_curve_negative_amplitude(params):
    g = initial_curve(InitialFamily(params, sigma=-1.0))
    assert g.u[0] == 0.0 and g.u[-1] == 0.0
    assert np.all(g.u[1:-1] < 0.0)


def _brute_force_upper_crossings(params, u):
    """Independent oracle: dense sign scan of the gap to the upper arc."""
    x = np.linspace(-params.a, params.a, 20001)[1:-1]
    heights = np.interp(x, params.x_nodes(), u)
    c = params.center_offset
    gap = heights - (c + np.sqrt(params.radius**2 - x**2))
    sign = np.sign(gap)
    sign = sign[sign != 0]
    return 2 + int(np.sum(sign[1:] * sign[:-1] < 0))


@pytest.mark.parametrize(
    "sigma,expected_z", [(5.0, 4), (0.1, 2), (-1.0, 2), (36.0, 4), (60.0, 4)]
)
def test_intersections_with_upper_equilibrium(params, sigma, expected_z, monkeypatch):
    # the count initial_curve checks must be the oracle's; at sigma 36 and 60
    # the crossings sit next to the pins, where a sign tolerance merges them
    import extremalflow.solutions as solutions

    words = []

    def recorded(*args, **kwargs):
        words.append(word_from_gap(*args, **kwargs))
        return words[-1]

    monkeypatch.setattr(solutions, "word_from_gap", recorded)
    g = initial_curve(InitialFamily(params, sigma=sigma))
    assert _brute_force_upper_crossings(params, g.u) == expected_z
    assert [w.z for w in words] == [expected_z]


def test_initial_curve_rejects_excess_crossings(params):
    # a flat-topped concave profile meets the upper arc six times: twice
    # across its top and twice beside each pin (at 1.8 a sign tolerance
    # would merge the crossings beside the pins and read four)
    phi = lambda x: 1.0 - (x / params.a) ** 20
    for sigma in (1.84, 1.8):
        u = sigma * phi(params.x_nodes())
        assert _brute_force_upper_crossings(params, u) == 6
        with pytest.raises(ValueError, match="at most 4"):
            initial_curve(InitialFamily(params, sigma=sigma, phi=phi))


def test_family_shape_validation(params):
    with pytest.raises(ValueError):
        InitialFamily(params, sigma=1.0, phi="unknown")
    with pytest.raises(ValueError):  # odd profile
        InitialFamily(params, sigma=1.0, phi=lambda x: x**3)
    with pytest.raises(ValueError):  # not pinned
        InitialFamily(params, sigma=1.0, phi=lambda x: np.ones_like(x))
    with pytest.raises(ValueError):  # convex somewhere
        InitialFamily(
            params, sigma=1.0, phi=lambda x: np.cos(np.pi * x) * (1 + 0.5 * np.sin(8 * np.pi * x) ** 2)
        )
    fam = InitialFamily(params, sigma=1.0, phi="parabola")
    assert fam.with_sigma(2.0).sigma == 2.0


def test_dominating_amplitude_follows_the_profile():
    # each profile is scaled to its own certificate; the cos default is
    # unchanged bitwise
    params = ProblemParams(A=1.0, a=0.5, grid_n=201)
    cos = grim_reaper_dominating_sigma(params)
    assert cos.hex() == "0x1.372f5bf03e4dap+7"  # 155.592...
    assert grim_reaper_dominating_sigma(params, "cos") == cos
    sigma = grim_reaper_dominating_sigma(params, "parabola")
    assert sigma == pytest.approx(128.17646959992, rel=1e-12)
    b = 0.9 * 2 * params.a / np.pi
    geom = barrier_geometry(params, 2.0)
    C = geom.apex_height + geom.crossing_time / b + 1.0
    x = np.linspace(-params.a, params.a, 8001)[1:-1]
    inside = np.abs(x) < b * np.pi / 2.0
    reaper = np.maximum(grim_reaper_value(b, C, x[inside], 0.0), 0.0)
    phi = InitialFamily(params, sigma, "parabola").phi_values(x)
    assert np.all(sigma * phi[inside] > reaper)


def test_dominating_amplitude_dominates_reaper():
    # (0.4, 1.0) needs the radius 2/A: a fixed R = 2 is not above 1/A there
    for A, a in [(1.0, 0.5), (0.4, 1.0), (2.0, 0.4)]:
        params = ProblemParams(A=A, a=a, grid_n=201)
        sigma = grim_reaper_dominating_sigma(params)
        b = 0.9 * 2 * params.a / np.pi
        geom = barrier_geometry(params, 2.0 / A)
        C = geom.apex_height + geom.crossing_time / b + 1.0 / A
        reaper = grim_reaper_subsolution(params, b, C, 0.0)
        fam = initial_curve(InitialFamily(params, sigma=sigma))
        assert np.all(fam.u[1:-1] > reaper.y[1:-1])
        # scale invariance x -> x/A, t -> t/A^2 maps (A, a) to (1, aA)
        unit = grim_reaper_dominating_sigma(ProblemParams(A=1.0, a=a * A, grid_n=201))
        assert sigma == pytest.approx(unit / A, rel=1e-12)
