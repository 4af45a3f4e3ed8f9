import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from extremalflow import (
    BlowupError,
    ClassifierTolerances,
    EventKind,
    GraphProfile,
    InitialFamily,
    PolarProfile,
    ProblemParams,
    StepControl,
    advance_graph,
    advance_polar,
    endpoint_tangents,
    energy,
    evolve,
    gamma_lower,
    gamma_lower_polar,
    gamma_upper,
    graph_to_sampled,
    initial_curve,
    polar_to_sampled,
    switch_chart,
)
from extremalflow import evolvers
from extremalflow.analysis import gap_profile

from conftest import diagnose


@pytest.fixture(scope="module")
def explicit(params):
    return StepControl.for_params(params, cfl=0.2)


@pytest.fixture(scope="module")
def semi(params):
    return StepControl.for_params(params, scheme="semi_implicit")


# --- step control -----------------------------------------------------------------


def test_step_control_validation(params):
    with pytest.raises(ValueError):
        StepControl.for_params(params, cfl=0.3)  # explicit cap is 0.25
    with pytest.raises(ValueError):
        StepControl.for_params(params, scheme="magic")
    ctl = StepControl.for_params(params)
    assert ctl.dt == pytest.approx(0.2 * params.dx**2)


def test_step_rule_sets_the_step_counts(monkeypatch, params, explicit, semi):
    # Every right-hand side calls its chart's terms once, in _advance's loop,
    # in a stage and in _flow_terms, so a spy on terms counts them.
    # An explicit super-step spans at most 232 Euler limits cfl * h^2 * min(M)
    # (the span of RKL_STAGES = 30 stages); its s stages make s right-hand
    # sides and span (s^2 + s - 2) / 4 times 0.45 h^2 min(M).  The graph of
    # the lower arc, whose apex has M = 1, has the limit cfl * dx^2: t = 0.01
    # is 2,000 limits (and was 2,000 Euler steps), 8 super-steps of 232
    # limits, 20 stages each, and one of 144 limits in 16 stages.  The
    # polar hold of the upper arc took 1,921 Euler steps.  A semi-implicit
    # step makes three passes; it is error-controlled and at most
    # sample_interval = 0.1: on the held equilibrium it grows 4x per step
    # from dt = 0.1 dx to that bound, 4 steps to t = 0.0425 and 50 more to
    # t = 5, whatever the order of the extrapolation.
    passes, supers, super_step = [], [], evolvers._super_step

    def spying(terms):
        def spy(*args):
            passes.append(None)
            terms(*args)

        return spy

    def spy_super(X, inner, chart, stages, *args):
        supers.append(stages[0])
        super_step(X, inner, chart, stages, *args)

    for chart in (evolvers._GraphChart, evolvers._PolarChart):
        monkeypatch.setattr(chart, "terms", spying(chart.terms))
    monkeypatch.setattr(evolvers, "_super_step", spy_super)

    def counts(advance, profile, ctl, t_end):
        passes.clear()
        supers.clear()
        advance(profile, ctl, t_end)
        return len(supers), len(passes)

    assert counts(advance_polar, gamma_upper(params), explicit, 0.1) == (9, 171)
    assert counts(advance_graph, gamma_lower(params), explicit, 0.01) == (9, 176)
    assert supers == [20] * 8 + [16]
    assert counts(advance_graph, gamma_lower(params), semi, 5.0) == (0, 3 * 54)


def test_explicit_stages_are_the_fewest_the_parabolic_bound_allows(monkeypatch, params, explicit):
    # a step within the Euler limit cfl * h^2 * min(M) is an Euler step;
    # a longer one takes the fewest s >= 2 stages whose span (s^2 + s - 2) / 4
    # of 0.45 h^2 min(M) (0.9 of the Euler bound h^2 min(M) / 2) covers it.
    # The stages do not set the step lengths: criterion 1's graph hold takes
    # 863 super-steps.  The sigma = 10 transient on grid 41 is cut by the
    # one-cell cap, so its steps take many stage counts.
    seen, super_step, spans = [], evolvers._super_step, evolvers._RKL_SPANS

    def spy(X, inner, chart, stages, wts, *args):
        for i, s in enumerate(stages):
            _, M = evolvers._rhs(X[i], chart)
            lim, unit = 0.2 * chart.h**2 * np.min(M), 0.45 * chart.h**2 * np.min(M)
            if s == 1:
                assert wts[i] <= lim
            else:
                dt = wts[i] * spans[s]
                assert s >= 2 and dt * (1 + 1e-12) > lim
                assert spans[s - 1] * unit < dt * (1 + 1e-12) <= spans[s] * unit * (1 + 2e-12)
            seen.append(s)
        super_step(X, inner, chart, stages, wts, *args)

    monkeypatch.setattr(evolvers, "_super_step", spy)
    advance_graph(gamma_lower(params), explicit, 1.0)
    assert len(seen) == 863 and max(seen) == 20
    coarse = ProblemParams(A=1.0, a=0.5, grid_n=41)
    seen.clear()
    advance_graph(initial_curve(InitialFamily(coarse, sigma=10.0)), explicit, 0.02)
    advance_polar(gamma_upper(params), explicit, 0.1)
    advance_graph(gamma_lower(params), explicit, 0.5 * explicit.dt)
    assert seen[-1] == 1 and len(set(seen)) > 5


@pytest.mark.parametrize("field", ["dt", "cfl", "t_max", "sample_interval"])
def test_step_control_rejects_nan(semi, field):
    # every comparison with NaN is false, so the checks must be written to fail on it
    with pytest.raises(ValueError):
        replace(semi, **{field: float("nan")})


@pytest.mark.parametrize("field", ["converge", "t_max"])
def test_classifier_tolerances_reject_nan(field):
    with pytest.raises(ValueError):
        ClassifierTolerances(**{field: float("nan")})


def test_an_infinite_horizon_is_rejected(semi):
    # a run with t_max = inf would never end, and its history would grow every sample
    with pytest.raises(ValueError, match="must be positive"):
        replace(semi, t_max=float("inf"))
    with pytest.raises(ValueError, match="must be positive"):
        ClassifierTolerances(t_max=float("inf"))


def test_classifier_tolerances_accept_converge_zero():
    # converge = 0 is an orbit run: no sup-distance lies below it
    assert ClassifierTolerances(converge=0.0).converge == 0.0
    with pytest.raises(ValueError):
        ClassifierTolerances(converge=-1e-3)


# --- single steps -------------------------------------------------------------------


def test_equilibria_are_discrete_fixed_points(params, explicit):
    gl = gamma_lower(params)
    assert np.max(np.abs(advance_graph(gl, explicit, explicit.dt).u - gl.u)) < 1e-8
    gu = gamma_upper(params)
    assert np.max(np.abs(advance_polar(gu, explicit, explicit.dt).rho - gu.rho)) < 1e-8
    glp = gamma_lower_polar(params)
    assert np.max(np.abs(advance_polar(glp, explicit, explicit.dt).rho - glp.rho)) < 1e-8


def test_degenerate_semicircle_stationary():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ProblemParams(A=1.0, a=1.0, grid_n=201)
    ctl = StepControl.for_params(p)
    prof = PolarProfile(p, np.ones(201))
    assert np.max(np.abs(advance_polar(prof, ctl, ctl.dt).rho - prof.rho)) == 0.0


def test_flat_profile_rises_at_driving_speed(params, explicit):
    g = GraphProfile(params, np.zeros(params.grid_n))
    g1 = advance_graph(g, explicit, explicit.dt)
    assert np.allclose(g1.u[1:-1] / explicit.dt, params.A, atol=1e-13)
    assert g1.u[0] == 0.0 and g1.u[-1] == 0.0


def test_even_data_stays_even(params, explicit, semi):
    g = initial_curve(InitialFamily(params, sigma=0.7))
    for _ in range(500):
        g = advance_graph(g, explicit, explicit.dt)
    assert np.max(np.abs(g.u - g.u[::-1])) < 1e-12
    gs = advance_graph(initial_curve(InitialFamily(params, sigma=0.7)), semi, 1.0)
    assert np.max(np.abs(gs.u - gs.u[::-1])) < 1e-12


def test_blowup_guards(params, explicit):
    u = np.zeros(params.grid_n)
    u[1:-1] = 2e6
    with pytest.raises(BlowupError):
        advance_graph(GraphProfile(params, u), explicit, explicit.dt)
    rho = np.full(params.grid_n, params.a)
    rho[params.grid_n // 2] = 1e-12
    with pytest.raises(BlowupError):
        advance_polar(PolarProfile(params, rho), explicit, explicit.dt)


@pytest.mark.parametrize("chart", ["graph", "polar"])
def test_a_step_within_one_euler_limit_is_the_euler_step(params, explicit, chart):
    # a run that ends within one Euler limit cfl * h^2 * min(M) takes one
    # Euler step s + dt * rhs(s), bitwise
    if chart == "graph":
        s = initial_curve(InitialFamily(params, sigma=0.7)).u
        c = evolvers._GraphChart(params.dx, params.A)
    else:
        s = gamma_upper(params).rho * (1.0 + 0.01 * np.sin(params.theta_nodes()))
        c = evolvers._PolarChart(params.dtheta, params.A, params.a)
    rhs, M = evolvers._rhs(s, c)
    for share in (1.0, 0.3):
        dt = share * explicit.cfl * c.h**2 * float(np.min(M))
        euler = s.copy()
        euler[1:-1] += rhs * dt
        X = s[None].copy()
        (t,), (status,) = evolvers._advance(X, c, [0.0], [dt], explicit)
        assert status == "ok" and t == dt
        assert X[0].tobytes() == euler.tobytes()


@pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
@pytest.mark.parametrize("chart", ["graph", "polar"])
def test_nan_state_is_blown(params, scheme, chart):
    # every comparison with NaN is false, so the guards must be written to
    # fail on it; +-inf must fail them as well
    ctl = StepControl.for_params(params, scheme=scheme)
    if chart == "graph":
        base, c = gamma_lower(params).u, evolvers._GraphChart(params.dx, params.A)
    else:
        base = gamma_lower_polar(params).rho
        c = evolvers._PolarChart(params.dtheta, params.A, params.a)
    for bad in (np.nan, np.inf, -np.inf):
        s = base.copy()
        s[params.grid_n // 3] = bad
        with np.errstate(invalid="ignore"):  # inf - inf
            (t,), (status,) = evolvers._advance(s[None], c, [0.0], [10 * ctl.dt], ctl)
        assert status == "blown" and np.isfinite(t), bad


@pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
@pytest.mark.parametrize("chart", ["graph", "polar"])
def test_nan_row_is_retired_before_its_step(params, scheme, chart):
    # with the guards off only the loop's screen of the right-hand side
    # sees the NaN or +-inf row; it must leave the batch before its step
    # (in the block solve the zero coupling would carry 0 * inf = NaN into
    # the rows beside it)
    ctl = StepControl.for_params(params, scheme=scheme)
    if chart == "graph":
        base, c = gamma_lower(params).u, evolvers._GraphChart(params.dx, params.A)
    else:
        base = gamma_lower_polar(params).rho
        c = evolvers._PolarChart(params.dtheta, params.A, params.a)
    c.guard = lambda *args: None
    n = params.grid_n
    start = base + 1e-3 * np.sin(np.pi * np.arange(n) / (n - 1)) * np.array([[1.0], [2.0], [3.0]])
    t_end = 10 * ctl.dt
    alone = [start[i : i + 1].copy() for i in (0, 2)]
    alone_t = [evolvers._advance(a, c, [0.0], [t_end], ctl)[0] for a in alone]
    for bad in (np.nan, np.inf, -np.inf):
        S = start.copy()
        S[1, n // 3] = bad
        with np.errstate(invalid="ignore"):  # inf - inf
            t, status = evolvers._advance(S, c, [0.0] * 3, [t_end] * 3, ctl)
        assert status == ["ok", "blown", "ok"], bad
        assert t[1] == 0.0
        assert [t[0]] == alone_t[0] and [t[2]] == alone_t[1]
        assert np.array_equal(S[0], alone[0][0]) and np.array_equal(S[2], alone[1][0])


def test_explicit_rows_take_their_own_stage_counts(monkeypatch, params_coarse):
    # the rows of one explicit batch take different stage counts (the steep
    # sigma = 3 row is held to one cell per step, the sigma = 0.1 row takes
    # the full 232 limits, 103.1 times 0.45 dx^2 min(M) at cfl = 0.2, in
    # 20 stages, the last row ends within one Euler limit) and each steps,
    # and tracks its energy, exactly as it would by itself
    p = params_coarse
    ctl = StepControl.for_params(p, cfl=0.2)
    c = evolvers._GraphChart(p.dx, p.A, p)
    c.guard = lambda *args: None  # keep the steep row in the graph chart
    start = np.array([initial_curve(InitialFamily(p, sigma=s)).u for s in (3.0, 0.1, 1.0)])
    t_end = [0.05, 0.05, 0.5 * ctl.dt]
    counts, super_step = [], evolvers._super_step

    def spy(X, inner, chart, stages, *args):
        counts.append(list(stages))
        super_step(X, inner, chart, stages, *args)

    monkeypatch.setattr(evolvers, "_super_step", spy)
    S = start.copy()
    trackers = [evolvers._EnergyTracker() for _ in range(3)]
    t, status = evolvers._advance(S, c, [0.0] * 3, t_end, ctl, trackers)
    assert status == ["ok"] * 3 and t == t_end
    first = counts[0]
    assert first[2] == 1 and 1 < first[0] < first[1] == 20
    for i in range(3):
        alone, tracker = start[i : i + 1].copy(), evolvers._EnergyTracker()
        (ti,), _ = evolvers._advance(alone, c, [0.0], t_end[i : i + 1], ctl, [tracker])
        assert ti == t[i] and alone[0].tobytes() == S[i].tobytes()
        assert tracker.max_rise == trackers[i].max_rise


@settings(deadline=None, max_examples=40)
@given(
    start=st.sampled_from(["graph lower", "graph sigma 3", "polar lower", "polar upper"]),
    cells=st.integers(min_value=20, max_value=100),
    s=st.integers(min_value=2, max_value=23),
    amplitude=st.floats(min_value=-0.01, max_value=0.01),
    mode=st.integers(min_value=1, max_value=8),
    fraction=st.floats(min_value=0.05, max_value=1.0),
)
def test_super_step_is_the_rkl2_recurrence(start, cells, s, amplitude, mode, fraction):
    # one super-step of s stages against the three-term RKL2 recurrence of
    # Meyer, Balsara and Aslam (2014), written out with _rhs per stage: this
    # pins the stage table's parity layout and the product whose output is
    # also an input.  The last stage's d1 and lap / M + F, left in the
    # stage buffers, are _flow_rhs's of the same state: the stencil's two
    # codings, the chart's matrix and _flow_rhs's differences, agree.
    p = ProblemParams(A=1.0, a=0.5, grid_n=2 * cells + 1)  # grids 41 to 201
    if start.startswith("graph"):
        chart, q = evolvers._GraphChart(p.dx, p.A), (p.x_nodes() + p.a) / (2 * p.a)
        y0 = gamma_lower(p) if start == "graph lower" else initial_curve(InitialFamily(p, sigma=3.0))
        y0 = y0.u
    else:
        chart, q = evolvers._PolarChart(p.dtheta, p.A, p.a), p.theta_nodes() / np.pi
        y0 = (gamma_lower_polar(p) if start == "polar lower" else gamma_upper(p)).rho
    y0 = y0.copy()  # a nudge of the interior, pins kept
    y0[1:-1] += amplitude * p.a * np.sin(mode * np.pi * q[1:-1])

    def L(y):
        return evolvers._rhs(y, chart)[0]

    L0, M0 = evolvers._rhs(y0, chart)
    tau = fraction * (s * s + s - 2) / 4 * 0.45 * chart.h**2 * np.min(M0)  # within the bound
    w = 4 / (s * s + s - 2) * tau  # w1 tau
    b = [1 / 3] * 3 + [(j * j + j - 2) / (2 * j * (j + 1)) for j in range(3, s + 1)]
    Y = [y0, y0.copy()]
    Y[1][1:-1] += b[1] * w * L0
    for j in range(2, s + 1):
        mu, nu = (2 * j - 1) / j * b[j] / b[j - 1], -(j - 1) / j * b[j] / b[j - 2]
        y = y0.copy()
        y[1:-1] = (
            mu * Y[j - 1][1:-1] + nu * Y[j - 2][1:-1] + (1 - mu - nu) * y0[1:-1]
            + mu * w * L(Y[j - 1]) - (1 - b[j - 1]) * mu * w * L0
        )
        Y.append(y)

    X, work = y0[None].copy(), evolvers._stage_work(p.grid_n)
    evolvers._super_step(X, X[:, 1:-1], chart, [s], [w], L0[None], work)
    assert np.max(np.abs(X[0] - Y[s])) <= 1e-13 * np.max(np.abs(y0))
    assert X[0, 0] == y0[0] and X[0, -1] == y0[-1]

    Q, _, _, DL = work[:4]
    last = Q[(s - 1) % 2]  # stage s - 1
    d1 = (last[2:] - last[:-2]) * chart.inv2h
    assert np.max(np.abs(DL[0] - d1)) <= 1e-12 * np.max(np.abs(d1))
    # lap rounds to a few ulps of the products it sums, |s| / h^2, and
    # lap / M of those over M: about 4e-13 of |lap / M| + |F| on grid 201
    rhs, M = evolvers._rhs(last, chart)
    products = np.max(np.abs(last)) * chart.invh2 / np.min(M)
    assert np.max(np.abs(Q[3, 1:-1] + Q[4, 1:-1] - rhs)) <= 1e-14 * products


@pytest.mark.parametrize("chart", ["graph", "polar"])
def test_advance_leaves_its_chart_as_it_found_it(chart):
    # a chart holds what the flow needs, not per-call state: a tracked
    # two-row batch whose rows end at different times, so that it packs,
    # neither adds nor rebinds an attribute of its chart
    p = ProblemParams(A=1.0, a=0.5, grid_n=41)
    ctl = StepControl.for_params(p, scheme="semi_implicit")
    if chart == "graph":
        base, c = gamma_lower(p).u, evolvers._GraphChart(p.dx, p.A, p)
    else:
        base, c = gamma_lower_polar(p).rho, evolvers._PolarChart(p.dtheta, p.A, p.a, p)
    bump = 1e-2 * np.sin(np.pi * np.arange(p.grid_n) / (p.grid_n - 1))
    S = base + bump * np.array([[1.0], [2.0]])
    before = dict(vars(c))
    trackers = [evolvers._EnergyTracker() for _ in range(2)]
    t_end = [ctl.sample_interval, 4 * ctl.sample_interval]
    t, status = evolvers._advance(S, c, [0.0, 0.0], t_end, ctl, trackers)
    assert status == ["ok", "ok"] and t == t_end
    assert all(np.isfinite(tracker.max_rise) for tracker in trackers)
    after = vars(c)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _banded_reference_solve(r, b):
    # the semi-implicit system in banded storage, solved by scipy's solve_banded
    m = len(r)
    ab = np.zeros((3, m))
    ab[0, 1:] = -r[:-1]
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r[1:]
    return solve_banded((1, 1), ab, b)


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(min_value=3, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pin=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_implicit_solve_matches_solve_banded(m, seed, pin):
    rng = np.random.default_rng(seed)
    r = rng.uniform(1e-6, 50.0, m)
    b = rng.uniform(-2.0, 2.0, m)
    b[0] += r[0] * pin
    b[-1] += r[-1] * pin
    expected = _banded_reference_solve(r, b)
    work = np.empty(m), np.empty(m - 1), np.empty(m - 1)
    x = evolvers._implicit_solve(r, b.copy(), *work, m)
    assert np.array_equal(x, expected)


def test_implicit_solve_singular():
    # a zero first pivot with nothing below it to swap in
    with pytest.raises(np.linalg.LinAlgError):
        _banded_reference_solve(np.array([-0.5, 0.0, 0.0]), np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        evolvers._implicit_solve(
            np.array([-0.5, 0.0, 0.0]), np.ones(3), np.empty(3), np.empty(2), np.empty(2), 3
        )


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=3, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_solve_matches_separate_solves(k, m, seed):
    # zero coupling entries and no pivoting: each block is solved bitwise
    # as it would be on its own
    rng = np.random.default_rng(seed)
    r = rng.uniform(1e-6, 50.0, (k, m))
    b = rng.uniform(-2.0, 2.0, (k, m))
    alone = [
        evolvers._implicit_solve(
            r[i], b[i].copy(), np.empty(m), np.empty(m - 1), np.empty(m - 1), m
        )
        for i in range(k)
    ]
    work = np.empty(k * m), np.empty(k * m - 1), np.empty(k * m - 1)
    x = evolvers._implicit_solve(r.reshape(-1), b.copy().reshape(-1), *work, m)
    assert np.array_equal(x.reshape(k, m), np.array(alone))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=8, max_value=200), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_tracker_energy_matches_reference_expressions(n, seed):
    # the tracked energy is E = L - A*S of the points the chart samples:
    # bitwise the chord sum and shoelace area written out here, and
    # bitwise analysis.energy
    params = ProblemParams(A=1.0, a=0.5, grid_n=2 * n + 1)
    rng = np.random.default_rng(seed)
    A = params.A
    polar = evolvers._PolarChart(params.dtheta, A, params.a, params)
    graph = evolvers._GraphChart(params.dx, A, params)
    for _ in range(3):
        rho = rng.uniform(0.05, 2.0, params.grid_n)
        u = rng.uniform(0.0, 1.0, params.grid_n) * rng.uniform(0.01, 5.0)
        rho[[0, -1]], u[[0, -1]] = params.a, 0.0  # a profile is pinned
        for chart, s in ((polar, rho), (graph, u)):
            curve = chart.sample(s)
            x, y = curve.x, curve.y
            L = float(np.sum(np.hypot(np.diff(x), np.diff(y))))
            S = float(0.5 * np.sum(x[1:] * y[:-1] - x[:-1] * y[1:]))
            assert chart.energy(s[None]) == [L - A * S] == [energy(curve, A).E]
        u[rng.integers(1, params.grid_n - 1)] = -1e-3
        (below,) = graph.energy(u[None])
        assert np.isnan(below)
    # a stack of rows gets each row's own bits, 5 rows after 9 as well
    for j in (9, 5):
        rhos = rng.uniform(0.05, 2.0, (j, params.grid_n))
        us = rng.uniform(-0.01, 1.0, (j, params.grid_n))
        for chart, stack in ((polar, rhos), (graph, us)):
            alone = [chart.energy(row[None])[0].hex() for row in stack]
            assert [E.hex() for E in chart.energy(stack)] == alone


# --- sustained advancement -----------------------------------------------------------


@pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
@pytest.mark.parametrize(
    "equilibrium, advance, field",
    [
        (gamma_lower, advance_graph, "u"),
        (gamma_lower_polar, advance_polar, "rho"),
        (gamma_upper, advance_polar, "rho"),
    ],
    ids=["lower-graph", "lower-polar", "upper-polar"],
)
def test_equilibrium_preservation_short(params, scheme, equilibrium, advance, field):
    ctl = StepControl.for_params(params, scheme=scheme)
    t_end = 1.0 if scheme == "semi_implicit" else 0.1
    start = equilibrium(params)
    held = advance(start, ctl, t_end)
    assert np.max(np.abs(getattr(held, field) - getattr(start, field))) < 1e-3


@pytest.mark.parametrize(
    "equilibrium, advance",
    [(gamma_lower, advance_graph), (gamma_lower_polar, advance_polar)],
    ids=["graph", "polar"],
)
def test_held_equilibrium_diagnoses_as_exact(params, semi, equilibrium, advance):
    # the held state is the stencil's own fixed point, where V = A - kappa is 0
    rec = diagnose(advance(equilibrium(params), semi, 5.0))
    assert rec.dissipation < 1e-20
    assert rec.kappa_dev_P < 1e-9


@pytest.mark.parametrize(
    "profile",
    [
        gamma_lower,
        lambda p: initial_curve(InitialFamily(p, sigma=2.9)),
        lambda p: initial_curve(InitialFamily(p, sigma=-1.0, phi="parabola")),
        gamma_lower_polar,
        gamma_upper,
        lambda p: switch_chart(graph_to_sampled(initial_curve(InitialFamily(p, sigma=10.0))), p),
    ],
    ids=[
        "lower-graph", "family-graph", "negative-graph", "lower-polar", "upper-polar", "family-polar"
    ],
)
def test_diagnosed_tangent_is_the_endpoint_tangent(params, profile):
    # a sample's tangent_y_P comes from its first three points alone, bitwise
    # endpoint_tangents' at_P
    prof = profile(params)
    curve = graph_to_sampled(prof) if isinstance(prof, GraphProfile) else polar_to_sampled(prof)
    want = endpoint_tangents(curve).at_P[1]
    assert diagnose(prof).tangent_y_P.hex() == float(want).hex()


def test_grid_convergence_order():
    # halving dx changes the t = 1 solution at second order
    sols = {}
    for n in (101, 201, 401):
        p = ProblemParams(A=1.0, a=0.5, grid_n=n)
        g = initial_curve(InitialFamily(p, sigma=0.5))
        sols[n] = advance_graph(g, StepControl.for_params(p, cfl=0.2), 1.0).u
    e1 = np.max(np.abs(sols[101] - sols[201][::2]))
    e2 = np.max(np.abs(sols[201] - sols[401][::2]))
    assert np.log2(e1 / e2) >= 1.7


def test_explicit_step_is_second_order_in_time(monkeypatch):
    # halving cfl cuts the error of the explicit run about 4x (ratios 3.93
    # and 3.91), each run against one reference at cfl = 0.05 / 64.  The
    # one-cell cap never binds on this start, so every step is as long as
    # its cfl allows: a step the cap cuts errs less than cfl predicts.
    p = ProblemParams(A=1.0, a=0.5, grid_n=101)
    g = initial_curve(InitialFamily(p, sigma=0.1))
    ref = advance_graph(g, StepControl.for_params(p, cfl=0.05 / 64), 0.1).u
    caps, super_step = [], evolvers._super_step

    def spy(X, inner, chart, *args):
        # the cfl at which the longest step would move a node by one cell
        rhs, M = evolvers._rhs(X[0], chart)
        longest = evolvers._RKL_SPANS[evolvers.RKL_STAGES] * chart.h**2 * np.min(M)
        caps.append(chart.h / (longest * np.max(np.abs(rhs))))
        super_step(X, inner, chart, *args)

    monkeypatch.setattr(evolvers, "_super_step", spy)
    errs = []
    for cfl in (0.2, 0.1, 0.05):
        caps.clear()
        run = advance_graph(g, StepControl.for_params(p, cfl=cfl), 0.1).u
        assert min(caps) > cfl
        errs.append(np.max(np.abs(run - ref)))
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5


def test_explicit_transient_is_no_less_accurate_than_euler(monkeypatch):
    # a fast transient, sigma = 10 on grid 41 to t = 0.02, against Euler
    # steps at cfl = 0.01: super-steps at cfl = 0.2 err 2.2e-4, Euler steps
    # 8.2e-4.  With RKL_STAGES = 2 a super-step spans one Euler limit, so
    # every step is an Euler step; the one-cell cap, which Euler steps
    # without it did not have, leaves their error at 8.22e-4.
    p = ProblemParams(A=1.0, a=0.5, grid_n=41)
    g = initial_curve(InitialFamily(p, sigma=10.0))
    run = advance_graph(g, StepControl.for_params(p, cfl=0.2), 0.02).u
    monkeypatch.setattr(evolvers, "RKL_STAGES", 2)
    euler = advance_graph(g, StepControl.for_params(p, cfl=0.2), 0.02).u
    ref = advance_graph(g, StepControl.for_params(p, cfl=0.01), 0.02).u
    err, euler_err = np.max(np.abs(run - ref)), np.max(np.abs(euler - ref))
    assert err <= euler_err <= 8.3e-4


def _one_step_errors(monkeypatch):
    """Errors of one semi-implicit step of size H = 4e-6, 2e-6 and 1e-6 on
    grid 101 from the sigma = 0.1 family curve, against 64 steps of H / 64.

    H is below dx^2, where the stiff diffusion does not yet reduce the order.
    """
    monkeypatch.setattr(evolvers, "STEP_TOL", np.inf)  # accept every step
    p = ProblemParams(A=1.0, a=0.5, grid_n=101)
    ctl = StepControl.for_params(p, scheme="semi_implicit")
    g = initial_curve(InitialFamily(p, sigma=0.1))
    errs = []
    for H in (4e-6, 2e-6, 1e-6):
        one = advance_graph(g, replace(ctl, dt=H, sample_interval=H), H).u
        ref = advance_graph(g, replace(ctl, dt=H / 64, sample_interval=H / 64), H).u
        errs.append(np.max(np.abs(one - ref)))
    return errs


def test_extrapolated_step_is_second_order(monkeypatch):
    # at least second order: the local error falls at least 6x per halving
    # of H (about 4x for the bare linearly implicit Euler step)
    errs = _one_step_errors(monkeypatch)
    assert errs[0] / errs[1] >= 6.0 and errs[1] / errs[2] >= 6.0


def test_extrapolated_step_is_third_order(monkeypatch):
    # the 1, 2, 3 tableau's local error falls about 16x per halving of H
    # (13.7 and 14.8 here; about 8x for the second-order tableau)
    errs = _one_step_errors(monkeypatch)
    assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0


# --- chart switching ------------------------------------------------------------------


def test_switch_chart_matches_the_polar_lower_arc():
    # the graph lower arc resampled onto the polar grid against the exact
    # polar arc: second order in the grid (0.28-0.32 dx^2 on grids 41-401)
    errs = []
    for n in (41, 101, 201, 401):
        params = ProblemParams(A=1.0, a=0.5, grid_n=n)
        rho = switch_chart(graph_to_sampled(gamma_lower(params)), params).rho
        errs.append(float(np.max(np.abs(rho - gamma_lower_polar(params).rho))))
        assert errs[-1] <= 0.35 * params.dx**2
    assert errs[1] / errs[2] >= 3.5 and errs[2] / errs[3] >= 3.5


@settings(deadline=None)
@example(sigma=1e-9, phi="parabola")
@example(sigma=157.0, phi="cos")
@given(
    sigma=st.floats(min_value=1e-9, max_value=157.0),
    phi=st.sampled_from(["cos", "parabola"]),
)
def test_switch_chart_nodes_lie_on_the_polyline(sigma, phi):
    # every polar node is the polyline's own point on the node's ray, so
    # its distance from the graph segment covering its x is rounding in
    # the coordinates of that segment, of order max(sigma, dx): measured
    # <= 4.4e-16 max(sigma, dx) on grid 201 for sigma in [1e-9, 157]
    params = ProblemParams(A=1.0, a=0.5, grid_n=201)
    c = graph_to_sampled(initial_curve(InitialFamily(params, sigma=sigma, phi=phi)))
    z = polar_to_sampled(switch_chart(c, params)).points
    i = np.clip(np.searchsorted(c.x, z[:, 0]) - 1, 0, len(c.x) - 2)
    e, w = c.points[i + 1] - c.points[i], z - c.points[i]
    dist = np.abs(e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]) / np.hypot(e[:, 0], e[:, 1])
    assert np.max(dist) <= 1e-14 * max(sigma, params.dx)


def test_switch_chart_straight_segment(params):
    # the baseline passes through the origin, so no polar chart exists
    seg = graph_to_sampled(GraphProfile(params, np.zeros(params.grid_n)))
    with pytest.raises(ValueError):
        switch_chart(seg, params)


def test_switch_chart_rejects_below_axis(params):
    g = initial_curve(InitialFamily(params, sigma=-1.0))
    with pytest.raises(ValueError):
        switch_chart(graph_to_sampled(g), params)


# --- full evolution --------------------------------------------------------------------


def test_evolve_zero_amplitude_converges_lower(params, semi):
    tols = ClassifierTolerances()
    traj = evolve(InitialFamily(params, sigma=0.0), semi, tols)
    assert traj.event.kind is EventKind.CONVERGED_LOWER
    assert traj.diagnostics[-1].dist_lower < tols.converge
    times = traj.times()
    assert np.all(np.diff(times) > 0)
    for _t, curve in traj.snapshots:
        assert curve.points[0, 1] == 0.0 and curve.points[-1, 1] == 0.0
        assert curve.points[0, 0] == -params.a and curve.points[-1, 0] == params.a


def test_evolve_positive_amplitude_stays_above_axis(params, semi):
    traj = evolve(InitialFamily(params, sigma=0.5), semi, ClassifierTolerances())
    assert traj.event.kind is EventKind.CONVERGED_LOWER
    # interior nodes strictly above the baseline once the flow starts
    for t, curve in traj.snapshots[1:]:
        assert np.min(curve.y[1:-1]) > 0.0


def test_evolve_escape_with_chart_handoff(params_coarse):
    from extremalflow import grim_reaper_dominating_sigma

    sigma = grim_reaper_dominating_sigma(params_coarse)
    ctl = StepControl.for_params(params_coarse, scheme="semi_implicit")
    traj = evolve(InitialFamily(params_coarse, sigma=sigma), ctl, ClassifierTolerances())
    assert traj.event.kind is EventKind.ESCAPED
    charts = [d.chart for d in traj.diagnostics]
    assert charts[0] == "graph" and charts[-1] == "polar"
    assert traj.diagnostics[-1].sgn_upper == "+"


@pytest.mark.parametrize(
    "grid_n, sigma, hands_off",
    [
        (101, 3.5, True),
        (101, 5.0, True),
        (101, 157.0, True),
        (201, 7.0, True),
        (201, 157.0, True),
        (101, 3.0, False),  # slope 9.4
        (201, 3.1, False),  # slope 9.7
    ],
)
def test_graph_hands_off_past_the_switch_slope(grid_n, sigma, hands_off):
    # one rule: a graph steeper than SLOPE_SWITCH goes to its polar
    # resampling, however tall and narrow; no round trip vets it
    params = ProblemParams(A=1.0, a=0.5, grid_n=grid_n)
    chart = evolvers._GraphChart(params.dx, params.A, params)
    u = initial_curve(InitialFamily(params, sigma=sigma)).u
    slope = float(np.max(np.abs(np.diff(u)))) / params.dx
    assert (slope > evolvers.SLOPE_SWITCH) is hands_off
    assert chart.steep(u[None]) == ([0] if hands_off else [])
    if hands_off:  # the curve has its polar resampling
        switch_chart(chart.sample(u), params)


def test_one_steepness_rule_for_guard_and_sample(params_coarse):
    # one rule decides "too steep for the graph chart", before every step
    # (a sample tests none): some cell slope past SLOPE_SWITCH, on or
    # above the axis
    params = params_coarse
    x, h = params.x_nodes(), params.dx
    bump = (1.0 - (x / params.a) ** 2) ** 2  # flat at the pins: steepest inside
    bump /= float(np.max(np.abs(np.diff(bump)))) / h
    X = np.array([10.5 * bump, -30.0 * bump, 0.5 * bump])
    cells = np.abs(np.diff(X, axis=1)) / h
    assert np.argmax(cells[0]) not in (0, len(x) - 2)
    assert np.max(cells[0]) == pytest.approx(10.5)
    d1 = (X[:, 2:] - X[:, :-2]) / (2.0 * h)
    chart = evolvers._GraphChart(h, params.A, params)
    # the row above the axis is steep; the steeper row below it has no
    # polar chart and stays; the mild row stays
    assert chart.guard(X, d1, 0) == {0: "steep"}
    for i, u in enumerate(X):
        assert chart.steep(u[None]) == ([0] if i == 0 else [])
    # the steep row has its polar resampling; the row below the axis has none
    switch_chart(chart.sample(X[0]), params)
    with pytest.raises(ValueError):
        switch_chart(chart.sample(X[1]), params)
    # a bare chart (stepping with no run around it) tests no steepness
    assert evolvers._GraphChart(h, params.A).guard(X, d1, 0) is None


@pytest.mark.parametrize("nan_at", [0, 1, "mid", -1])
def test_steep_ignores_a_nan_row(params_coarse, nan_at):
    # the screen of the batch's steepest cell must neither hide the steep
    # row behind a NaN nor let the NaN row through the axis test
    params = params_coarse
    x, h = params.x_nodes(), params.dx
    bump = (1.0 - (x / params.a) ** 2) ** 2
    bump /= float(np.max(np.abs(np.diff(bump)))) / h
    X = np.array([0.5 * bump, 10.5 * bump, 0.5 * bump])
    X[0, len(x) // 2 if nan_at == "mid" else nan_at] = np.nan
    chart = evolvers._GraphChart(h, params.A, params)
    assert chart.steep(X) == [1]
    assert chart.steep(X[[0, 2]]) == []


# --- batched evolution ------------------------------------------------------------------

_BATCH_PARAMS = ProblemParams(A=1.0, a=0.5, grid_n=101)
# a horizon that keeps near-critical draws short
_BATCH_CTL = StepControl.for_params(_BATCH_PARAMS, scheme="semi_implicit", t_max=6.0)
_BATCH_TOLS = ClassifierTolerances(t_max=6.0)
_ALONE = {}


def _alone(sigma):
    """The one-member run of an amplitude (memoized across examples)."""
    key = sigma.hex()  # keeps -0.0 apart from 0.0
    if key not in _ALONE:
        _ALONE[key] = evolve(InitialFamily(_BATCH_PARAMS, sigma=sigma), _BATCH_CTL, _BATCH_TOLS)
    return _ALONE[key]


def _assert_same_run(a, b):
    assert a.event.kind is b.event.kind and a.event.detail == b.event.detail
    assert a.event.t == b.event.t
    assert a.max_step_energy_increase == b.max_step_energy_increase
    # repr round-trips every float exactly, NaN fields included
    assert [repr(d) for d in a.diagnostics] == [repr(d) for d in b.diagnostics]
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    assert a.final_curve().points.tobytes() == b.final_curve().points.tobytes()


def _charts(traj):
    """The chart of each sample of a run, one letter each."""
    return "".join(d.chart[0] for d in traj.diagnostics)


# -1 and 0.1 stay in the graph chart; 2.9 starts below SLOPE_SWITCH and
# hands off to the polar chart at the first step past it, mid-interval;
# 10 starts past it and hands off before its first step, at t = 0
_PATHS = [-1.0, 0.1, 2.9, 10.0]


@settings(deadline=None, max_examples=8)
@example(sigmas=[2.9, 10.0, -1.0, 0.1, 2.9])
@example(sigmas=[0.0, -0.0, 0.1])
@given(
    sigmas=st.lists(
        st.one_of(st.sampled_from(_PATHS), st.floats(min_value=-1.0, max_value=40.0)),
        min_size=1,
        max_size=8,
    )
)
def test_batched_members_match_serial_runs(sigmas):
    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in sigmas]
    done = dict(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    assert sorted(done) == list(range(len(sigmas)))
    for i, s in enumerate(sigmas):
        _assert_same_run(done[i], _alone(s))


def test_batch_without_history_keeps_the_last_sample():
    sigmas = [0.1, 2.9, 10.0]
    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in sigmas]
    done = dict(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS, history=False))
    for i, s in enumerate(sigmas):
        lean, full = done[i], _alone(s)
        assert len(lean.diagnostics) == len(lean.snapshots) == 1
        assert np.isnan(lean.max_step_energy_increase)  # not recorded
        last = replace(full, diagnostics=full.diagnostics[-1:])
        recorded = replace(lean, max_step_energy_increase=full.max_step_energy_increase)
        _assert_same_run(recorded, last)


def test_orbit_runs_follow_the_certified_runs_to_escape_or_the_horizon():
    # converge = 0 switches the convergence events off: each member runs on
    # past its certified event, bitwise the same up to it, and ends only
    # on Escaped (the one certificate left), Blowup or the horizon
    sigmas = [0.1, 2.9, 3.2767, 10.0]
    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in sigmas]
    certified = dict(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    orbits = dict(evolvers.evolve_batch(fams, _BATCH_CTL, replace(_BATCH_TOLS, converge=0.0)))
    for i, s in enumerate(sigmas):
        cert, orbit = certified[i], orbits[i]
        k = len(cert.diagnostics)
        assert [repr(d) for d in orbit.diagnostics[:k]] == [repr(d) for d in cert.diagnostics]
        assert [(t, c.points.tobytes()) for t, c in orbit.snapshots[:k]] == [
            (t, c.points.tobytes()) for t, c in cert.snapshots
        ]
        if s == 10.0:
            assert orbit.event == cert.event and orbit.event.kind is EventKind.ESCAPED
        else:
            assert orbit.event.kind is EventKind.HORIZON_REACHED
            assert orbit.event.t == 6.0
    # 3.2767 lies just above grid 101's sigma* and has not escaped by t = 6
    kinds = [certified[i].event.kind.value for i in range(len(sigmas))]
    assert kinds == ["ConvergedLower", "ConvergedLower", "HorizonReached", "Escaped"]


def test_batch_paths_are_reached(monkeypatch):
    charts = {s: _charts(_alone(s)) for s in _PATHS}
    assert set(charts[-1.0]) == set(charts[0.1]) == {"g"}
    assert re.fullmatch("g+p+", charts[2.9]) and re.fullmatch("gp+", charts[10.0])
    # the mid-interval handoff is reached: 2.9 leaves the graph chart's
    # _advance as 'steep' inside its first interval
    advance, stops = evolvers._advance, []

    def spy(S, chart, *args):
        t, status = advance(S, chart, *args)
        stops.extend((chart.name, ti, st) for ti, st in zip(t, status) if st != "ok")
        return t, status

    monkeypatch.setattr(evolvers, "_advance", spy)
    traj = evolve(InitialFamily(_BATCH_PARAMS, sigma=2.9), _BATCH_CTL, _BATCH_TOLS)
    _assert_same_run(traj, _alone(2.9))
    ((chart, t, status),) = stops
    assert chart == "graph" and status == "steep" and 0.0 < t < _BATCH_CTL.sample_interval
    # a graph steep from the start leaves it at t = 0, before any step:
    # switch_chart resamples its t = 0 sample, once
    resample, curves = evolvers.switch_chart, []

    def spy_resample(curve, params):
        curves.append(curve)
        return resample(curve, params)

    monkeypatch.setattr(evolvers, "switch_chart", spy_resample)
    for sigma in (10.0, 157.0):
        stops.clear()
        curves.clear()
        traj = evolve(InitialFamily(_BATCH_PARAMS, sigma=sigma), _BATCH_CTL, _BATCH_TOLS)
        assert stops == [("graph", 0.0, "steep")]
        (curve,) = curves
        t0, first = traj.snapshots[0]
        assert t0 == 0.0 and curve.points.tobytes() == first.points.tobytes()
        assert re.fullmatch("gp+", _charts(traj))


def test_a_run_never_returns_to_the_graph_chart():
    # the handoff is one-way: both equilibria are polar arcs, so every
    # run's chart sequence is some graph samples, then polar ones
    runs = [_alone(s) for s in _PATHS]
    for n in (101, 201):
        p = ProblemParams(A=1.0, a=0.5, grid_n=n)
        ctl = StepControl.for_params(p, scheme="semi_implicit", t_max=6.0)
        runs.append(evolve(InitialFamily(p, sigma=157.0), ctl, _BATCH_TOLS))
    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in (2.9, 3.2, 3.5, 10.0, 0.1)]
    runs.extend(traj for _, traj in evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    for traj in runs:
        charts = _charts(traj)
        assert re.fullmatch("g*p*", charts), (traj.sigma, charts)
        assert ("p" in charts) is (traj.sigma > 1.0)  # 2.9 and 3.2 end ConvergeLower in it


def test_blown_member_leaves_the_others_alone(monkeypatch):
    # one member's state turns NaN after its second sample: it ends as
    # Blowup while every other member runs exactly as on its own
    sigmas = [0.1, 0.5, 2.9, 10.0]
    alone = {s: _alone(s) for s in sigmas}
    sample = evolvers._Run.sample

    def poisoned(run, *args):
        sample(run, *args)
        if run.fam.sigma == 0.5 and len(run.diagnostics) == 2:
            run.s[len(run.s) // 3] = np.nan

    monkeypatch.setattr(evolvers._Run, "sample", poisoned)
    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in sigmas]
    done = dict(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    assert done[1].event.kind is EventKind.BLOWUP and len(done[1].diagnostics) == 2
    for i in (0, 2, 3):
        _assert_same_run(done[i], alone[sigmas[i]])


def test_refused_steep_handoff_stays_in_the_graph_chart(monkeypatch):
    # with no polar resampling, a steep graph ends the member's run as a
    # blow-up in the graph chart at once; a member of the batch that never
    # steepens runs as on its own
    alone = _alone(0.1)

    def no_polar(curve, params):
        raise ValueError("polar chart refused")

    monkeypatch.setattr(evolvers, "switch_chart", no_polar)
    sigmas = [10.0, 2.9, 0.1]
    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in sigmas]
    done = dict(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    # a one-member batch ends the same way
    ((_, solo),) = evolvers.evolve_batch(fams[:1], _BATCH_CTL, _BATCH_TOLS)
    for traj in (done[0], done[1], solo):
        assert traj.event.kind is EventKind.BLOWUP
        assert traj.event.detail == "in graph chart"
        assert {d.chart for d in traj.diagnostics} == {"graph"}
    _assert_same_run(done[2], alone)


@pytest.mark.parametrize(
    "sigma, deformation",
    [(10.0, "cliff"), (157.0, "cliff"), (10.0, "dip")],
)
def test_a_deformed_polar_state_ends_on_a_certificate_or_a_limit(monkeypatch, sigma, deformation):
    # the handoff's resampling is deformed at the node next to P.  A cliff
    # turns the endpoint tangent outward, and the run still ends on the
    # certificate of the undeformed run; a dip to the origin is a limit,
    # caught before any polar step
    resample = evolvers.switch_chart

    def deform(curve, params):
        rho = resample(curve, params).rho.copy()
        rho[-2] = rho[-2] + 3.0 if deformation == "cliff" else 1e-10
        return PolarProfile(params, rho)

    monkeypatch.setattr(evolvers, "switch_chart", deform)
    traj = evolve(InitialFamily(_BATCH_PARAMS, sigma=sigma), _BATCH_CTL, _BATCH_TOLS)
    if deformation == "cliff":
        assert next(d for d in traj.diagnostics if d.chart == "polar").tangent_y_P < 0.0
        assert traj.event.kind is EventKind.ESCAPED
        assert traj.event == _alone(sigma).event
    else:
        assert traj.event == evolvers.TerminationEvent(EventKind.BLOWUP, 0.0, "in polar chart")


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunked_energy_audit_matches_per_step(monkeypatch, chunk):
    # a chunk of 1 evaluates the energy after every step; 3 flushes
    # mid-interval and partly filled at each interval's end; the batch
    # members finish at different steps, 2.9 switches charts at its first
    # steep step, mid-interval, and 10.0 before its first step
    sigmas = [0.1, 2.9, 10.0, -1.0, 0.5]
    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in sigmas]
    default = {s: _alone(s).max_step_energy_increase.hex() for s in sigmas}
    monkeypatch.setattr(evolvers, "ENERGY_CHUNK", chunk)
    for s in _PATHS:
        traj = evolve(InitialFamily(_BATCH_PARAMS, sigma=s), _BATCH_CTL, _BATCH_TOLS)
        assert traj.max_step_energy_increase.hex() == default[s]
    done = dict(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    assert len({len(done[i].diagnostics) for i in done}) > 1  # finished apart
    for i, s in enumerate(sigmas):
        assert done[i].max_step_energy_increase.hex() == default[s]


def test_rejected_steps_leave_members_and_trackers_alone(monkeypatch):
    # a tight tolerance makes members reject steps that the rest of their
    # batch accepts: a rejected step moves neither the member's state nor
    # its time, and its energy never reaches the tracker, whatever the chunk
    monkeypatch.setattr(evolvers, "STEP_TOL", 1e-5)
    track, skipped_rows = evolvers._track, []

    def spy(chart, hist, j, trackers, skipped):
        skipped_rows.extend(skipped)
        track(chart, hist, j, trackers, skipped)

    monkeypatch.setattr(evolvers, "_track", spy)
    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in (0.1, 2.9, 10.0, -1.0, 0.5)]
    alone = [evolve(fam, _BATCH_CTL, _BATCH_TOLS) for fam in fams]
    done = dict(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    assert skipped_rows  # buffered steps of a batch held rejected rows
    for i, traj in enumerate(alone):
        _assert_same_run(done[i], traj)
    monkeypatch.setattr(evolvers, "ENERGY_CHUNK", 1)
    per_step = dict(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    for i in done:
        assert per_step[i].max_step_energy_increase.hex() == done[i].max_step_energy_increase.hex()


def test_fixed_costs_scale_with_segments_not_samples(monkeypatch):
    # an orbit run just above grid 101's sigma*: about 60 samples in two
    # chart segments.  Each segment is one _advance call that samples its
    # row in place, and the energy tracker flushes once per ENERGY_CHUNK
    # buffered steps and once per segment at most, never once per sample
    advance, track, flow_terms = evolvers._advance, evolvers._track, evolvers._flow_terms
    segments, flushes, rhs_calls = [], [], []

    def spy_advance(S, chart, *args):
        segments.append(chart.name)
        return advance(S, chart, *args)

    def spy_track(*args):
        flushes.append(None)
        track(*args)

    def spy_flow_terms(*args):
        rhs_calls.append(None)
        flow_terms(*args)

    monkeypatch.setattr(evolvers, "_advance", spy_advance)
    monkeypatch.setattr(evolvers, "_track", spy_track)
    monkeypatch.setattr(evolvers, "_flow_terms", spy_flow_terms)
    orbit = replace(_BATCH_TOLS, converge=0.0)
    traj = evolve(InitialFamily(_BATCH_PARAMS, sigma=3.2767), _BATCH_CTL, orbit)
    samples = len(traj.diagnostics)
    assert traj.event.kind is EventKind.HORIZON_REACHED and samples == 61
    assert segments == ["graph", "polar"]
    # _flow_terms runs three times per semi-implicit step (once in each
    # _flow_rhs), once per sample (its normal velocity) and once before the
    # guard stops the graph segment
    steps, rest = divmod(len(rhs_calls) - samples - 1, 3)
    assert rest == 0
    assert len(flushes) <= -(-steps // evolvers.ENERGY_CHUNK) + len(segments)


def test_sample_intervals_below_1e_9_are_rejected():
    # the stop rule reads a sample within 1e-12 of the horizon as at it, and
    # sample intervals stay three decades above that slack
    p = ProblemParams(A=1.0, a=0.5, grid_n=41)
    with pytest.raises(ValueError, match="sample_interval must be at least 1e-9"):
        StepControl.for_params(p, scheme="semi_implicit", t_max=3e-12, sample_interval=1e-13)
    assert StepControl.for_params(p, sample_interval=1e-9).sample_interval == 1e-9


@pytest.mark.parametrize("sigma", [0.1, 2.9])
def test_samples_record_the_energy_and_tangent_of_their_snapshots(sigma):
    # every sample's L, S, E and tangent_y_P are bitwise analysis.energy and
    # endpoint_tangents' at_P of the curve it records, in a graph run (0.1)
    # and in a run that hands off to the polar chart (2.9)
    traj = evolve(InitialFamily(_BATCH_PARAMS, sigma=sigma), _BATCH_CTL, _BATCH_TOLS)
    assert {d.chart for d in traj.diagnostics} == ({"graph"} if sigma < 1.0 else {"graph", "polar"})
    for rec, (t, curve) in zip(traj.diagnostics, traj.snapshots, strict=True):
        assert rec.t == t
        got = [rec.L, rec.S, rec.E, rec.tangent_y_P]
        want = [*energy(curve, traj.params.A), float(endpoint_tangents(curve).at_P[1])]
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_evolve_leaves_no_reference_cycles():
    # the charts and their buffers are freed when a run ends, not at the
    # next full collection
    import gc

    fams = [InitialFamily(_BATCH_PARAMS, sigma=s) for s in (0.1, 2.9, 10.0)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for fam in fams:
            evolve(fam, _BATCH_CTL, _BATCH_TOLS)
            assert gc.collect() == 0
        list(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS, history=False))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_batch_requires_one_parameter_set():
    other = ProblemParams(A=1.0, a=0.4, grid_n=101)
    fams = [InitialFamily(_BATCH_PARAMS, sigma=0.1), InitialFamily(other, sigma=0.1)]
    with pytest.raises(ValueError):
        list(evolvers.evolve_batch(fams, _BATCH_CTL, _BATCH_TOLS))
    assert list(evolvers.evolve_batch([], _BATCH_CTL, _BATCH_TOLS)) == []


def test_comparison_principle_short_runs(params, semi):
    tols = ClassifierTolerances()
    pairs = [(0.1, 0.5), (0.5, 1.0), (-0.5, 0.5)]
    trajs = {s: evolve(InitialFamily(params, sigma=s), semi, tols) for s in (-0.5, 0.1, 0.5, 1.0)}
    for lo_s, hi_s in pairs:
        tl, th = trajs[lo_s], trajs[hi_s]
        t_alive = min(tl.event.t, th.event.t)
        for (t1, c1), (t2, c2) in zip(tl.snapshots, th.snapshots):
            if t1 > t_alive + 1e-9:
                break
            # as curves: the two samples may be in different charts
            assert np.min(gap_profile(c2, c1).gap) > -1e-9


def test_flow_stays_above_moving_reaper(params, semi):
    # the capped traveling wave is a moving sub-solution: a family curve
    # starting strictly above it remains above it while the wave survives
    from extremalflow.analysis import _heights_at
    from extremalflow.geometry import is_graph_representable
    from extremalflow.solutions import grim_reaper_value

    b, C = 0.9 * 2 * params.a / np.pi, 3.0
    x_dense = np.linspace(-params.a, params.a, 4001)[1:-1]
    fam = InitialFamily(params, sigma=1.0)
    wave0 = np.zeros_like(x_dense)
    inside = np.abs(x_dense) < b * np.pi / 2
    wave0[inside] = np.maximum(grim_reaper_value(b, C, x_dense[inside], 0.0), 0.0)
    sigma = 1.05 * float(np.max(wave0 / fam.phi_values(x_dense)))

    ctl = StepControl.for_params(params, scheme="semi_implicit", sample_interval=0.05)
    traj = evolve(fam.with_sigma(sigma), ctl, ClassifierTolerances())
    checked = 0
    for t, curve in traj.snapshots:
        if t >= b * C:
            break
        wave = np.zeros_like(x_dense)
        wave[inside] = np.maximum(grim_reaper_value(b, C, x_dense[inside], t), 0.0)
        if is_graph_representable(curve):
            h = np.interp(x_dense, curve.x, curve.y)
        else:
            try:
                h = _heights_at(curve, x_dense)
            except ValueError:
                break  # curve folded past the span; the wave is far below anyway
        assert float(np.min(h - wave)) > -1e-9
        checked += 1
    assert checked >= 10


def test_trajectory_outputs(tmp_path, params, semi):
    traj = evolve(InitialFamily(params, sigma=0.1), semi, ClassifierTolerances())
    out = tmp_path / "run"
    traj.write_outputs(out)
    files = sorted(f.name for f in out.iterdir())
    snapshots = [f"snapshot_{k:04d}.csv" for k in range(len(traj.snapshots))]
    assert files == ["diagnostics.csv", *snapshots]
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,L,S,E,Z,sgn_word,kappa_dev_P,tangent_y_P"
    assert len(lines) == len(traj.diagnostics) + 1
    for line, rec in zip(lines[1:], traj.diagnostics):
        E, Z, word = line.split(",")[3:6]
        assert float(E) == rec.E and np.isfinite(rec.E)
        assert word == (rec.sgn_upper or "")
        assert Z == (str(len(word) + 1) if word else "")
    summary = traj.summary_dict()
    assert summary["event"] == "ConvergedLower"
    assert summary["final_sgn"] == "-"
