from dataclasses import replace
from unittest import mock

import pytest

from extremalflow import (
    ClassifierTolerances,
    InitialFamily,
    ProblemParams,
    StepControl,
    grim_reaper_dominating_sigma,
)
from extremalflow import evolvers
from extremalflow.classifier import (
    Bracket,
    Category,
    MonotonicityError,
    SweepRow,
    _audit_order,
    bisect_sigma_star,
    classify,
    closest_upper_approach,
    sweep,
    upper_dwell_time,
)


@pytest.fixture(scope="module")
def ctl(params_coarse):
    return StepControl.for_params(params_coarse, scheme="semi_implicit")


@pytest.fixture(scope="module")
def tols():
    return ClassifierTolerances()


@pytest.fixture(scope="module")
def template(params_coarse):
    return InitialFamily(params_coarse, sigma=0.0)


def test_classify_small_amplitudes(template, ctl, tols):
    for s in (-1.0, 0.0, 0.1):
        cat, traj = classify(template.with_sigma(s), ctl, tols)
        assert cat is Category.CONVERGE_LOWER
        assert traj.event.t <= 20.0


def test_classify_deep_negative_amplitudes(template, ctl, tols):
    # a graph below the axis has no polar chart, so however steep its wall
    # it stays in the graph chart and settles on the lower equilibrium
    for s in (-10.0, -20.0):
        cat, traj = classify(template.with_sigma(s), ctl, tols)
        assert cat is Category.CONVERGE_LOWER, traj.event
        assert {d.chart for d in traj.diagnostics} == {"graph"}


def test_classify_dominating_amplitude_escapes(params_coarse, template, ctl, tols):
    sigma = grim_reaper_dominating_sigma(params_coarse)
    cat, traj = classify(template.with_sigma(sigma), ctl, tols)
    assert cat is Category.ESCAPE
    assert traj.diagnostics[-1].sgn_upper == "+"


def test_classification_deterministic(template, ctl, tols):
    _, t1 = classify(template.with_sigma(0.1), ctl, tols)
    _, t2 = classify(template.with_sigma(0.1), ctl, tols)
    assert t1.summary_dict() == t2.summary_dict()


def test_sweep_table_and_order(template, ctl, tols):
    rows = sweep(template, [-1.0, 0.0, 0.1], ctl, tols)
    assert [r.sigma for r in rows] == [-1.0, 0.0, 0.1]
    assert all(r.category is Category.CONVERGE_LOWER for r in rows)
    assert sweep(template, [], ctl, tols) == []


def test_sweep_spanning_the_threshold_is_ordered(template, ctl, tols):
    rows = sweep(template, [-1.0, 2.0, 3.0, 3.5, 5.0], ctl, tols)
    cats = [r.category for r in rows]
    assert cats == [
        Category.CONVERGE_LOWER,
        Category.CONVERGE_LOWER,
        Category.CONVERGE_LOWER,
        Category.ESCAPE,
        Category.ESCAPE,
    ]


class _FakeTraj:
    """Just what the classifier reads off a trajectory."""

    def __init__(self, kind):
        from extremalflow.evolvers import TerminationEvent

        self.event = TerminationEvent(kind, 1.0)
        self.diagnostics = [mock.Mock(sgn_upper="-")]


def test_sweep_monotonicity_audit(template, ctl, tols):
    from extremalflow.evolvers import EventKind

    # an escape at sigma = 1 below a lower convergence at sigma = 2
    fake = {1.0: EventKind.ESCAPED, 2.0: EventKind.CONVERGED_LOWER}

    def rigged(fams, _ctl, _tols, **_):
        for i, fam in enumerate(fams):
            yield i, _FakeTraj(fake[fam.sigma])

    with mock.patch("extremalflow.classifier.evolve_batch", side_effect=rigged):
        with pytest.raises(MonotonicityError):
            sweep(template, [1.0, 2.0], ctl, tols)
    rows = [
        SweepRow(sigma=1.0, category=Category.ESCAPE, t_event=1.0, final_sgn="+"),
        SweepRow(sigma=2.0, category=Category.CONVERGE_LOWER, t_event=1.0, final_sgn="-"),
    ]
    with pytest.raises(MonotonicityError):
        _audit_order(rows)
    _audit_order(  # escape above lower convergence is the expected order
        [replace(r, category=c) for r, c in zip(rows, (Category.CONVERGE_LOWER, Category.ESCAPE))]
    )


def test_bisect_validates_endpoints(template, ctl, tols):
    with pytest.raises(ValueError):
        bisect_sigma_star(template, 2.0, 1.0, 0.1, ctl, tols)  # lo >= hi
    with pytest.raises(ValueError):
        bisect_sigma_star(template, 1.0, 2.0, -0.1, ctl, tols)  # bad tol
    with pytest.raises(ValueError, match="width_tol"):
        bisect_sigma_star(template, 1.0, 2.0, float("nan"), ctl, tols)
    with pytest.raises(ValueError):  # lo0 escapes, so it is not a lower endpoint
        bisect_sigma_star(template, 10.0, 20.0, 0.1, ctl, tols)
    with pytest.raises(ValueError):  # hi0 converges, so it is not an upper endpoint
        bisect_sigma_star(template, 0.0, 0.1, 0.05, ctl, tols)


def test_bisect_checks_both_endpoints_in_one_batch(template, ctl, tols):
    from extremalflow.evolvers import EventKind

    calls = []

    def rigged(*kinds):
        def fake(fams, _ctl, _tols, **_):
            calls.append([f.sigma for f in fams])
            for i in reversed(range(len(kinds))):  # completion order is free
                yield i, _FakeTraj(kinds[i])

        return fake

    patch = "extremalflow.classifier.evolve_batch"
    # both endpoints are wrong: lo0 is reported
    with mock.patch(patch, side_effect=rigged(EventKind.ESCAPED, EventKind.CONVERGED_LOWER)):
        with pytest.raises(ValueError, match=r"^lo0=1.0 classifies as Escape, not ConvergeLower$"):
            bisect_sigma_star(template, 1.0, 2.0, 0.1, ctl, tols)
    with mock.patch(patch, side_effect=rigged(EventKind.CONVERGED_LOWER, EventKind.HORIZON_REACHED)):
        with pytest.raises(ValueError, match=r"^hi0=2.0 classifies as Undetermined, not Escape$"):
            bisect_sigma_star(template, 1.0, 2.0, 0.1, ctl, tols)
    assert calls == [[1.0, 2.0], [1.0, 2.0]]


def test_bisect_undetermined_midpoint_raises(template, ctl, tols):
    from extremalflow.evolvers import EventKind

    # certified endpoints, then a midpoint that reaches its horizon with a
    # '+' in its word: no side is certified, so the bisection stops
    def endpoints(fams, _ctl, _tols, **_):
        kinds = (EventKind.CONVERGED_LOWER, EventKind.ESCAPED)
        for i in range(len(fams)):
            yield i, _FakeTraj(kinds[i])

    midpoint = _FakeTraj(EventKind.HORIZON_REACHED)
    midpoint.diagnostics = [mock.Mock(sgn_upper="-+-")]
    with mock.patch("extremalflow.classifier.evolve_batch", side_effect=endpoints), \
            mock.patch("extremalflow.classifier.evolve", return_value=midpoint):
        with pytest.raises(
            ValueError,
            match=r"^midpoint sigma=1\.5 is Undetermined \(HorizonReached at t=1\); "
            r"the certified enclosure is \[1\.0, 2\.0\]$",
        ):
            bisect_sigma_star(template, 1.0, 2.0, 0.1, ctl, tols)


def test_bracket_invariant():
    with pytest.raises(ValueError):
        Bracket(
            lo=2.0,
            hi=1.0,
            lo_category=Category.CONVERGE_LOWER,
            hi_category=Category.ESCAPE,
            grid_n=101,
            iterations=(),
        )


def test_bisect_and_near_critical_shadowing(template, ctl, tols):
    # shrinking the bracket moves the midpoint orbit closer to the upper
    # equilibrium and grows the dwell time near it
    br1 = bisect_sigma_star(template, 3.0, 3.6, 0.04, ctl, tols)
    br2 = bisect_sigma_star(template, br1.lo, br1.hi, 0.02, ctl, tols)
    br3 = bisect_sigma_star(template, br2.lo, br2.hi, 0.005, ctl, tols)
    assert br1.width <= 0.04 and br2.width <= 0.02 and br3.width <= 0.005
    assert br1.lo_category is Category.CONVERGE_LOWER
    assert br1.hi_category in (Category.ESCAPE, Category.CONVERGE_UPPER)
    # endpoints re-classify to their recorded categories
    cat_lo, _ = classify(template.with_sigma(br3.lo), ctl, tols)
    assert cat_lo is br3.lo_category

    approaches, dwells = [], []
    for br in (br1, br2, br3):
        # an orbit run: past the convergence proxies, on to escape or the horizon
        traj = evolvers.evolve(template.with_sigma(br.midpoint), ctl, replace(tols, converge=0.0))
        approaches.append(closest_upper_approach(traj))
        dwells.append(upper_dwell_time(traj, 10 * tols.converge))
    assert approaches[0] > approaches[1] > approaches[2]
    assert dwells[0] <= dwells[1] <= dwells[2]
    assert dwells[2] > dwells[0]
    assert approaches[2] < 10 * tols.converge


def test_bracket_serialization(template, ctl, tols):
    br = bisect_sigma_star(template, 3.0, 3.6, 0.2, ctl, tols)
    payload = br.to_dict()
    assert payload["width"] == pytest.approx(br.width)
    assert payload["lo_category"] == "ConvergeLower"
    for it in payload["iterations"]:
        assert set(it) == {
            "sigma",
            "category",
            "t_event",
            "final_sgn",
            "side",
            "max_energy_rise",
            "word_chain_ok",
        }
        assert it["word_chain_ok"]


def test_classification_at_second_parameter_point(tols):
    # nothing in the pipeline is tied to A=1, a=0.5
    p = ProblemParams(A=2.0, a=0.4, grid_n=101)
    ctl = StepControl.for_params(p, scheme="semi_implicit")
    fam = InitialFamily(p, sigma=0.0)
    cat_lo, _ = classify(fam.with_sigma(1.0), ctl, tols)
    cat_hi, traj = classify(fam.with_sigma(1.3), ctl, tols)
    assert cat_lo is Category.CONVERGE_LOWER
    assert cat_hi is Category.ESCAPE
    assert traj.diagnostics[-1].sgn_upper == "+"
    br = bisect_sigma_star(fam, 1.0, 1.3, 0.02, ctl, tols)
    assert br.width <= 0.02
    assert all(it.word_chain_ok for it in br.iterations)


def test_degenerate_span_reaches_horizon(tols):
    # at a = 1/A the equilibria merge into a saddle-node attracting only
    # algebraically, so the finite-time proxy cannot certify lock-in
    import warnings

    from extremalflow import evolve
    from extremalflow.evolvers import EventKind

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = ProblemParams(A=1.0, a=1.0, grid_n=101)
    ctl = StepControl.for_params(p, scheme="semi_implicit", t_max=5.0)
    traj = evolve(InitialFamily(p, sigma=0.3), ctl, ClassifierTolerances(t_max=5.0))
    assert traj.event.kind is EventKind.HORIZON_REACHED
    dists = [d.dist_lower for d in traj.diagnostics]
    assert dists[-1] < dists[0]  # creeping toward the merged equilibrium


def test_extreme_amplitude_word_chain(params_coarse, tols):
    # far above the escape certificate the initial wall crosses the upper
    # arc within a fraction of a cell; the word sampling must still
    # resolve it so the intersection count never bounces
    from extremalflow.analysis import intersection_audit

    ctl = StepControl.for_params(params_coarse, scheme="semi_implicit")
    fam = InitialFamily(params_coarse, sigma=0.0)
    sigma = 5.0 * grim_reaper_dominating_sigma(params_coarse)
    cat, traj = classify(fam.with_sigma(sigma), ctl, tols)
    assert cat is Category.ESCAPE
    assert intersection_audit(d.sgn_upper for d in traj.diagnostics)
    assert traj.diagnostics[0].sgn_upper == "-+-"


@pytest.mark.slow
def test_bracket_midpoints_stable_across_grids(tols):
    # grid refinement moves the estimated critical amplitude by far less
    # than the cross-grid agreement bound
    mids = {}
    for n in (101, 201, 401):
        p = ProblemParams(A=1.0, a=0.5, grid_n=n)
        ctl = StepControl.for_params(p, scheme="semi_implicit")
        fam = InitialFamily(p, sigma=0.0)
        mids[n] = bisect_sigma_star(fam, 3.0, 3.6, 0.01, ctl, tols).midpoint
    assert abs(mids[101] - mids[201]) < 0.05
    assert abs(mids[201] - mids[401]) < 0.05


def test_bracket_stable_under_step_tolerance(params_coarse, template, ctl, tols, monkeypatch):
    # the default bracket is converged in time: a tenth of the step
    # tolerance returns the same one (criterion 11 checks grid 201)
    hi = grim_reaper_dominating_sigma(params_coarse)

    def bracket():
        br = bisect_sigma_star(template, 0.1, hi, 0.01, ctl, tols)
        return br.lo, br.hi, br.lo_category, br.hi_category

    default = bracket()
    monkeypatch.setattr(evolvers, "STEP_TOL", evolvers.STEP_TOL / 10)
    assert bracket() == default
