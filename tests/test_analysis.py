import itertools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extremalflow import (
    GraphProfile,
    InitialFamily,
    PolarProfile,
    SgnWord,
    Unresolvable,
    energy,
    gamma_lower,
    gamma_upper,
    graph_to_sampled,
    initial_curve,
    intersection_audit,
    intersection_count,
    polar_to_sampled,
    semi_order,
    sgn_word,
    subword,
)
from extremalflow.analysis import _heights_at, _median, gap_profile, word_from_gap
from extremalflow.evolvers import StepControl, advance_graph

from conftest import diagnose, pinned_curve


@pytest.fixture(scope="module")
def upper(params):
    return polar_to_sampled(gamma_upper(params))


@pytest.fixture(scope="module")
def lower(params):
    return graph_to_sampled(gamma_lower(params))


def family_curve(params, sigma):
    return graph_to_sampled(initial_curve(InitialFamily(params, sigma=sigma)))


# --- intersection counting and words ------------------------------------------


def test_five_letter_configuration(params):
    # two pinned graphs crossing four times in the interior: Z = 6
    x = params.x_nodes()
    base = pinned_curve(x, 0.3 * np.cos(np.pi * x))
    ripple = pinned_curve(x, base.y + 0.05 * np.sin(5 * np.pi * (x + params.a)))
    w = sgn_word(base, ripple)
    assert w.letters == "-+-+-"
    assert intersection_count(base, ripple) == 6


def _scan_word(gap):
    """Independent oracle: compress the exact sign sequence of a dense gap."""
    sign = np.sign(gap)
    sign = sign[sign != 0]
    letters = [sign[0]] + [s for prev, s in zip(sign, sign[1:]) if s != prev]
    return "".join("+" if s > 0 else "-" for s in letters)


@pytest.mark.parametrize("sigma,expected", [(5.0, "-+-"), (0.1, "-"), (-1.0, "-")])
def test_words_against_upper_equilibrium(params, upper, sigma, expected):
    curve = family_curve(params, sigma)
    # oracle: dense scan of the analytic gap to the upper arc
    x = np.linspace(-params.a, params.a, 20001)[1:-1]
    u = sigma * np.cos(np.pi * x / (2 * params.a))
    c = params.center_offset
    oracle = _scan_word(u - (c + np.sqrt(params.radius**2 - x**2)))
    assert oracle == expected
    assert sgn_word(curve, upper).letters == expected


def test_word_flips_when_arguments_swap(params, upper):
    c5 = family_curve(params, 5.0)
    w12 = sgn_word(c5, upper).letters
    w21 = sgn_word(upper, c5).letters
    flip = {"+": "-", "-": "+"}
    assert w21 == "".join(flip[ch] for ch in w12)


def test_shift_by_twice_tolerance(params):
    x = params.x_nodes()
    base = pinned_curve(x, 0.3 * np.cos(np.pi * x))
    tol = 1e-3
    shifted = pinned_curve(x, base.y + 2 * tol)
    w = sgn_word(shifted, base, tol=tol)
    assert w.letters == "+" and w.z == 2


def test_coincident_curves_unresolvable(params):
    x = params.x_nodes()
    base = pinned_curve(x, 0.3 * np.cos(np.pi * x))
    with pytest.raises(Unresolvable):
        sgn_word(base, base)


def test_coincidence_length_does_not_depend_on_tolerance():
    # the gap vanishes exactly over [0.3, 0.5], far longer than three node
    # spacings; a gap tolerance is no length and must not widen that bound
    param = np.linspace(0.0, 1.0, 101)[1:-1]
    gap = np.where(param < 0.3, 1.0, np.where(param > 0.5, -1.0, 0.0))
    for tol in (None, 0.1, 0.5):
        with pytest.raises(Unresolvable):
            word_from_gap(param, gap, tol)


def test_negative_or_nan_tolerance_is_rejected(lower):
    # a negative tolerance would class every gap as both signs: the word
    # +-+- would read '-' and touching curves 'Above'
    param = np.linspace(0.0, 1.0, 101)[1:-1]
    gap = np.sin(4.0 * np.pi * param)
    assert word_from_gap(param, gap).letters == word_from_gap(param, gap, 0.0).letters == "+-+-"
    assert semi_order(lower, lower, tol=0.0) == "Touching"
    for tol in (-1.0, -1e-300, np.nan):
        with pytest.raises(ValueError, match="tol must be at least 0"):
            word_from_gap(param, gap, tol)
        with pytest.raises(ValueError, match="tol must be at least 0"):
            semi_order(lower, lower, tol=tol)


def test_tangential_contact_collapses(params):
    # two crossings squeezed inside the tolerance count as one contact,
    # keeping both flanking letters
    x = params.x_nodes()
    base = pinned_curve(x, 0.3 * np.cos(np.pi * x))
    dip = 0.5e-3 * np.exp(-((x / 0.1) ** 2)) - 0.25e-3 * np.exp(-((x / 0.05) ** 2))
    other = pinned_curve(x, base.y - 1e-2 * np.cos(np.pi * x / (2 * params.a)) + dip)
    w = sgn_word(base, other, tol=2e-3)
    assert w.letters == "+"


def test_no_common_parameterization_raises(params):
    # one curve below the axis, the other not x-representable
    x = params.x_nodes()
    below = pinned_curve(x, -0.3 * np.cos(np.pi * x))
    blob = polar_to_sampled(gamma_upper(params))
    # below-axis vs the upper arc works through the x chart
    assert sgn_word(below, blob).letters == "-"
    # but two mutually incompatible curves do not
    from extremalflow import SampledCurve

    zigzag = SampledCurve(np.array([[-0.5, 0.0], [0.4, 0.2], [-0.4, 0.25], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        sgn_word(blob, zigzag)


def test_star_shaped_curves_compare_by_polar_angle(params_coarse):
    # a narrow radial bump near theta = 1.65 folds the curve back over
    # itself in x, so no x chart exists; both curves are star-shaped, and
    # the gap is taken over the polar angle
    p = params_coarse
    theta, upper = p.theta_nodes(), gamma_upper(p)
    rho = upper.rho * (1 + 0.05 * np.sin(theta) ** 2)
    rho *= 1 + 2 * np.exp(-(((theta - 1.65) / 0.03) ** 2))
    rho[0] = rho[-1] = p.a
    bumped, arc = polar_to_sampled(PolarProfile(p, rho)), polar_to_sampled(upper)
    with pytest.raises(ValueError, match="not single-valued"):
        _heights_at(bumped, np.linspace(-p.a, p.a, 101)[1:-1])
    gap = gap_profile(bumped, arc)
    assert 0.0 < gap.param.min() and gap.param.max() < np.pi
    assert gap.param.max() > p.a  # angles, not abscissae
    assert sgn_word(bumped, arc).letters == "+"
    assert sgn_word(arc, bumped).letters == "-"


# --- subword algebra -------------------------------------------------------------


def test_subword_reference_cases():
    assert subword(SgnWord("+-"), SgnWord("+-"))
    assert subword(SgnWord("+-"), SgnWord("+"))
    assert subword(SgnWord("+-"), SgnWord("-"))
    assert not subword(SgnWord("+-"), SgnWord("-+"))
    assert subword(SgnWord("-+-"), SgnWord("-+-"))
    assert subword(SgnWord("-+-"), SgnWord("+"))
    assert subword(SgnWord("-+-"), SgnWord("--"))


def _all_words(max_len):
    out = []
    for n in range(1, max_len + 1):
        for combo in itertools.product("+-", repeat=n):
            out.append("".join(combo))
    return out


def test_subword_is_partial_order():
    words = [SgnWord(w) for w in _all_words(4)]
    for w in words:
        assert subword(w, w)  # reflexive
    for wa in words:
        for wb in words:
            if subword(wa, wb) and subword(wb, wa):
                assert wa.letters == wb.letters  # antisymmetric
    import random

    rng = random.Random(7)
    triples = [(rng.choice(words), rng.choice(words), rng.choice(words)) for _ in range(500)]
    for wa, wb, wc in triples:
        if subword(wa, wb) and subword(wb, wc):
            assert subword(wa, wc)  # transitive


def test_intersection_audit():
    assert intersection_audit(["-+-", "-+-", "--", "-"])
    assert intersection_audit(["-+-", None, "-"])
    assert not intersection_audit(["-", "-+-"])  # count increased
    assert not intersection_audit(["+-", "-+"])  # not a subword


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@settings(derandomize=True, max_examples=300)
@example(values=[0.0, -0.0])
@example(values=[-0.0, 0.0, -0.0])
@example(values=[1.0, float("nan"), 2.0])
@example(values=[float("inf"), float("-inf")])
@example(values=[3.0, 3.0, 1.0, 3.0])
@given(
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, float("nan")]),  # ties
        ),
        min_size=1,
        max_size=40,
    )
)
def test_median_is_numpy_median_bitwise(values):
    # odd and even lengths, ties, signed zeros, infinities and NaN
    v = np.array(values)
    with np.errstate(invalid="ignore"):  # inf - inf in the mean
        assert _bits(_median(v)) == _bits(float(np.median(v)))


def test_word_validation():
    with pytest.raises(ValueError):
        SgnWord("")
    with pytest.raises(ValueError):
        SgnWord("+x")
    assert SgnWord("-+-").z == 4
    assert str(SgnWord("-+-")) == "-+-"


# --- semi-order --------------------------------------------------------------------


def test_semi_order_cases(params, upper, lower):
    assert semi_order(upper, lower) == "Above"
    assert semi_order(lower, upper) == "Below"
    assert semi_order(family_curve(params, 5.0), upper) == "Crossing"
    assert semi_order(lower, lower) == "Touching"


def test_semi_order_requires_transversal_tangents(params):
    # a strictly higher curve with identical endpoint tangents is only Touching
    x = params.x_nodes()
    base = pinned_curve(x, 0.3 * np.cos(np.pi * x))
    bump = 0.05 * np.cos(np.pi * x / (2 * params.a)) ** 3  # flat to 2nd order at pins
    high = pinned_curve(x, base.y + bump)
    assert semi_order(high, base) == "Touching"


# --- energies -------------------------------------------------------------------------


def test_energy_straight_segment(params):
    x = params.x_nodes()
    seg = pinned_curve(x, np.zeros_like(x))
    rec = energy(seg, params.A)
    assert rec.L == pytest.approx(2 * params.a, abs=1e-15)
    assert rec.S == pytest.approx(0.0, abs=1e-15)
    assert rec.E == pytest.approx(2 * params.a, abs=1e-15)


def test_energy_of_lower_equilibrium(params, lower):
    rec = energy(lower, params.A)
    # closed-form arc length of the cap: 2 asin(aA) / A
    assert rec.L == pytest.approx(2 * np.arcsin(0.5), abs=2e-5)
    # area oracle: dense quadrature of the closed form; the sampled
    # polygon sits inside the cap by O(dx^2)
    x = np.linspace(-params.a, params.a, 200001)
    s_oracle = np.trapezoid(np.sqrt(1 - x**2) - params.center_offset, x)
    assert rec.S == pytest.approx(s_oracle, abs=1e-5)


def test_energy_ranks_upper_equilibrium_below_crossing_family(params, upper):
    just_above = family_curve(params, 1.9)
    assert energy(upper, params.A).E < energy(just_above, params.A).E


def lyapunov(g, A):
    """The Lyapunov value E = L - A*S of a graph profile's polyline."""
    return energy(graph_to_sampled(g), A).E


def test_lyapunov_values(params):
    flat = GraphProfile(params, np.zeros(params.grid_n))
    assert lyapunov(flat, params.A) == pytest.approx(2 * params.a, abs=1e-14)
    cap = gamma_lower(params)
    area = np.trapezoid(cap.u, dx=params.dx)
    assert lyapunov(cap, params.A) == pytest.approx(np.pi / 3 - area, abs=1e-4)


def test_lyapunov_monotone_along_graph_steps(params):
    ctl = StepControl.for_params(params, cfl=0.2)
    g = initial_curve(InitialFamily(params, sigma=0.5))
    prev = lyapunov(g, params.A)
    for _ in range(200):
        g = advance_graph(g, ctl, ctl.dt)
        cur = lyapunov(g, params.A)
        assert cur <= prev + 1e-8
        prev = cur


def test_dissipation_values(params):
    # the stencil's integral of (kappa - A)^2 over the arc length of the interior nodes
    assert diagnose(gamma_lower(params)).dissipation < 1e-9
    flat = diagnose(GraphProfile(params, np.zeros(params.grid_n)))
    # straight segment: (kappa - A)^2 = A^2 over the interior nodes' length 2a - h
    assert flat.dissipation == pytest.approx((2 * params.a - params.dx) * params.A**2, rel=1e-12)
    assert diagnose(initial_curve(InitialFamily(params, sigma=0.7))).dissipation >= 0.0


def test_endpoint_curvature_deviation(params):
    # exact circle samples: only the stencil's O(h^2) truncation error
    assert diagnose(gamma_lower(params)).kappa_dev_P < 1e-5
    assert diagnose(gamma_upper(params)).kappa_dev_P < 5e-4
    # a straight segment has kappa = 0, so |kappa - A| is A exactly
    assert diagnose(GraphProfile(params, np.zeros(params.grid_n))).kappa_dev_P == params.A


def test_endpoint_curvature_relaxes_along_run(params):
    # the flow drives the boundary curvature to the driving force
    ctl = StepControl.for_params(params, scheme="semi_implicit")
    g0 = initial_curve(InitialFamily(params, sigma=0.1))
    assert diagnose(g0).kappa_dev_P > 0.9  # starts far off
    assert diagnose(advance_graph(g0, ctl, 1.0)).kappa_dev_P < 0.05
