import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit import intertwine1d
from dunklkit.cli import parse_preset
from dunklkit.errors import DegeneratePointError, InvalidArgumentError, UnsupportedCaseError
from dunklkit.functions import PolyGauss, gaussian, standard_bump
from dunklkit.intertwine1d import (
    DualDensity,
    IntertwiningDensity,
    V_k_num,
    V_k_num_product,
    default_line_plan,
    dual_inverse_via_transform,
    dual_via_transform,
    eta_pairing,
    inv_V_via_P,
    inv_V_via_Q,
    inv_tV_via_VkP,
    local_P,
    local_Q,
    mass_constant,
    mu_density,
    mu_quadrature,
    tV_k_num,
    tV_k_num_product,
    z_pairing,
)
from dunklkit.convolution import (
    BumpProfile,
    ConcreteDistribution,
    approx_identity_check,
    convolve,
    convolve_many,
    distribution_convolve,
    translate_measure,
    translate_spectral,
    translate_spectral_many,
)
from dunklkit.polyexact import RationalPoly, intertwine, operator_prefactor
from dunklkit.rootsys import axis_product, rank_one
from dunklkit.suites import SuiteConfig, run_suite
from dunklkit.transform import line_gamma

GAMMAS = [0.5, 1.0, 2.0, 7.0 / 3.0]
LINES = [rank_one(Fraction(1, 2)), rank_one(1), rank_one(2)]


# ----------------------------------------------------------------- measure


def test_mass_constant_value():
    # Gamma(3/2) / (sqrt(pi) Gamma(1)) = 1/2
    assert mass_constant(1.0) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_mu_quadrature_mass_one(gamma):
    _, w = mu_quadrature(gamma, 64)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-14)


def test_mu_density_support(rs_one):
    assert mu_density(rs_one, 2.0, 2.5) == 0.0
    assert mu_density(rs_one, 2.0, -2.5) == 0.0
    assert mu_density(rs_one, 2.0, 1.0) > 0.0


def test_mu_density_reflection():
    # the measure at -x is the reflection of the measure at x
    rs = rank_one(Fraction(3, 2))
    assert mu_density(rs, -2.0, 0.7) == pytest.approx(mu_density(rs, 2.0, -0.7), rel=1e-13)


def test_density_degenerate_point(rs_one):
    with pytest.raises(DegeneratePointError):
        IntertwiningDensity(rs_one, 0.0)


def test_V_known_moment(rs_one):
    # V(y^2)(x) = x^2/3 at gamma = 1
    for x in (0.5, 1.0, 2.0, -1.5):
        val = V_k_num(rs_one, lambda t: np.asarray(t) ** 2, np.array([x]))[0]
        assert val == pytest.approx(x * x / 3.0, rel=1e-12)


def test_V_at_zero_is_evaluation(rs_two):
    vals = V_k_num(rs_two, lambda t: np.asarray(t) ** 2 + 1.0, np.array([0.0]))
    assert vals[0] == pytest.approx(1.0, abs=1e-15)


def test_V_gamma_zero_identity(rs_zero):
    xs = np.array([-1.0, 0.3, 2.0])
    vals = V_k_num(rs_zero, lambda t: np.cos(np.asarray(t)), xs)
    assert np.allclose(vals, np.cos(xs), atol=1e-15)


@pytest.mark.parametrize("gamma", [Fraction(1, 2), 1, 2, Fraction(7, 3)])
def test_V_cross_engine_monomials(gamma):
    rs = rank_one(gamma)
    xs = np.array([-1.7, 0.3, 1.0, 2.5])
    for deg in range(9):
        exact = intertwine(rs, RationalPoly.monomial(1, (deg,))).evaluate_float(xs)
        num = V_k_num(rs, lambda t, d=deg: np.asarray(t) ** d, xs)
        assert np.max(np.abs(num - exact) / np.abs(exact)) < 1e-10


# ----------------------------------------------------------------- dual


def test_dual_density_support(rs_one):
    d = DualDensity(rs_one, 1.5)
    assert d.support == 1.5
    # zero where |x| < |y|, positive beyond
    assert d(1.0) == 0.0
    assert d(2.0) > 0.0
    inner = IntertwiningDensity(rs_one, 2.0)
    assert inner.support == (-2.0, 2.0)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_dual_density_closed_form_matches_the_per_point_density(gamma, lines):
    # the averaging density at each x, with the arguments exchanged, times |x|^(2 gamma)
    rs = lines[gamma]
    xs = np.array([-3.0, -1.1, -0.8, -0.3, 0.0, 0.3, 0.8, 1.1, 1.7, 3.0])
    for y in (0.0, 0.8, -1.1):
        ref = [mu_density(rs, x, y) * abs(x) ** (2.0 * gamma) if abs(x) > abs(y) else 0.0 for x in xs]
        np.testing.assert_allclose(DualDensity(rs, y)(xs), ref, rtol=1e-13, atol=0.0)
    # zero at |x| = |y| and at x = 0
    assert DualDensity(rs, 0.8)(np.array([0.8, -0.8])).tolist() == [0.0, 0.0]
    assert DualDensity(rs, 0.0)(0.0) == 0.0


def test_dual_pairing_duality(rs_one, plan_one):
    # <tV f, g> (plain) = <f, V g> (weighted) on rapidly decreasing inputs
    f = gaussian()
    g = PolyGauss.monomial(2)
    plain = plan_one.space_plain
    weighted = plan_one.space
    tv = tV_k_num(rs_one, f, plain.nodes, n=100)
    lhs = float(np.sum(plain.weights * tv * g(plain.nodes)))
    vg = V_k_num(rs_one, g, weighted.nodes)
    rhs = float(np.sum(weighted.weights * f(weighted.nodes) * vg))
    assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_dual_matches_transform_route(gamma, lines):
    f = gaussian()
    ys = np.array([-1.8, -0.4, 0.0, 0.7, 2.1])
    direct = tV_k_num(lines[gamma], f, ys, n=120)
    oracle = np.real(dual_via_transform(lines[gamma], f, ys))
    assert np.max(np.abs(direct - oracle)) < 1e-10


def test_dual_gamma_zero_identity(rs_zero):
    ys = np.array([-1.0, 0.5])
    f = gaussian()
    assert np.allclose(tV_k_num(rs_zero, f, ys), f(ys), atol=1e-15)


def test_dual_parity(rs_one):
    f = PolyGauss.monomial(1)
    ys = np.array([0.8])
    left = tV_k_num(rs_one, f, ys)[0]
    right = tV_k_num(rs_one, f, -ys)[0]
    assert left == pytest.approx(-right, rel=1e-12)


def test_sinhc_is_finite_at_and_near_zero():
    s = np.array([0.0, 1e-9, 1.0])
    out = intertwine1d._sinhc(s)
    assert np.all(np.isfinite(out))
    assert out[0] == 1.0
    assert out[1] == 1.0 + s[1] ** 2 / 6.0
    assert out[2] == pytest.approx(math.sinh(1.0), rel=1e-15)


def test_dual_of_bump_vanishes_outside(rs_two):
    bump = standard_bump()
    ys = np.array([1.05, 1.5, 3.0, -1.2])
    assert np.max(np.abs(tV_k_num(rs_two, bump, ys))) == 0.0


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_dual_of_a_sequence_matches_the_per_function_loop(gamma, lines):
    # y = 0, points at and beyond both cutoffs (14 and the bump's 1), and repeats
    rs = lines[gamma]
    fs = [gaussian(), PolyGauss.monomial(1), standard_bump().as_sampled(), PolyGauss.monomial(3)]
    ys = np.array([0.7, -1.3, 0.0, 14.0, 0.7, 0.5, -15.0, -1.3, 0.0, 2.2, 0.7])
    together = tV_k_num(rs, fs, ys)
    assert together.shape == (len(fs), len(ys))
    np.testing.assert_array_equal(together, [tV_k_num(rs, f, ys) for f in fs])
    np.testing.assert_array_equal(tV_k_num(rs, fs, 0.7), [tV_k_num(rs, f, 0.7) for f in fs])
    assert type(tV_k_num(rs, fs[0], 0.7)) is float


def test_dual_evaluates_each_function_on_the_distinct_points_only(rs_one):
    n, distinct = 40, np.array([-1.3, 0.4, 0.9, 2.2])
    sizes = []

    def f(t):
        sizes.append(np.size(t))
        return gaussian()(t)

    for k in (1, 5):
        sizes.clear()
        tV_k_num(rs_one, f, np.tile(distinct, k), n=n, support_radius=8.0)
        assert sum(sizes) <= 2 * n * len(distinct)


def test_a_nan_function_leaves_the_others_of_a_sequence_finite(rs_one):
    ys = np.array([-1.3, 0.0, 0.4, 0.4, 2.2])
    nan = lambda t: np.full(np.shape(t), np.nan)
    out = tV_k_num(rs_one, [nan, gaussian()], ys)
    assert np.all(np.isnan(out[0]))
    np.testing.assert_array_equal(out[1], tV_k_num(rs_one, gaussian(), ys))


# ----------------------------------------------------------------- inverses


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_inverse_paths_agree(gamma, lines):
    rs = lines[gamma]
    plan = default_line_plan(rs)
    xs = np.array([-1.4, 0.0, 0.6, 1.9])
    for n in range(4):
        f = PolyGauss.monomial(n)
        p_route = inv_V_via_P(rs, f, xs, plan)
        q_route = inv_V_via_Q(rs, f, xs)
        assert np.max(np.abs(p_route - q_route)) < 1e-8


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_forward_roundtrip(gamma, lines):
    rs = lines[gamma]
    xs = np.array([-1.2, 0.4, 1.6])
    f = PolyGauss.monomial(2)
    handle = lambda pts: np.reshape(inv_V_via_Q(rs, f, np.ravel(pts)), np.shape(pts))
    back = V_k_num(rs, handle, xs)
    assert np.max(np.abs(back - f(xs))) < 1e-8


@pytest.mark.parametrize("gamma", GAMMAS)
def test_dual_inverse_routes(gamma, lines):
    rs = lines[gamma]
    plan = default_line_plan(rs)
    xs = np.array([-1.5, 0.0, 0.8, 2.0])
    f = gaussian()
    a = inv_tV_via_VkP(rs, f, xs, plan)
    b = np.real(dual_inverse_via_transform(rs, f, xs, plan))
    assert np.max(np.abs(a - b)) < 1e-8


def test_local_P_gamma_one(rs_one):
    f = gaussian()
    pf = local_P(rs_one, f)
    dd = f.derivative().derivative()
    xs = np.array([-1.0, 0.2, 1.3])
    assert np.allclose(pf(xs), -dd(xs), atol=1e-14)


def test_local_Q_prefactor_gamma_two(rs_two):
    f = PolyGauss.monomial(0)
    qf = local_Q(rs_two, f)
    # (1/9) T^4 f with the sign (-1)^gamma
    ref = f.dunkl_power(2.0, 4)
    xs = np.array([0.5, 1.1])
    assert np.allclose(qf(xs), ref(xs) / 9.0, atol=1e-12)


def test_local_Q_uses_the_exact_multiplicity():
    f = PolyGauss.monomial(3)
    ref = f.dunkl_power(Fraction(2), 4).scale(operator_prefactor(rank_one(2)).as_fraction())
    assert local_Q(rank_one(2), f) == ref


def test_local_operators_reject_fractional(rs_half, rs_seventhirds):
    with pytest.raises(UnsupportedCaseError):
        local_P(rs_half, gaussian())
    with pytest.raises(UnsupportedCaseError):
        inv_V_via_Q(rs_seventhirds, gaussian(), np.array([0.5]))


# ----------------------------------------------------------------- pairings


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_eta_pairing_matches_inverse(gamma, lines):
    rs = lines[gamma]
    plan = default_line_plan(rs)
    f = PolyGauss.monomial(2)
    for x in (0.0, 0.5, -1.4):
        ref = inv_V_via_P(rs, f, np.array([x]), plan)[0]
        assert eta_pairing(rs, x, f) == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_z_pairing_matches_dual_inverse(gamma, lines):
    rs = lines[gamma]
    plan = default_line_plan(rs)
    f = gaussian()
    for x in (0.0, 0.7, -1.1):
        ref = float(np.real(dual_inverse_via_transform(rs, f, np.array([x]), plan)[0]))
        assert z_pairing(rs, x, f, plan) == pytest.approx(ref, abs=1e-7)


def test_eta_pairing_outside_support_is_zero(rs_one, rs_two):
    bump = standard_bump()
    assert eta_pairing(rs_one, 1.5, bump) == 0.0
    assert eta_pairing(rs_two, -2.0, bump) == 0.0


# ----------------------------------------------------------------- products


def test_product_V_known_values(rs_product):
    # independent axes: V factors, so V(y1^2 y2^0) = x1^2/3 at k1 = 1
    vals = V_k_num_product(rs_product, lambda p: p[:, 0] ** 2, [(1.0, 0.5)])
    assert vals[0] == pytest.approx(1.0 / 3.0, rel=1e-10)
    # and V(y2^2) = x2^2/5 at k2 = 2
    vals = V_k_num_product(rs_product, lambda p: p[:, 1] ** 2, [(0.5, 1.0)])
    assert vals[0] == pytest.approx(1.0 / 5.0, rel=1e-10)


def test_product_V_makes_one_call_and_matches_the_point_loop(rs_product):
    calls = []

    def f(p):
        calls.append(len(p))
        return np.cos(p[:, 0] - 0.3) * np.exp(p[:, 1])

    pts = np.array([[0.3, -1.2], [0.0, 0.7], [1.5, 0.0], [-0.8, 0.4], [0.0, 0.0], [2.0, -0.5], [-1.1, -1.9]])
    vals = V_k_num_product(rs_product, f, pts, n=24)
    assert calls == [7 * 24 * 24]
    # one tensor average per base point
    (t1, w1), (t2, w2) = mu_quadrature(1.0, 24), mu_quadrature(2.0, 24)
    tmat = np.stack([np.repeat(t1, 24), np.tile(t2, 24)], axis=-1)
    weights = np.outer(w1, w2).reshape(-1)
    loop = [weights @ f(xp[None, :] * tmat) for xp in pts]
    np.testing.assert_allclose(vals, loop, rtol=1e-13)


def test_product_dual_matches_axis_factorization(rs_product, rs_one, rs_two):
    # separable input: the dual operator factors across axes
    f2 = lambda p: np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=-1) / 2.0)
    val = tV_k_num_product(rs_product, f2, [(0.4, 0.9)], n=60)[0]
    g = gaussian()
    ref = tV_k_num(rs_one, g, np.array([0.4]), n=60)[0] * tV_k_num(rs_two, g, np.array([0.9]), n=60)[0]
    assert val == pytest.approx(ref, rel=1e-9)


# ----------------------------------------------------------------- properties


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from(LINES),
)
def test_V_bounded_by_sup(x, rs):
    # V averages against a probability measure, so |V f| <= sup |f|
    f = lambda t: np.cos(3.0 * np.asarray(t))
    val = V_k_num(rs, f, np.array([x]))[0]
    assert abs(val) <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=2.0), st.sampled_from(LINES))
def test_V_positive_on_positive_input(x, rs):
    f = lambda t: np.exp(-np.asarray(t) ** 2)
    assert V_k_num(rs, f, np.array([x]))[0] > 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5), st.sampled_from(LINES[1:]))
def test_V_linearity(x, rs):
    f = lambda t: np.asarray(t) ** 2
    g = lambda t: np.cos(np.asarray(t))
    lhs = V_k_num(rs, lambda t: f(t) + 2.0 * g(t), np.array([x]))[0]
    rhs = (
        V_k_num(rs, f, np.array([x]))[0] + 2.0 * V_k_num(rs, g, np.array([x]))[0]
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------- NaN engines


def _return_nan(monkeypatch, name):
    """Make intertwine1d's name return NaN, in every dunklkit module that imported it."""
    original = getattr(intertwine1d, name)

    def nan(rs, f, points, *args, **kwargs):
        # a sequence of functions gets a leading function axis, as the real engines give
        functions = () if callable(f) else (len(f),)
        return np.full(functions + np.shape(points), np.nan)[()]

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("dunklkit") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, nan)


def _failed_on_nan(report, check_id):
    check = {c.id: c for c in report.checks}[check_id]
    return math.isnan(check.residual) and not check.passed


def test_nan_dual_operator_fails_both_translation_paths(monkeypatch):
    _return_nan(monkeypatch, "tV_k_num")
    report = run_suite(SuiteConfig("translation", parse_preset("z2:1"), grid_n=48))
    assert report.status == "fail"
    assert _failed_on_nan(report, "translation-paths-product")
    assert _failed_on_nan(report, "translation-paths-integer")


def test_nan_intertwiner_fails_the_cross_engine_monomials(monkeypatch):
    _return_nan(monkeypatch, "V_k_num")
    report = run_suite(SuiteConfig("cross-engine", parse_preset("z2:1")))
    assert report.status == "fail"
    assert _failed_on_nan(report, "monomials-numeric-vs-exact")


# ----------------------------------------------------------------- one multiplicity convention


def test_default_line_plan_keeps_the_exact_system():
    assert default_line_plan(rank_one(Fraction(7, 3))).rs == rank_one(Fraction(7, 3))


OLD_CONVENTION = {
    "V_k_num": lambda k: V_k_num(k, np.cos, 0.5),
    "tV_k_num": lambda k: tV_k_num(k, gaussian(), 0.5),
    "mu_density": lambda k: mu_density(k, 1.0, 0.5),
    "IntertwiningDensity": lambda k: IntertwiningDensity(k, 1.0),
    "DualDensity": lambda k: DualDensity(k, 0.5)(1.0),
    "dual_via_transform": lambda k: dual_via_transform(k, gaussian(), 0.5),
    "dual_inverse_via_transform": lambda k: dual_inverse_via_transform(k, gaussian(), 0.5),
    "local_P": lambda k: local_P(k, gaussian()),
    "local_Q": lambda k: local_Q(k, gaussian()),
    "inv_V_via_P": lambda k: inv_V_via_P(k, gaussian(), 0.5),
    "inv_tV_via_VkP": lambda k: inv_tV_via_VkP(k, gaussian(), 0.5),
    "inv_V_via_Q": lambda k: inv_V_via_Q(k, gaussian(), 0.5),
    "eta_pairing": lambda k: eta_pairing(k, 0.5, gaussian()),
    "z_pairing": lambda k: z_pairing(k, 0.5, gaussian()),
    "default_line_plan": lambda k: default_line_plan(k),
    "translate_measure": lambda k: translate_measure(k, gaussian(), 0.5, 1.0),
    "translate_spectral_many": lambda k: translate_spectral_many(k, gaussian(), 0.0, [0.0]),
    "translate_spectral": lambda k: translate_spectral(k, gaussian(), 0.0, 0.5),
    "convolve_many": lambda k: convolve_many(k, gaussian(), gaussian(), [0.0]),
    "convolve": lambda k: convolve(k, gaussian(), gaussian(), 0.0),
    "BumpProfile.create": lambda k: BumpProfile.create(k),
    "approx_identity_check": lambda k: approx_identity_check(k, ConcreteDistribution.weighted(gaussian())),
    "distribution_convolve": lambda k: distribution_convolve(
        k, ConcreteDistribution.point_mass(0.0), gaussian(), 0.5
    ),
    "line_gamma": line_gamma,
}


@pytest.mark.parametrize("name", OLD_CONVENTION)
def test_a_float_multiplicity_is_refused_by_name(name):
    with pytest.raises(InvalidArgumentError, match=r"rank_one\(k\)"):
        OLD_CONVENTION[name](1.0)
