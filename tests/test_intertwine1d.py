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
from dunklkit.polyexact import RationalPoly, intertwine
from dunklkit.rootsys import axis_product, rank_one
from dunklkit.suites import SuiteConfig, run_suite

GAMMAS = [0.5, 1.0, 2.0, 7.0 / 3.0]


# ----------------------------------------------------------------- measure


def test_mass_constant_value():
    # Gamma(3/2) / (sqrt(pi) Gamma(1)) = 1/2
    assert mass_constant(1.0) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_mu_quadrature_mass_one(gamma):
    _, w = mu_quadrature(gamma, 64)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-14)


def test_mu_density_support():
    assert mu_density(1.0, 2.0, 2.5) == 0.0
    assert mu_density(1.0, 2.0, -2.5) == 0.0
    assert mu_density(1.0, 2.0, 1.0) > 0.0


def test_mu_density_reflection():
    # the measure at -x is the reflection of the measure at x
    assert mu_density(1.5, -2.0, 0.7) == pytest.approx(mu_density(1.5, 2.0, -0.7), rel=1e-13)


def test_density_degenerate_point():
    with pytest.raises(DegeneratePointError):
        IntertwiningDensity(1.0, 0.0)


def test_V_known_moment():
    # V(y^2)(x) = x^2/3 at gamma = 1
    for x in (0.5, 1.0, 2.0, -1.5):
        val = V_k_num(1.0, lambda t: np.asarray(t) ** 2, np.array([x]))[0]
        assert val == pytest.approx(x * x / 3.0, rel=1e-12)


def test_V_at_zero_is_evaluation():
    vals = V_k_num(2.0, lambda t: np.asarray(t) ** 2 + 1.0, np.array([0.0]))
    assert vals[0] == pytest.approx(1.0, abs=1e-15)


def test_V_gamma_zero_identity():
    xs = np.array([-1.0, 0.3, 2.0])
    vals = V_k_num(0.0, lambda t: np.cos(np.asarray(t)), xs)
    assert np.allclose(vals, np.cos(xs), atol=1e-15)


@pytest.mark.parametrize("gamma", [Fraction(1, 2), 1, 2, Fraction(7, 3)])
def test_V_cross_engine_monomials(gamma):
    rs = rank_one(gamma)
    xs = np.array([-1.7, 0.3, 1.0, 2.5])
    for deg in range(9):
        exact = intertwine(rs, RationalPoly.monomial(1, (deg,))).evaluate_float(xs)
        num = V_k_num(float(gamma), lambda t, d=deg: np.asarray(t) ** d, xs)
        assert np.max(np.abs(num - exact) / np.abs(exact)) < 1e-10


# ----------------------------------------------------------------- dual


def test_dual_density_support():
    d = DualDensity(1.0, 1.5)
    assert d.support == 1.5
    # zero where |x| < |y|, positive beyond
    assert d(1.0) == 0.0
    assert d(2.0) > 0.0
    inner = IntertwiningDensity(1.0, 2.0)
    assert inner.support == (-2.0, 2.0)


def test_dual_pairing_duality(plan_one):
    # <tV f, g> (plain) = <f, V g> (weighted) on rapidly decreasing inputs
    gam = 1.0
    f = gaussian()
    g = PolyGauss.monomial(2)
    plain = default_line_plan(gam).space_plain
    weighted = default_line_plan(gam).space
    tv = tV_k_num(gam, f, plain.nodes, n=100)
    lhs = float(np.sum(plain.weights * tv * g(plain.nodes)))
    vg = V_k_num(gam, g, weighted.nodes)
    rhs = float(np.sum(weighted.weights * f(weighted.nodes) * vg))
    assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_dual_matches_transform_route(gamma):
    f = gaussian()
    ys = np.array([-1.8, -0.4, 0.0, 0.7, 2.1])
    direct = tV_k_num(gamma, f, ys, n=120)
    oracle = np.real(dual_via_transform(gamma, f, ys))
    assert np.max(np.abs(direct - oracle)) < 1e-10


def test_dual_gamma_zero_identity():
    ys = np.array([-1.0, 0.5])
    f = gaussian()
    assert np.allclose(tV_k_num(0.0, f, ys), f(ys), atol=1e-15)


def test_dual_parity():
    f = PolyGauss.monomial(1)
    ys = np.array([0.8])
    left = tV_k_num(1.0, f, ys)[0]
    right = tV_k_num(1.0, f, -ys)[0]
    assert left == pytest.approx(-right, rel=1e-12)


def test_sinhc_is_finite_at_and_near_zero():
    s = np.array([0.0, 1e-9, 1.0])
    out = intertwine1d._sinhc(s)
    assert np.all(np.isfinite(out))
    assert out[0] == 1.0
    assert out[1] == 1.0 + s[1] ** 2 / 6.0
    assert out[2] == pytest.approx(math.sinh(1.0), rel=1e-15)


def test_dual_of_bump_vanishes_outside():
    bump = standard_bump()
    ys = np.array([1.05, 1.5, 3.0, -1.2])
    assert np.max(np.abs(tV_k_num(2.0, bump, ys))) == 0.0


# ----------------------------------------------------------------- inverses


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_inverse_paths_agree(gamma):
    plan = default_line_plan(gamma)
    xs = np.array([-1.4, 0.0, 0.6, 1.9])
    for n in range(4):
        f = PolyGauss.monomial(n)
        p_route = inv_V_via_P(gamma, f, xs, plan)
        q_route = inv_V_via_Q(gamma, f, xs)
        assert np.max(np.abs(p_route - q_route)) < 1e-8


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_forward_roundtrip(gamma):
    xs = np.array([-1.2, 0.4, 1.6])
    f = PolyGauss.monomial(2)
    handle = lambda pts: np.reshape(inv_V_via_Q(gamma, f, np.ravel(pts)), np.shape(pts))
    back = V_k_num(gamma, handle, xs)
    assert np.max(np.abs(back - f(xs))) < 1e-8


@pytest.mark.parametrize("gamma", GAMMAS)
def test_dual_inverse_routes(gamma):
    plan = default_line_plan(gamma)
    xs = np.array([-1.5, 0.0, 0.8, 2.0])
    f = gaussian()
    a = inv_tV_via_VkP(gamma, f, xs, plan)
    b = np.real(dual_inverse_via_transform(gamma, f, xs, plan))
    assert np.max(np.abs(a - b)) < 1e-8


def test_local_P_gamma_one():
    f = gaussian()
    pf = local_P(1.0, f)
    dd = f.derivative().derivative()
    xs = np.array([-1.0, 0.2, 1.3])
    assert np.allclose(pf(xs), -dd(xs), atol=1e-14)


def test_local_Q_prefactor_gamma_two():
    f = PolyGauss.monomial(0)
    qf = local_Q(2.0, f)
    # (1/9) T^4 f with the sign (-1)^gamma
    ref = f.dunkl_power(2.0, 4)
    xs = np.array([0.5, 1.1])
    assert np.allclose(qf(xs), ref(xs) / 9.0, atol=1e-12)


def test_local_operators_reject_fractional():
    with pytest.raises(UnsupportedCaseError):
        local_P(0.5, gaussian())
    with pytest.raises(UnsupportedCaseError):
        inv_V_via_Q(7.0 / 3.0, gaussian(), np.array([0.5]))


# ----------------------------------------------------------------- pairings


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_eta_pairing_matches_inverse(gamma):
    plan = default_line_plan(gamma)
    f = PolyGauss.monomial(2)
    for x in (0.0, 0.5, -1.4):
        ref = inv_V_via_P(gamma, f, np.array([x]), plan)[0]
        assert eta_pairing(gamma, x, f) == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_z_pairing_matches_dual_inverse(gamma):
    plan = default_line_plan(gamma)
    f = gaussian()
    for x in (0.0, 0.7, -1.1):
        ref = float(np.real(dual_inverse_via_transform(gamma, f, np.array([x]), plan)[0]))
        assert z_pairing(gamma, x, f, plan) == pytest.approx(ref, abs=1e-7)


def test_eta_pairing_outside_support_is_zero():
    bump = standard_bump()
    assert eta_pairing(1.0, 1.5, bump) == 0.0
    assert eta_pairing(2.0, -2.0, bump) == 0.0


# ----------------------------------------------------------------- products


def test_product_V_known_values(rs_product):
    # independent axes: V factors, so V(y1^2 y2^0) = x1^2/3 at k1 = 1
    vals = V_k_num_product(rs_product, lambda p: p[:, 0] ** 2, [(1.0, 0.5)])
    assert vals[0] == pytest.approx(1.0 / 3.0, rel=1e-10)
    # and V(y2^2) = x2^2/5 at k2 = 2
    vals = V_k_num_product(rs_product, lambda p: p[:, 1] ** 2, [(0.5, 1.0)])
    assert vals[0] == pytest.approx(1.0 / 5.0, rel=1e-10)


def test_product_dual_matches_axis_factorization(rs_product):
    # separable input: the dual operator factors across axes
    f2 = lambda p: np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=-1) / 2.0)
    val = tV_k_num_product(rs_product, f2, [(0.4, 0.9)], n=60)[0]
    g = gaussian()
    ref = tV_k_num(1.0, g, np.array([0.4]), n=60)[0] * tV_k_num(2.0, g, np.array([0.9]), n=60)[0]
    assert val == pytest.approx(ref, rel=1e-9)


# ----------------------------------------------------------------- properties


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_V_bounded_by_sup(x, gamma):
    # V averages against a probability measure, so |V f| <= sup |f|
    f = lambda t: np.cos(3.0 * np.asarray(t))
    val = V_k_num(gamma, f, np.array([x]))[0]
    assert abs(val) <= 1.0 + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=2.0), st.sampled_from([0.5, 1.0, 2.0]))
def test_V_positive_on_positive_input(x, gamma):
    f = lambda t: np.exp(-np.asarray(t) ** 2)
    assert V_k_num(gamma, f, np.array([x]))[0] > 0.0


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5), st.sampled_from([1.0, 2.0]))
def test_V_linearity(x, gamma):
    f = lambda t: np.asarray(t) ** 2
    g = lambda t: np.cos(np.asarray(t))
    lhs = V_k_num(gamma, lambda t: f(t) + 2.0 * g(t), np.array([x]))[0]
    rhs = (
        V_k_num(gamma, f, np.array([x]))[0] + 2.0 * V_k_num(gamma, g, np.array([x]))[0]
    )
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ----------------------------------------------------------------- NaN engines


def _return_nan(monkeypatch, name):
    """Make intertwine1d's name return NaN, in every dunklkit module that imported it."""
    original = getattr(intertwine1d, name)

    def nan(gamma, f, points, *args, **kwargs):
        return np.full(np.shape(points), np.nan)[()]

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
