import math
import re
import sys
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit import intertwine1d
from dunklkit.cli import parse_preset
from dunklkit.errors import (
    AccuracyError,
    DegeneratePointError,
    InvalidArgumentError,
    UnsupportedCaseError,
)
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
    tV_k_exact,
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
from dunklkit.rootsys import RootSystem, _points, axis_product, rank_one
from dunklkit.suites import SuiteConfig, _line_plan, run_suite
from dunklkit.transform import (
    DecayClass,
    classical_fourier_many,
    dunkl_roundtrip_many,
    dunkl_transform_many,
    line_gamma,
    make_plan,
    multiplier_P_many,
    p_multiplier_constant,
    sampled,
    weighted_grid,
)

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


def _line_V_reference(rs, f, xs, n=64):
    """V on the line by its own rule: f on every x t_i, then f(0) by a second call."""
    g = line_gamma(rs)
    if g == 0:
        return f(xs)
    t, w = mu_quadrature(g, n)
    out = f(np.multiply.outer(xs, t).reshape(-1)).reshape(len(xs), n) @ w
    out[xs == 0] = f(np.zeros(int(np.sum(xs == 0))))
    return out


@pytest.mark.parametrize("gamma", [0, Fraction(1, 2), 1, Fraction(7, 3)])
def test_V_on_a_line_equals_the_line_rule(gamma):
    rs = rank_one(gamma)
    xs = np.array([-2.1, -0.4, 0.0, 0.9, 3.0])
    for f in (np.cos, lambda t: np.exp(t) * t**2 - t):
        np.testing.assert_array_equal(V_k_num(rs, f, xs), _line_V_reference(rs, f, xs))
        assert V_k_num(rs, f, 0.9) == _line_V_reference(rs, f, np.array([0.9]))[0]


def test_V_calls_f_once_and_reads_f_at_zero_from_that_call(rs_seventhirds):
    calls = []

    def f(t):
        calls.append(np.shape(t))
        return np.cos(t) + t**3

    vals = V_k_num(rs_seventhirds, f, np.array([-0.8, 0.0, 1.3]))
    assert calls == [(3 * 64,)]
    assert vals[1] == 1.0


def test_V_gives_a_float_for_one_product_point(rs_product):
    f = lambda p: np.cos(p[:, 0]) * np.exp(p[:, 1])
    val = V_k_num(rs_product, f, (0.4, -0.7))
    assert type(val) is float
    assert val == V_k_num(rs_product, f, [(0.4, -0.7)])[0]


@pytest.mark.parametrize("points", [np.zeros(4), np.zeros((3, 3)), 0.5])
def test_V_refuses_product_points_off_the_last_axis(rs_product, points):
    with pytest.raises(InvalidArgumentError):
        V_k_num(rs_product, lambda p: p[:, 0], points)


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


def test_a_point_just_inside_the_cutoff_gives_a_finite_value(rs_one, rs_product):
    # there the substitution's range S = arccosh(14/|y|) is near 0, and so is every s/2 of its rule
    inside = np.nextafter(14.0, 0.0)
    f = lambda p: np.exp(-np.sum(p**2, axis=-1) / 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line = tV_k_num(rs_one, PolyGauss.create([0, 0, 0, 0, 1]), np.array([inside, -inside, 13.99]))
        product = tV_k_num(rs_product, f, [(0.3, inside), (inside, -inside)])
    assert np.all(np.isfinite(line)) and np.all(np.isfinite(product))
    assert np.max(np.abs(line)) < 1e-30 and np.max(np.abs(product)) < 1e-30


def test_dual_of_bump_vanishes_outside(rs_two):
    bump = standard_bump()
    ys = np.array([1.05, 1.5, 3.0, -1.2])
    assert np.max(np.abs(tV_k_num(rs_two, bump, ys))) == 0.0


@pytest.mark.parametrize("gamma", [1, 2, 4])
def test_dual_of_a_bump_stops_at_its_declared_support(gamma):
    # the reference is a rule 16 times finer, cut at 1 by a SampledFunction declared compact
    rs, bump = rank_one(gamma), standard_bump()
    ys = np.array([0.0, 0.35, 0.7, 0.9])
    ref = tV_k_num(rs, sampled(bump, DecayClass.compact(1.0)), ys, n=1920)
    assert np.max(np.abs(tV_k_num(rs, bump, ys) - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_dual_of_a_sequence_matches_the_per_function_loop(gamma, lines):
    # y = 0, points at and beyond both cutoffs (14 and the bump's 1), and repeats
    rs = lines[gamma]
    fs = [gaussian(), PolyGauss.monomial(1), standard_bump(), PolyGauss.monomial(3)]
    ys = np.array([0.7, -1.3, 0.0, 14.0, 0.7, 0.5, -15.0, -1.3, 0.0, 2.2, 0.7])
    together = tV_k_num(rs, fs, ys)
    assert together.shape == (len(fs), len(ys))
    np.testing.assert_array_equal(together, [tV_k_num(rs, f, ys) for f in fs])
    np.testing.assert_array_equal(tV_k_num(rs, fs, 0.7), [tV_k_num(rs, f, 0.7) for f in fs])
    assert type(tV_k_num(rs, fs[0], 0.7)) is float


@pytest.mark.parametrize("preset", ["z2:1", "z2xz2:1,2"])
@pytest.mark.parametrize("engine", ["V_k_num", "tV_k_num"])
def test_a_callable_with_rows_gives_the_values_of_the_list_of_its_rows(engine, preset, monkeypatch):
    rs = parse_preset(preset)
    call = {"V_k_num": lambda f, y: V_k_num(rs, f, y, n=16), "tV_k_num": lambda f, y: tV_k_num(rs, f, y, n=16)}[engine]
    flat = lambda p: np.reshape(p, (len(p), -1))
    gauss = lambda p: np.exp(-0.5 * np.sum(flat(p) ** 2, axis=-1))
    fs = [gauss, lambda p: flat(p)[:, 0] * gauss(p), lambda p: np.cos(flat(p)[:, -1]) * gauss(p)]
    rows = lambda p: np.stack([f(p) for f in fs])
    # a NaN point, points past the cutoff 14 and a repeat; 64 nodes a batch split every call of tV_k_num
    line = np.array([0.4, np.nan, -1.1, 20.0, 0.0, -15.0, 2.2, 0.4])
    ys = line if rs.dimension == 1 else np.stack([line, np.roll(line, 3)], axis=-1)
    monkeypatch.setattr(intertwine1d, "_NODE_BUDGET", 64)
    together = call(rows, ys)
    assert together.shape == (3, len(line))
    assert together.tobytes() == call(fs, ys).tobytes()
    # axes in front of the rows lead too: values (2, 3, m) give (2, 3) + the point shape
    np.testing.assert_array_equal(call(lambda p: np.stack([rows(p), 2.0 * rows(p)]), ys[:5]),
                                  [together[:, :5], 2.0 * together[:, :5]])
    # with no live point for tV_k_num (NaN or past its cutoff), the leading axes still lead
    dead = ys[[1, 3, 5]]
    assert call(rows, dead).shape == (3, 3)
    assert call(rows, dead).tobytes() == call(fs, dead).tobytes()


def test_dual_calls_each_function_on_2n_nodes_per_point_and_a_row_is_its_one_point_call(rs_one):
    n, distinct = 40, np.array([-1.3, 0.4, 0.9, 2.2])
    sizes = []

    def f(t):
        sizes.append(np.size(t))
        return gaussian()(t)

    h = sampled(f, DecayClass.compact(8.0))
    for k in (1, 5):
        ys = np.tile(distinct, k)
        sizes.clear()
        out = tV_k_num(rs_one, h, ys, n=n)
        assert sum(sizes) == 2 * n * len(ys)
        np.testing.assert_array_equal(out, [tV_k_num(rs_one, h, y, n=n) for y in ys])


@pytest.fixture
def count_rules(monkeypatch):
    """Empty the kept dual rules and wrap their builder; returns the number
    of coordinates of each rule built."""
    intertwine1d._kept_dual_rule.cache_clear()
    original, built = intertwine1d._dual_rule, []

    def counted(g, u, cutoff, n):
        built.append(u.size)
        return original(g, u, cutoff, n)

    monkeypatch.setattr(intertwine1d, "_dual_rule", counted)
    yield built
    intertwine1d._kept_dual_rule.cache_clear()


def test_a_first_inversion_run_builds_each_dual_rule_once(count_rules):
    # its tV_k_num calls on the plain space grid share 6 point sets, which
    # took 31 builds when no rule was kept; a repeated run builds none
    config = SuiteConfig("inversion", parse_preset("z2:7/3"))
    first = run_suite(config)
    assert len(count_rules) == 6
    count_rules.clear()
    second = run_suite(config)
    assert count_rules == []
    assert second.body_bytes() == first.body_bytes()


def test_a_repeated_dual_call_builds_no_rule_and_gives_the_values_of_a_fresh_one(count_rules, rs_seventhirds,
                                                                                  rs_product):
    # a bump and a Gaussian have two cutoffs, so a line call builds two rules;
    # a product point set builds one per axis
    for rs, fs, ys in [(rs_seventhirds, [gaussian(), standard_bump()], np.array([-1.3, 0.0, 0.4, 0.9, 2.2])),
                       (rs_product, lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)), [(0.3, -1.1), (0.0, 0.5)])]:
        first = tV_k_num(rs, fs, ys, n=40)
        built = len(count_rules)
        again = tV_k_num(rs, fs, ys, n=40)
        assert len(count_rules) == built == 2
        intertwine1d._kept_dual_rule.cache_clear()
        fresh = tV_k_num(rs, fs, ys, n=40)
        assert len(count_rules) == 2 * built
        assert again.tobytes() == fresh.tobytes() == first.tobytes()
        count_rules.clear()


def test_kept_dual_rules_are_read_only(count_rules, rs_one):
    ys = np.array([-1.3, 0.0, 0.9])
    tV_k_num(rs_one, gaussian(), ys, n=40)
    nodes, weights = intertwine1d._kept_dual_rule(1.0, ys.tobytes(), 14.0, 40)  # the rule that call kept
    assert len(count_rules) == 1
    assert nodes.shape == weights.shape == (3, 80)
    for part in (nodes, weights):
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0, 0] = 0.0


def test_at_most_16_dual_rules_are_kept(count_rules, rs_one):
    sets = [np.array([0.1 * k, 1.0]) for k in range(17)]
    for ys in sets:
        tV_k_num(rs_one, gaussian(), ys, n=20)
    assert len(count_rules) == 17
    assert intertwine1d._kept_dual_rule.cache_info().currsize == 16
    # the most recent point set is kept; the oldest was dropped and is built again
    tV_k_num(rs_one, gaussian(), sets[-1], n=20)
    assert len(count_rules) == 17
    tV_k_num(rs_one, gaussian(), sets[0], n=20)
    assert len(count_rules) == 18


FUNCTION_ROUTES = {
    "V_k_num": lambda f: V_k_num(rank_one(1), f, 0.5),
    "tV_k_num": lambda f: tV_k_num(rank_one(1), f, 0.5),
    "inv_V_via_P": lambda f: inv_V_via_P(rank_one(1), f, 0.5),
    "inv_tV_via_VkP": lambda f: inv_tV_via_VkP(rank_one(1), f, 0.5),
    "inv_V_via_Q": lambda f: inv_V_via_Q(rank_one(1), f, 0.5),
    "translate_measure": lambda f: translate_measure(rank_one(1), f, 0.5, 0.3),
    "dunkl_transform_many": lambda f: dunkl_transform_many(rank_one(1), f, 0.5, default_line_plan(rank_one(1))),
    "classical_fourier_many": lambda f: classical_fourier_many(f, 0.5, default_line_plan(rank_one(1))),
    "multiplier_P_many": lambda f: multiplier_P_many(rank_one(1), f, 0.5, default_line_plan(rank_one(1))),
    "dunkl_roundtrip_many": lambda f: dunkl_roundtrip_many(rank_one(1), f, 0.5, default_line_plan(rank_one(1))),
    "dual_via_transform": lambda f: dual_via_transform(rank_one(1), f, 0.5),
    "dual_inverse_via_transform": lambda f: dual_inverse_via_transform(rank_one(1), f, 0.5),
    "translate_spectral_many": lambda f: translate_spectral_many(rank_one(1), f, 0.5, 0.3),
    "convolve_many": lambda f: convolve_many(rank_one(1), f, gaussian(), 0.5),
}


@pytest.mark.parametrize("f", [[], [1, 2], 5], ids=["empty", "numbers", "number"])
@pytest.mark.parametrize("route", FUNCTION_ROUTES)
def test_a_route_takes_one_function_or_a_non_empty_list_or_tuple_of_them(route, f):
    with pytest.raises(InvalidArgumentError, match="non-empty list or tuple of functions, got " + re.escape(repr(f))):
        FUNCTION_ROUTES[route](f)


def _dual_density_at_infinity(g):
    # c |x|^(2 gamma - 1) as |x| -> inf
    return 0.0 if g < 0.5 else mass_constant(g) if g == 0.5 else np.inf


@pytest.mark.parametrize("density, at_infinity", [
    (lambda rs, y: tV_k_num(rs, gaussian(), y), lambda g: 0.0),
    (lambda rs, y: mu_density(rs, 1.0, y), lambda g: 0.0),
    (lambda rs, y: DualDensity(rs, 0.3)(y), _dual_density_at_infinity),
], ids=["tV_k_num", "mu_density", "DualDensity"])
def test_a_nan_point_gives_nan_and_an_infinite_one_its_limit(density, at_infinity):
    for g in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, 2):
        rs = rank_one(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = density(rs, np.array([np.nan, 0.5, np.inf, -np.inf]))
            assert np.isnan(density(rs, np.nan))
        assert np.isnan(out[0]) and 0.0 < out[1] < np.inf
        np.testing.assert_array_equal(out[2:], at_infinity(float(g)))


@pytest.mark.parametrize("f", [gaussian(), PolyGauss.monomial(3), standard_bump()], ids=["gaussian", "x^3", "bump"])
def test_q_route_gives_nan_at_a_nan_point_and_zero_at_an_infinite_one(f, rs_one, rs_two):
    # as the dual quadrature does; a PolyGauss is 0 at +-inf, not inf * 0
    for rs in (rs_one, rs_two):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = inv_V_via_Q(rs, f, np.array([np.nan, 0.5, np.inf, -np.inf]))
            assert f(np.inf) == 0.0
        assert np.isnan(out[0]) and np.isfinite(out[1])
        np.testing.assert_array_equal(out[2:], 0.0)


def test_a_nan_function_leaves_the_others_of_a_sequence_finite(rs_one):
    ys = np.array([-1.3, 0.0, 0.4, 0.4, 2.2])
    # NaN inside, 0 at the cutoff x_max = 14, so the tail check lets it through
    nan = lambda t: np.where(np.abs(t) < 10.0, np.nan, 0.0)
    out = tV_k_num(rs_one, [nan, gaussian()], ys)
    assert np.all(np.isnan(out[0]))
    np.testing.assert_array_equal(out[1], tV_k_num(rs_one, gaussian(), ys))


def test_a_function_not_finite_at_the_cutoff_is_refused(rs_one):
    ys = [0.5, 0.0]
    for bad in (np.nan, np.inf):
        with pytest.raises(AccuracyError, match="decays too slowly"):
            tV_k_num(rs_one, lambda t: np.full(np.shape(t), bad), ys)
        with pytest.raises(AccuracyError, match="decays too slowly"):
            tV_k_num(rs_one, [gaussian(), lambda t: np.full(np.shape(t), bad)], ys)


# ----------------------------------------------------------------- the closed-form dual

EXACT_GAMMAS = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)]


def _gauss_moment(n):
    """int x^n e^(-x^2/2) dx / sqrt(2 pi) = (n - 1)!! for even n."""
    return Fraction(math.prod(range(n - 1, 0, -2))) if n % 2 == 0 else Fraction(0)


def _weighted_moment(g, n):
    """int x^n |x|^(2g) e^(-x^2/2) dx = 2^(g + (n+1)/2) Gamma(g + (n+1)/2), over
    sqrt(2 pi) c_g = 2^(g + 1/2) Gamma(g + 1/2): 2^(n/2) (g + 1/2)_(n/2) for even n."""
    if n % 2:
        return Fraction(0)
    return 2 ** (n // 2) * math.prod((g + Fraction(1, 2) + i for i in range(n // 2)), start=Fraction(1))


def _exact_dual_values(rs, f, ys):
    c, r = tV_k_exact(rs, f)
    return c.as_float() * r(ys)


@pytest.mark.parametrize("gamma", [Fraction(0), *EXACT_GAMMAS, Fraction(10)])
@pytest.mark.parametrize("coeffs", [[1], [0, 1], [2, -1, 3], [1, 0, 0, -2], [Fraction(1, 3), 1, 0, 2, -1, 5],
                                    [1, -2, 0, Fraction(1, 5), 3, 0, -1, 2, Fraction(7, 2)]])
def test_exact_dual_satisfies_the_defining_identity(gamma, coeffs):
    # int V_k p . q e^(-x^2/2) |x|^(2 gamma) dx = int p tV_k(q e^(-x^2/2)) dx for monomials p,
    # both sides over sqrt(2 pi) c_gamma, in Fractions, with V_k from the Euler recursion of
    # polyexact.  tV_k_exact builds r from tV_k T = d/dx tV_k instead; the pairings up to
    # degree deg q pin r, and the ones above it are checks
    rs = rank_one(gamma)
    q = PolyGauss.create(coeffs)
    _, r = tV_k_exact(rs, q)
    for m in range(2 * q.degree + 2):
        vp = intertwine(rs, RationalPoly.monomial(1, (m,)))
        lhs = sum(c * qi * _weighted_moment(gamma, e[0] + i)
                  for e, c in vp.terms.items() for i, qi in enumerate(q.coeffs))
        rhs = sum(ri * _gauss_moment(m + i) for i, ri in enumerate(r.coeffs))
        assert lhs == rhs


@pytest.mark.parametrize("gamma, c", [(1, 1), (2, 3)])
def test_exact_dual_of_the_gaussian_and_of_x_squared_times_it(gamma, c):
    rs = rank_one(gamma)
    const, r = tV_k_exact(rs, gaussian())
    assert (const.as_fraction(), r) == (c, gaussian())
    const, r = tV_k_exact(rs, PolyGauss.monomial(2))
    assert (const.as_fraction(), r) == (c, PolyGauss.create([2 * gamma, 0, 1]))


def test_exact_dual_constant_at_a_fractional_multiplicity():
    const, _ = tV_k_exact(rank_one(Fraction(7, 3)), gaussian())
    assert not const.is_rational
    assert const.as_float() == pytest.approx(2 ** (7 / 3) * math.gamma(17 / 6) / math.sqrt(math.pi), rel=1e-15)


def test_exact_dual_refuses_other_families(rs_one):
    with pytest.raises(UnsupportedCaseError):
        tV_k_exact(rs_one, standard_bump())


@pytest.mark.parametrize("call", [
    lambda rs: weighted_grid(rs),
    lambda rs: tV_k_num(rs, gaussian(), 0.5),
    lambda rs: tV_k_exact(rs, gaussian()),
    lambda rs: local_P(rs, gaussian()),
    lambda rs: local_Q(rs, gaussian()),
], ids=["weighted_grid", "tV_k_num", "tV_k_exact", "local_P", "local_Q"])
def test_a_scaled_root_is_refused_where_the_weight_constant_enters(call):
    # a root of length 2 scales the weight by 4^k, which these leave out
    with pytest.raises(UnsupportedCaseError, match=r"roots of length 2 .* rescale each root to length 1"):
        call(RootSystem.create(1, [[2]], [1]))


@pytest.mark.parametrize("gamma", EXACT_GAMMAS)
def test_dual_quadrature_matches_the_exact_dual(gamma):
    rs = rank_one(gamma)
    ys = np.linspace(-4.0, 4.0, 41)
    for degree in range(10):
        f = PolyGauss.monomial(degree)
        ref = _exact_dual_values(rs, f, ys)
        assert np.max(np.abs(tV_k_num(rs, f, ys) - ref)) <= 1e-13 * np.max(np.abs(ref))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=1, max_size=7),
    st.sampled_from(EXACT_GAMMAS),
)
def test_dual_quadrature_matches_the_exact_dual_on_random_polygauss(coeffs, gamma):
    rs = rank_one(gamma)
    ys = np.linspace(-4.0, 4.0, 41)
    f = PolyGauss.create(coeffs)
    # the bound scales with the monomial images, since the coefficients may cancel
    scale = sum(abs(float(c)) * np.abs(_exact_dual_values(rs, PolyGauss.monomial(i), ys))
                for i, c in enumerate(f.coeffs))
    gap = np.abs(tV_k_num(rs, f, ys) - _exact_dual_values(rs, f, ys))
    assert np.max(gap) <= 1e-13 * np.max(scale)


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


@pytest.mark.parametrize("gamma", [0.5, 1.0, 7.0 / 3.0])
def test_multiplier_inverses_on_a_sequence_match_the_per_function_calls(gamma, lines, monkeypatch):
    rs = lines[gamma]
    plan = default_line_plan(rs, 48)
    xs = np.array([-1.4, 0.0, 0.6, 1.9])
    # the bump's declared support is its own cutoff, so the duals fall in two cutoff groups
    fs = [PolyGauss.monomial(m) for m in range(3)] + [gaussian(), standard_bump()]
    calls = []
    tV = intertwine1d.tV_k_num
    monkeypatch.setattr(intertwine1d, "tV_k_num", lambda *a, **k: calls.append(a) or tV(*a, **k))
    together = inv_V_via_P(rs, fs, xs, plan)
    assert len(calls) == 1  # one shared dual rule for the whole sequence
    monkeypatch.undo()
    # Both routes take every function through one multiplier contraction, and BLAS sums a
    # matrix and a vector product in different orders.  The plain transform of what the
    # multiplier takes, g (the dual tV f in inv_V_via_P, f itself in inv_tV_via_VkP), then
    # rounds differently at each frequency, by about eps sum_x |w_x g(x)| on the plain space
    # grid, and the inverse sums that against the frequency weights w_xi, which hold the
    # multiplier's weight |xi|^(2 gamma), times c / (2 pi), c its constant; inv_tV_via_VkP's
    # average over a probability measure does not grow it.  So a row may differ from its
    # function's call by eps c / (2 pi) sum |w_xi| sum |w_x g|: the gaps measured at gamma 1/2,
    # 1, 2 and 7/3 on grids 48, 96 and 160 read 0.002 to 0.056 of it in inv_V_via_P and 0.004
    # to 0.15 in inv_tV_via_VkP.  At gamma 7/3 here they are 1.1e-13 and 8.3e-15 of max |single|.
    scale = np.finfo(float).eps * p_multiplier_constant(rs) / (2.0 * math.pi) * np.sum(np.abs(plan.freq.weights))
    nodes = plan.space_plain.nodes
    for inverse, out, taken in ((inv_V_via_P, together, tV_k_num(rs, fs, nodes)),
                                (inv_tV_via_VkP, inv_tV_via_VkP(rs, fs, xs, plan), [f(nodes) for f in fs])):
        assert out.shape == (len(fs), xs.size)
        one = inverse(rs, fs, 0.6, plan)
        assert one.shape == (len(fs),)
        for f, row, value, g in zip(fs, out, one, taken):
            single, at = inverse(rs, f, xs, plan), inverse(rs, f, 0.6, plan)
            tol = scale * np.sum(np.abs(plan.space_plain.weights * g))
            assert np.max(np.abs(np.append(row, value) - np.append(single, at))) <= tol


def test_multiplier_inverses_at_gamma_zero_return_each_function():
    rs = rank_one(0)
    fs = [gaussian(), PolyGauss.monomial(1)]
    xs = np.array([-1.0, 0.0, 0.5])
    for inverse in (inv_V_via_P, inv_tV_via_VkP):
        assert inverse(rs, fs, xs).tolist() == [f(xs).tolist() for f in fs]
        assert inverse(rs, fs[1], 0.5) == fs[1](0.5)


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
    ref = f.dunkl_power(rs_two, 4)
    xs = np.array([0.5, 1.1])
    assert np.allclose(qf(xs), ref(xs) / 9.0, atol=1e-12)


def test_local_Q_uses_the_exact_multiplicity():
    f = PolyGauss.monomial(3)
    ref = f.dunkl_power(rank_one(2), 4).scale(operator_prefactor(rank_one(2)).as_fraction())
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


def test_product_dual_makes_one_call_per_batch_and_matches_the_nested_loop(rs_product):
    calls = []

    def f(p):
        calls.append(len(p))
        return np.exp(-np.sum(p**2, axis=-1) / 2.0) * (1.0 + 0.3 * p[:, 0])

    pts = [(0.4, 0.9), (-1.1, 0.0), (0.0, -0.5), (0.0, 0.0), (0.4, 0.9)]

    def loop(y1, y2):
        # the dual of the second axis at y2, one x1 at a time, under the dual of the first
        inner = lambda x1s: np.array([
            tV_k_num(rank_one(2), lambda x2s: f(np.stack([np.full_like(x2s, x1), x2s], axis=-1)), y2, n=30)
            for x1 in np.atleast_1d(x1s)
        ])
        return tV_k_num(rank_one(1), inner, y1, n=30)

    ref = [loop(*p) for p in pts]
    calls.clear()
    np.testing.assert_allclose(tV_k_num_product(rs_product, f, pts, n=30), ref, rtol=1e-13)
    # the tail probe of the 8 points of {-14, 0, 14}^2 on its edge, then every node of the 4 points
    # that fit in the node budget, then of the fifth, a repeat of the first
    assert calls == [8, 4 * 60 * 60, 60 * 60]


@pytest.mark.parametrize("ks", [(1, 2), (Fraction(1, 2), Fraction(7, 3))], ids=["1,2", "1/2,7/3"])
def test_product_dual_matches_the_exact_dual_axis_by_axis(ks):
    # separable input p1(x1) p2(x2) e^(-|x|^2/2): the dual is the product of the line duals
    rs = axis_product(*ks)
    y1, y2 = np.meshgrid(np.linspace(-3.0, 3.0, 5), np.array([-2.2, 0.0, 0.6, 3.1]), indexing="ij")
    ys = np.stack([y1, y2], axis=-1)
    for c1, c2 in [([1], [1]), ([0, 1], [2, -1, 3]), ([1, 0, -2], [0, 0, 0, 1])]:
        p1, p2 = PolyGauss.create(c1), PolyGauss.create(c2)
        ref = _exact_dual_values(rank_one(ks[0]), p1, y1) * _exact_dual_values(rank_one(ks[1]), p2, y2)
        f = lambda p: p1(p[:, 0]) * p2(p[:, 1])
        out = tV_k_num(rs, f, ys)
        assert out.shape == y1.shape
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("axis", [0, 1])
def test_product_dual_refuses_a_function_decaying_along_one_axis_only(axis, rs_product):
    f = lambda p: np.exp(-p[:, axis] ** 2)
    with pytest.raises(AccuracyError, match="decays too slowly"):
        tV_k_num_product(rs_product, f, [(0.3, 0.4)])


def test_product_dual_gives_nan_at_a_nan_row_and_zero_beyond_the_cutoff(rs_product):
    f = lambda p: np.exp(-np.sum(p**2, axis=-1) / 2.0)
    pts = [(np.nan, 0.5), (0.3, np.nan), (15.0, 0.2), (0.2, -14.0), (0.2, np.inf), (-np.inf, 0.0), (0.3, 0.4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = tV_k_num(rs_product, f, pts)
    assert np.all(np.isnan(out[:2]))
    np.testing.assert_array_equal(out[2:6], 0.0)
    ref = tV_k_num(rank_one(1), gaussian(), 0.3) * tV_k_num(rank_one(2), gaussian(), 0.4)
    assert out[6] == pytest.approx(ref, rel=1e-13)


def test_product_dual_keeps_a_coordinate_of_multiplicity_zero():
    # axis_product(0, 1) is the identity in x1 and the line dual in x2
    g1 = PolyGauss.create([1, 2])
    f = lambda p: g1(p[:, 0]) * gaussian()(p[:, 1])
    pts = np.array([(0.7, 0.3), (-1.2, 0.0), (0.0, -2.0), (0.7, -2.0)])
    out = tV_k_num(axis_product(0, 1), f, pts)
    np.testing.assert_allclose(out, g1(pts[:, 0]) * tV_k_num(rank_one(1), gaussian(), pts[:, 1]), rtol=1e-14)
    # with every multiplicity 0 the dual is f itself, called once on the points
    np.testing.assert_array_equal(tV_k_num(axis_product(0, 0), f, pts), f(pts))


def test_product_dual_on_three_axes():
    f = lambda p: np.exp(-np.sum(p**2, axis=-1) / 2.0)
    y = np.array([0.4, -0.9, 0.0])
    val = tV_k_num(axis_product(1, 1, 1), f, y, n=12)
    assert type(val) is float
    ref = np.prod(tV_k_num(rank_one(1), gaussian(), y, n=12))
    assert val == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("budget, batches", [(1000, [800, 800, 800, 400]), (100, [400] * 7)])
def test_product_dual_batches_within_the_node_budget(budget, batches, rs_product, monkeypatch):
    # 20 nodes per axis, 400 per point: two points a batch, or one when a point alone exceeds the budget
    sizes = []

    def f(p):
        sizes.append(len(p))
        return np.exp(-np.sum(p**2, axis=-1) / 2.0) * np.cos(p[:, 0] - p[:, 1])

    pts = np.array([(0.4, 0.9), (-1.1, 0.0), (0.0, -0.5), (0.0, 0.0), (2.0, 1.5), (-0.3, 0.3), (1.0, -1.0)])
    each = [tV_k_num(rs_product, f, p, n=10) for p in pts]
    monkeypatch.setattr(intertwine1d, "_NODE_BUDGET", budget)
    sizes.clear()
    np.testing.assert_allclose(tV_k_num(rs_product, f, pts, n=10), each, rtol=1e-14)
    assert sizes == [8] + batches


def test_product_dual_refuses_points_off_the_last_axis(rs_product):
    f = lambda p: np.exp(-np.sum(p**2, axis=-1))
    with pytest.raises(InvalidArgumentError, match="last axis of length 2"):
        tV_k_num(rs_product, f, np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError, match="last axis of length 2"):
        tV_k_num_product(rs_product, f, 0.5)


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
        # the points read and the result shaped as the real engines do, a sequence of
        # functions with a leading function axis
        functions = () if callable(f) else (len(f),)
        return np.full(functions + _points(points, rs.dimension, float)[1], np.nan)[()]

    def nan_exact(rs, f):
        # the closed-form dual gives (c, r); an r whose one coefficient is NaN is NaN everywhere
        c, _ = original(rs, f)
        return c, PolyGauss((math.nan,))

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("dunklkit") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, nan_exact if name == "tV_k_exact" else nan)
    # an empty cache of exact inverses, so none built before hides the NaN and none built now outlives the test
    fresh = lru_cache(maxsize=256)(intertwine1d._inverse_of_gauss.__wrapped__)
    monkeypatch.setattr(intertwine1d, "_inverse_of_gauss", fresh)


def _failed_on_nan(report, check_id):
    check = {c.id: c for c in report.checks}[check_id]
    return math.isnan(check.residual) and not check.passed


def test_nan_dual_operator_fails_both_translation_paths(monkeypatch):
    # the product path takes the dual quadrature, the integer path the closed-form dual
    _return_nan(monkeypatch, "tV_k_num")
    _return_nan(monkeypatch, "tV_k_exact")
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


def test_line_plans_are_cached_per_system_and_grid():
    rs = rank_one(1)
    plan = _line_plan(rs, 48)
    assert _line_plan(rs, 48) is plan and default_line_plan(rs, 48) is plan
    assert np.array_equal(plan.freq.nodes, make_plan(rs, grid_n=48, freq_radius=9.0).freq.nodes)
    assert _line_plan(rank_one(1), 48) is plan  # an equal system finds the same plan
    assert _line_plan(rs, 96) is not plan
    assert _line_plan(rs, None) is default_line_plan(rs)
    # make_plan stays uncached
    assert make_plan(rs, grid_n=48) is not make_plan(rs, grid_n=48)
    with pytest.raises(UnsupportedCaseError):
        _line_plan(axis_product(1, 2), 48)


OLD_CONVENTION = {
    "V_k_num": lambda k: V_k_num(k, np.cos, 0.5),
    "tV_k_num": lambda k: tV_k_num(k, gaussian(), 0.5),
    "tV_k_exact": lambda k: tV_k_exact(k, gaussian()),
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
