import functools
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dunklkit import intertwine1d, kernel, transform
from dunklkit.cli import parse_preset
from dunklkit.convolution import (
    ConcreteDistribution,
    approx_identity_check,
    convolve,
    convolve_many,
    distribution_convolve,
    translate_measure,
    translate_spectral,
    translate_spectral_many,
)
from dunklkit.errors import AccuracyWarning, InvalidArgumentError, UnsupportedCaseError
from dunklkit.functions import PolyGauss, gaussian, standard_bump
from dunklkit.intertwine1d import (
    V_k_num,
    default_line_plan,
    dual_inverse_via_transform,
    dual_via_transform,
    inv_tV_via_VkP,
    inv_V_via_P,
    mu_quadrature,
    tV_k_num,
)
from dunklkit.kernel import bessel_j_normalized, kernel_1d, kernel_value
from dunklkit.rootsys import axis_product, mehta_constant, rank_one
from dunklkit.suites import SuiteConfig, run_suite
from dunklkit.transform import (
    _TARGET_KERNELS,
    DecayClass,
    SampledFunction,
    classical_fourier_many,
    dunkl_inverse_many,
    dunkl_roundtrip_many,
    dunkl_transform,
    dunkl_transform_many,
    fourier_bessel,
    gaussian_eigen_constant,
    inverse_constant,
    line_gamma,
    make_plan,
    multiplier_P_many,
    plain_line_grid,
    sampled,
    tensor_grid,
    weighted_grid,
    weighted_line_grid,
)


def test_weighted_grid_gaussian_mass():
    # integral of exp(-x^2) |x|^(2 gamma) = 1 / c_k
    for gamma in (0.0, 0.5, 1.0, 7.0 / 3.0):
        grid = weighted_line_grid(gamma, radius=9.0, n=120)
        val = float(np.sum(grid.weights * np.exp(-grid.nodes**2)))
        assert val == pytest.approx(1.0 / mehta_constant(rank_one(Fraction(gamma))), rel=1e-12)


@pytest.mark.parametrize("k", [1, Fraction(7, 3), 2.0])
def test_a_bare_multiplicity_is_not_a_system(k):
    with pytest.raises(InvalidArgumentError, match=r"rank_one\(k\)"):
        line_gamma(k)


def test_line_gamma_reads_the_line_and_refuses_a_product():
    assert line_gamma(rank_one(Fraction(7, 3))) == 7.0 / 3.0
    with pytest.raises(UnsupportedCaseError, match="rank-one"):
        line_gamma(axis_product(1, 2))


def test_grid_calibration_small():
    # the weights sum to the exact integral of the absorbed weight over [-R, R]
    R, g = 10.0, 1.0
    for grid, exact in ((weighted_line_grid(g, R), 2.0 * R ** (2.0 * g + 1.0) / (2.0 * g + 1.0)),
                        (plain_line_grid(R), 2.0 * R)):
        assert float(np.sum(grid.weights)) == pytest.approx(exact, rel=1e-9)


def test_tensor_grid_mass(rs_product):
    grid = weighted_grid(rs_product, radius=9.0, n=60)
    val = float(np.sum(grid.weights * np.exp(-np.sum(grid.nodes**2, axis=1))))
    assert val == pytest.approx(1.0 / mehta_constant(rs_product), rel=1e-10)


def test_gaussian_eigenfunction(plan_one, rs_one):
    ys = np.linspace(-4, 4, 33)
    hv = dunkl_transform_many(rs_one, gaussian(), ys, plan_one)
    ref = gaussian_eigen_constant(rs_one) * np.exp(-0.5 * ys**2)
    assert np.max(np.abs(hv - ref) / ref) < 1e-10


def test_roundtrip_hermite_set(plan_two, rs_two):
    xs = np.linspace(-3, 3, 21)
    for n in range(5):
        f = PolyGauss.monomial(n)
        back = dunkl_roundtrip_many(rs_two, f, xs, plan_two)
        assert np.max(np.abs(back - f(xs))) < 1e-8


def test_transform_parity(plan_one, rs_one):
    # odd input -> purely imaginary odd transform
    f = PolyGauss.monomial(1)
    ys = np.array([0.5, 1.5, 2.5])
    hv = dunkl_transform_many(rs_one, f, ys, plan_one)
    hv_neg = dunkl_transform_many(rs_one, f, -ys, plan_one)
    assert np.max(np.abs(np.real(hv))) < 1e-12
    assert np.max(np.abs(hv + hv_neg)) < 1e-12


def test_classical_fourier_gaussian(plan_one):
    ys = np.linspace(-3, 3, 13)
    hv = classical_fourier_many(lambda x: np.exp(-0.5 * x**2), ys, plan_one)
    ref = math.sqrt(2 * math.pi) * np.exp(-0.5 * ys**2)
    assert np.max(np.abs(hv - ref)) < 1e-12


def test_fourier_bessel_gaussian_self_reciprocal():
    # exp(-r^2/2) is a fixed point of the normalized Bessel transform
    gauss = lambda r: np.exp(-0.5 * r**2)
    lams = np.array([0.0, 0.7, 1.9])
    for alpha in (0.0, 0.5, 1.5):
        for lam in lams:
            val = fourier_bessel(gauss, lam, alpha, radius=9.0, n=200)
            assert isinstance(val, float)
            assert val == pytest.approx(math.exp(-0.5 * lam**2), abs=1e-13)
        # an array of frequencies gives the scalar calls bitwise
        vals = fourier_bessel(gauss, lams, alpha, radius=9.0, n=200)
        assert vals.tobytes() == np.array([fourier_bessel(gauss, lam, alpha, radius=9.0, n=200)
                                           for lam in lams]).tobytes()
    for bad in ({"radius": -1.0}, {"radius": math.nan}, {"radius": math.inf}, {"n": 0}, {"n": 1}):
        with pytest.raises(InvalidArgumentError):
            fourier_bessel(gauss, 0.5, 0.0, **bad)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 11 / 6])
def test_fourier_bessel_sums_each_distinct_magnitude_once(alpha, monkeypatch):
    # |lam| radius <= 4 sums moments (their accuracy is in test_accuracy.py);
    # beyond, one Bessel row per distinct |lam|
    from dunklkit import intertwine1d, kernel, transform
    from dunklkit.rootsys import _half_line_rule

    gauss = lambda r: np.exp(-0.5 * r**2)
    n, radius = 64, 9.0
    r, wts = _half_line_rule(n, 2.0 * alpha + 1.0, radius)
    norm = 2.0**alpha * math.gamma(alpha + 1.0)
    lams = {
        "symmetric": np.array([-1.9, -0.7, 0.0, 0.7, 1.9, -0.0]),
        "2-D": np.array([[0.3, -2.5, 0.3], [2.5, 4.0, -0.3]]),
        "scalar": -0.7,
        "scalar inside": 0.2,
        "all inside": np.array([0.1, -0.2, 0.0, 4.0 / radius]),
        "NaN-bearing": np.array([0.5, np.nan, -0.5, np.nan, 3.0, 0.2, -np.inf]),
    }
    points = []
    real_bessel = transform.bessel_j_normalized
    monkeypatch.setattr(transform, "bessel_j_normalized",
                        lambda a, u: points.append(np.size(u)) or real_bessel(a, u))
    for name, lam in lams.items():
        points.clear()
        got = fourier_bessel(gauss, lam, alpha, radius=radius, n=n)
        assert np.shape(got) == np.shape(lam), name
        far = ~(np.abs(np.ravel(lam)) * radius <= kernel._SERIES_RADIUS)  # NaN is far
        rows = np.unique(np.abs(np.ravel(lam))[far]).size
        assert points == ([rows * n] if rows else []), name
        # every lam at its own point
        each = [fourier_bessel(gauss, v, alpha, radius=radius, n=n) for v in np.ravel(lam)]
        assert np.ravel(got).tobytes() == np.array(each).tobytes(), name
        # the entrywise formula on complex arguments: bitwise beyond the radius,
        # within the moment sums' bound of test_accuracy.py inside it
        with np.errstate(invalid="ignore"):  # -inf times the node at 0
            entrywise = np.array([np.sum(wts * (gauss(r) * np.real(real_bessel(alpha, complex(v) * r)))) / norm
                                  for v in np.ravel(lam)])
        assert np.ravel(got)[far].tobytes() == entrywise[far].tobytes(), name
        assert np.all(np.abs(np.ravel(got)[~far] - entrywise[~far]) <= 5e-15), name
    # at 0 the moment integral itself
    assert fourier_bessel(gauss, 0.0, alpha, radius=radius, n=n) == np.sum(wts * gauss(r)) / norm


def test_multiplier_P_is_negative_second_derivative(plan_one, rs_one):
    # at gamma = 1 the multiplier operator acts on nice even+odd data like
    # the prefactored local operator
    f = PolyGauss.monomial(2)
    dd = f.derivative().derivative()
    xs = np.array([-1.3, -0.4, 0.5, 1.1])
    vals = multiplier_P_many(rs_one, f, xs, plan_one)
    assert np.max(np.abs(vals - (-dd(xs)))) < 1e-10


def test_multiplier_P_gamma_two(plan_two, rs_two):
    f = gaussian()
    d4 = f.derivative().derivative().derivative().derivative()
    xs = np.array([-0.8, 0.3, 1.2])
    vals = multiplier_P_many(rs_two, f, xs, plan_two)
    assert np.max(np.abs(vals - d4(xs) / 9.0)) < 1e-9


def test_decay_validation():
    with pytest.raises(InvalidArgumentError):
        DecayClass("nope", radius=1.0)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError):
            DecayClass.compact(radius)
    with pytest.raises(InvalidArgumentError):
        DecayClass.schwartz(math.inf)
    assert not DecayClass.poly_growth(2).integrable


def test_sampled_growth_warns(plan_one, rs_one):
    from dunklkit.transform import dunkl_transform

    bad = sampled(lambda x: np.exp(np.abs(np.asarray(x))), DecayClass.schwartz(), "liar")
    with pytest.warns(AccuracyWarning):
        dunkl_transform(rs_one, bad, 0.0, plan_one)


def test_scalar_twins_sample_decay_in_every_coordinate():
    from dunklkit.transform import classical_fourier, dunkl_inverse, dunkl_transform, multiplier_P

    rs = axis_product(1, 1, 1)
    plan = make_plan(rs, grid_n=12)
    # reads the third coordinate, which a sample of the plane would not have
    f = sampled(lambda p: np.exp(-np.sum(p**2, axis=-1)) * (1.0 + p[:, 2]), DecayClass.schwartz())
    y = [0.3, -0.2, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        # each twin is its _many form at the one point, which is a Python complex
        for twin, many in [
            (dunkl_transform(rs, f, y, plan), lambda ys: dunkl_transform_many(rs, f, ys, plan)),
            (dunkl_inverse(rs, f, y, plan), lambda ys: dunkl_inverse_many(rs, f(plan.freq.nodes), ys, plan)),
            (classical_fourier(f, y, plan), lambda ys: classical_fourier_many(f, ys, plan)),
            (multiplier_P(rs, f, y, plan), lambda ys: multiplier_P_many(rs, f, ys, plan).real),
        ]:
            assert twin == many([y])[0] == many(y)
            assert type(many(y)) in (float, complex)
    slow = sampled(lambda p: np.exp(-np.sqrt(np.sum(p**2, axis=-1))), DecayClass.schwartz(), "slow")
    with pytest.warns(AccuracyWarning, match="slow"):
        dunkl_transform(rs, slow, y, plan)


GROWTH_ENTRY_POINTS = {
    "dunkl_transform": lambda rs, f, plan: dunkl_transform(rs, f, 0.5, plan),
    "dunkl_transform_many": lambda rs, f, plan: dunkl_transform_many(rs, f, [0.5], plan),
    "classical_fourier_many": lambda rs, f, plan: classical_fourier_many(f, [0.5], plan),
    "multiplier_P_many": lambda rs, f, plan: multiplier_P_many(rs, f, [0.5], plan),
    "dunkl_roundtrip_many": lambda rs, f, plan: dunkl_roundtrip_many(rs, f, [0.5], plan),
    "translate_spectral_many": lambda rs, f, plan: translate_spectral_many(rs, f, 0.3, [0.5], plan),
    "convolve_many-f": lambda rs, f, plan: convolve_many(rs, f, gaussian(), [0.5], plan),
    "convolve_many-g": lambda rs, f, plan: convolve_many(rs, gaussian(), f, [0.5], plan),
    "inv_V_via_P": lambda rs, f, plan: inv_V_via_P(rs, f, [0.5], plan),
    "inv_tV_via_VkP": lambda rs, f, plan: inv_tV_via_VkP(rs, f, [0.5], plan),
    "dual_via_transform": lambda rs, f, plan: dual_via_transform(rs, f, [0.5], plan),
    "dual_inverse_via_transform": lambda rs, f, plan: dual_inverse_via_transform(rs, f, [0.5], plan),
}
# a scalar twin and convolve_many's g take one function, and refuse a sequence by name
GROWTH_CASES = [pytest.param(entry, False, id=entry) for entry in GROWTH_ENTRY_POINTS] + [
    pytest.param(entry, True, id=f"{entry}-sequence") for entry in GROWTH_ENTRY_POINTS
    if entry not in ("dunkl_transform", "convolve_many-g")]


@pytest.mark.parametrize("entry, sequence", GROWTH_CASES)
def test_poly_growth_rejected_by_transform(entry, sequence, plan_one, rs_one):
    # every entry point refuses by the declaration alone, without sampling
    samples = []
    grows = sampled(lambda x: samples.append(x) or 1.0 + np.asarray(x) ** 2, DecayClass.poly_growth(2))
    # in a sequence the growing member comes second, and the first shares its evaluator: neither is sampled
    f = [sampled(grows.evaluator, DecayClass.schwartz()), grows] if sequence else grows
    with pytest.raises(InvalidArgumentError, match="poly-growth"):
        GROWTH_ENTRY_POINTS[entry](rs_one, f, plan_one)
    assert samples == []


SCALAR_TWINS = {
    "dunkl_transform": lambda rs, f, plan: dunkl_transform(rs, f, 0.5, plan),
    "dunkl_inverse": lambda rs, f, plan: transform.dunkl_inverse(rs, f, 0.5, plan),
    "classical_fourier": lambda rs, f, plan: transform.classical_fourier(f, 0.5, plan),
    "multiplier_P": lambda rs, f, plan: transform.multiplier_P(rs, f, 0.5, plan),
    "translate_spectral": lambda rs, f, plan: translate_spectral(rs, f, 0.3, 0.5, plan),
    "convolve": lambda rs, f, plan: convolve(rs, f, gaussian(), 0.5, plan),
}


@pytest.mark.parametrize("sequence", [list, tuple])
@pytest.mark.parametrize("twin", SCALAR_TWINS)
def test_a_scalar_form_refuses_a_sequence_of_functions_by_name(twin, sequence, rs_one, plan_one):
    samples = []  # refused before its _many form samples anything
    f = sampled(lambda x: samples.append(x) or np.exp(-np.asarray(x) ** 2), DecayClass.schwartz())
    with pytest.raises(InvalidArgumentError, match=f"{twin} takes one function"):
        SCALAR_TWINS[twin](rs_one, sequence([f]), plan_one)
    assert samples == []


def test_convolve_many_takes_one_callable_g(rs_one, plan_one):
    with pytest.raises(InvalidArgumentError, match="convolve_many's g takes one function"):
        convolve_many(rs_one, gaussian(), [gaussian()], [0.5], plan_one)


def _entry_points(rs, plan):
    """name -> (call of points x, whether each value is computed from its own point alone).

    The others contract through a matrix product, whose rounding may depend
    on how many points share it.
    """
    from dunklkit.convolution import translate_measure
    from dunklkit.intertwine1d import DualDensity, dual_inverse_via_transform, dual_via_transform, inv_V_via_Q
    from dunklkit.intertwine1d import mu_density
    from dunklkit.kernel import kernel_value
    from dunklkit.rootsys import weight

    d = rs.dimension
    f = sampled(lambda p: np.exp(-np.sum(np.reshape(p, (len(p), -1)) ** 2, axis=-1)), DecayClass.schwartz())
    base = 0.7 if d == 1 else [0.7, -0.2]
    calls = {
        "weight": (lambda x: weight(rs, x), True),
        "kernel_value": (lambda x: kernel_value(rs, x, base), True),
        "dunkl_transform_many": (lambda x: dunkl_transform_many(rs, f, x, plan), False),
        "dunkl_inverse_many": (lambda x: dunkl_inverse_many(rs, f(plan.freq.nodes), x, plan), False),
        "classical_fourier_many": (lambda x: classical_fourier_many(f, x, plan), False),
        "multiplier_P_many": (lambda x: multiplier_P_many(rs, f, x, plan), False),
        "dunkl_roundtrip_many": (lambda x: dunkl_roundtrip_many(rs, f, x, plan), False),
        "convolve_many": (lambda x: convolve_many(rs, f, f, x, plan), False),
        "translate_spectral_many y": (lambda x: translate_spectral_many(rs, f, base, x, plan), False),
        "translate_spectral_many x": (lambda x: translate_spectral_many(rs, f, x, base, plan), False),
        "V_k_num": (lambda x: V_k_num(rs, f, x, n=16), False),
        "tV_k_num": (lambda x: tV_k_num(rs, f, x, n=16), True),
    }
    if d == 1:
        g = PolyGauss.monomial(1)
        calls.update({
            "translate_measure": (lambda x: translate_measure(rs, g, x, base, plan=plan), False),
            "inv_V_via_P": (lambda x: inv_V_via_P(rs, g, x, plan), False),
            "inv_tV_via_VkP": (lambda x: inv_tV_via_VkP(rs, g, x, plan), False),
            "inv_V_via_Q": (lambda x: inv_V_via_Q(rs, g, x), True),
            "dual_via_transform": (lambda x: dual_via_transform(rs, g, x, plan), False),
            "dual_inverse_via_transform": (lambda x: dual_inverse_via_transform(rs, g, x, plan), False),
            "mu_density": (lambda x: mu_density(rs, 1.3, x), True),
            "DualDensity": (lambda x: DualDensity(rs, 0.4)(x), True),
        })
    return calls


RETURN_RULE = [("line", name) for name in _entry_points(rank_one(1), None)] + [
    ("product", name) for name in _entry_points(axis_product(1, 2), None)]


@pytest.fixture(scope="module")
def return_rule_cases(rs_one, plan_one, rs_product):
    return {"line": _entry_points(rs_one, plan_one),
            "product": _entry_points(rs_product, make_plan(rs_product, grid_n=8))}


@pytest.mark.parametrize("system, name", RETURN_RULE)
def test_one_point_gives_a_scalar_and_a_batch_keeps_its_shape(system, name, return_rule_cases):
    call, pointwise = return_rule_cases[system][name]
    point = 0.3 if system == "line" else np.array([0.3, -0.4])
    batch = np.array([[0.5, -1.2, 0.3], [2.0, 0.3, 1.1]])
    if system == "product":
        batch = np.stack([batch, -0.5 * batch], axis=-1)
        batch[0, 2] = point
    value, values = call(point), call(batch)
    assert type(value) in (float, complex)
    assert values.shape == (2, 3)
    # bitwise the value of a one-point batch, and of any batch where each value is the point's own
    assert value == call(point[None] if system == "product" else [point])[0]
    if pointwise:
        assert value == values[0, 2]
    assert abs(value - values[0, 2]) <= 1e-14 * max(1.0, abs(value))
    if system == "line":  # a batch along a last axis of length 1
        assert call(batch[..., None]).shape == (2, 3)


def _sequence_calls(rs, plan):
    """name -> (call of functions f and points x, whether each row of a
    sequence is bitwise the call on its function alone).

    A route that evaluates each function on its own gives bitwise rows.  A
    contraction takes k functions as one matrix, and BLAS sums a matrix and
    a vector product in different orders, so its rows agree to rounding.
    """
    from dunklkit.intertwine1d import eta_pairing, inv_V_via_Q, z_pairing

    def on_freq(f):  # values on the frequency nodes: (N,) for one function, (k, N) for k
        return np.array([h(plan.freq.nodes) for h in f]) if isinstance(f, (list, tuple)) else f(plan.freq.nodes)

    one = 0.4 if rs.dimension == 1 else [0.4, -0.3]
    g = sampled(lambda p: np.exp(-np.sum(np.reshape(p, (len(p), -1)) ** 2, axis=-1)), DecayClass.schwartz())
    calls = {
        "dunkl_transform_many": (lambda f, x: dunkl_transform_many(rs, f, x, plan), False),
        "classical_fourier_many": (lambda f, x: classical_fourier_many(f, x, plan), False),
        "multiplier_P_many": (lambda f, x: multiplier_P_many(rs, f, x, plan), False),
        "dunkl_roundtrip_many": (lambda f, x: dunkl_roundtrip_many(rs, f, x, plan), False),
        "dunkl_inverse_many": (lambda f, x: dunkl_inverse_many(rs, on_freq(f), x, plan), False),
        "dunkl_inverse_many one base": (lambda f, x: dunkl_inverse_many(rs, on_freq(f), x, plan, base=one), False),
        "dunkl_inverse_many many bases": (lambda f, x: dunkl_inverse_many(rs, on_freq(f), one, plan, base=x), False),
        "translate_spectral_many": (lambda f, x: translate_spectral_many(rs, f, one, x, plan), False),
        "translate_spectral_many many bases": (lambda f, x: translate_spectral_many(rs, f, x, one, plan), False),
        "convolve_many": (lambda f, x: convolve_many(rs, f, g, x, plan), False),
    }
    if rs.dimension == 1:
        calls.update({
            "V_k_num": (lambda f, x: V_k_num(rs, f, x), True),
            "tV_k_num": (lambda f, x: tV_k_num(rs, f, x), True),
            "inv_V_via_P": (lambda f, x: inv_V_via_P(rs, f, x, plan), False),
            "inv_tV_via_VkP": (lambda f, x: inv_tV_via_VkP(rs, f, x, plan), True),
            "inv_V_via_Q": (lambda f, x: inv_V_via_Q(rs, f, x), True),
            "translate_measure": (lambda f, x: translate_measure(rs, f, x, 0.4, plan=plan), False),
            "translate_measure Q": (lambda f, x: translate_measure(rs, f, x, 0.4, method="Q", plan=plan), True),
            "dual_via_transform": (lambda f, x: dual_via_transform(rs, f, x, plan), False),
            "dual_inverse_via_transform": (lambda f, x: dual_inverse_via_transform(rs, f, x, plan), False),
            "eta_pairing": (lambda f, x: eta_pairing(rs, x, f), True),
            # on PolyGauss at an integer multiplicity every function takes local_P and V_k_num
            "z_pairing": (lambda f, x: z_pairing(rs, x, f, plan), True),
        })
    return calls


# on a product, points onto which the first axis is folded, and a plan grid,
# onto which every axis is folded in turn (sum factorization)
FUNCTION_RULE = [("line", name) for name in _sequence_calls(rank_one(1), None)] + [
    (system, name) for system in ("product points", "product grid")
    for name in _sequence_calls(axis_product(1, 2), None)]


@pytest.fixture(scope="module")
def function_rule_cases(rs_one, plan_one, rs_product):
    plan = make_plan(rs_product, grid_n=8)
    return {"line": _sequence_calls(rs_one, plan_one), "product": _sequence_calls(rs_product, plan),
            "product grid": plan.freq.nodes}


@pytest.mark.parametrize("system, name", FUNCTION_RULE)
def test_a_sequence_of_functions_adds_a_leading_axis(system, name, function_rule_cases):
    call, bitwise = function_rule_cases[system.split()[0]][name]
    batch = np.array([[0.5, -1.2, 0.3], [2.0, 0.3, 1.1]])
    if system == "line":
        fs, one = [PolyGauss.monomial(m) for m in range(3)], 0.3
    else:
        gauss = lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1))
        fs, one = [gauss, lambda p: p[:, 0] * gauss(p), lambda p: p[:, 0] * p[:, 1] * gauss(p)], [0.3, -0.4]
        batch = function_rule_cases["product grid"] if system == "product grid" else np.stack(
            [batch, -0.5 * batch], axis=-1)
    values = call(fs, batch)
    assert values.shape == (3,) + (batch.shape if system == "line" else batch.shape[:-1])
    assert call(tuple(fs), one).shape == (3,)
    assert call(fs[:1], one).shape == (1,)
    for f, row in zip(fs, values):
        single = call(f, batch)  # a callable adds no leading axis
        assert single.shape == row.shape
        if bitwise:
            np.testing.assert_array_equal(row, single)
        else:  # to rounding
            assert np.max(np.abs(row - single)) <= 4e-15 * np.max(np.abs(single))


def _points_refused(rs, plan):
    """Calls of the entry points that serve rs with points that are not points of rs."""
    from dunklkit.convolution import convolve, translate_spectral
    from dunklkit.rootsys import weight
    from dunklkit.transform import classical_fourier, dunkl_inverse, dunkl_transform, multiplier_P

    d = rs.dimension
    f = sampled(lambda p: np.exp(-np.sum(np.reshape(p, (len(p), -1)) ** 2, axis=-1)), DecayClass.schwartz())
    one = 0.3 if d == 1 else [0.3] * d
    many = {
        "dunkl_transform_many": lambda y: dunkl_transform_many(rs, f, y, plan),
        "dunkl_inverse_many": lambda y: dunkl_inverse_many(rs, f(plan.freq.nodes), y, plan),
        "classical_fourier_many": lambda y: classical_fourier_many(f, y, plan),
        "multiplier_P_many": lambda y: multiplier_P_many(rs, f, y, plan),
        "dunkl_roundtrip_many": lambda y: dunkl_roundtrip_many(rs, f, y, plan),
        "convolve_many": lambda y: convolve_many(rs, f, f, y, plan),
        "translate_spectral_many": lambda y: translate_spectral_many(rs, f, one, y, plan),
        "weight": lambda y: weight(rs, y),
    }
    twins = {
        "dunkl_transform": lambda y: dunkl_transform(rs, f, y, plan),
        "dunkl_inverse": lambda y: dunkl_inverse(rs, f, y, plan),
        "classical_fourier": lambda y: classical_fourier(f, y, plan),
        "multiplier_P": lambda y: multiplier_P(rs, f, y, plan),
        "translate_spectral": lambda y: translate_spectral(rs, f, one, y, plan),
        "translate_spectral x": lambda x: translate_spectral(rs, f, x, one, plan),
        "convolve": lambda y: convolve(rs, f, f, y, plan),
    }
    if d == 1:
        return {f"{name} at two points": lambda call=call: call([0.5, 1.0]) for name, call in twins.items()}
    calls = {f"{name} at a scalar": lambda call=call: call(0.5) for name, call in twins.items()}
    for shape in [(4, 3), (6,)]:
        calls.update({f"{name} {shape}": lambda call=call, shape=shape: call(np.ones(shape))
                      for name, call in many.items()})
    return calls


REFUSED_POINTS = [("line", name) for name in _points_refused(rank_one(1), None)] + [
    ("product", name) for name in _points_refused(axis_product(1, 2), None)]


@pytest.fixture(scope="module")
def refusal_cases(rs_one, plan_one, rs_product):
    return {"line": _points_refused(rs_one, plan_one),
            "product": _points_refused(rs_product, make_plan(rs_product, grid_n=8))}


@pytest.mark.parametrize("system, call", REFUSED_POINTS)
def test_points_that_are_not_points_of_the_system_are_refused_by_name(system, call, refusal_cases):
    # a (4, 3) batch on a plane is not 6 points, and a scalar form serves exactly one point
    with pytest.raises(InvalidArgumentError):
        refusal_cases[system][call]()


# three points against two: the pair shapes do not broadcast
UNPAIRED_POINTS = {
    "kernel_value": lambda rs, plan: kernel_value(rs, [0.1, 0.2, 0.3], [0.1, 0.2]),
    "translate_spectral_many": lambda rs, plan: translate_spectral_many(rs, gaussian(), [0.1, 0.2, 0.3], [0.1, 0.2], plan),
    "translate_measure": lambda rs, plan: translate_measure(rs, gaussian(), [0.1, 0.2, 0.3], [0.1, 0.2], plan=plan),
}


@pytest.mark.parametrize("site", UNPAIRED_POINTS)
def test_point_sets_that_do_not_broadcast_are_refused_by_name(site, rs_one, plan_one):
    with pytest.raises(InvalidArgumentError, match="do not broadcast"):
        UNPAIRED_POINTS[site](rs_one, plan_one)


WRONG_PLAN_ENTRY_POINTS = {
    "dunkl_transform_many": lambda rs, plan: dunkl_transform_many(rs, gaussian(), [0.5], plan),
    "dunkl_inverse_many": lambda rs, plan: dunkl_inverse_many(rs, np.ones(len(plan.freq.nodes)), [0.5], plan),
    "multiplier_P_many": lambda rs, plan: multiplier_P_many(rs, gaussian(), [0.5], plan),
    "convolve_many": lambda rs, plan: convolve_many(rs, gaussian(), gaussian(), [0.5], plan),
    "translate_spectral_many": lambda rs, plan: translate_spectral_many(rs, gaussian(), 0.3, [0.5], plan),
    "inv_V_via_P": lambda rs, plan: inv_V_via_P(rs, gaussian(), [0.0, 0.5], plan),
    "inv_tV_via_VkP": lambda rs, plan: inv_tV_via_VkP(rs, gaussian(), [0.0, 0.5], plan),
    "dual_via_transform": lambda rs, plan: dual_via_transform(rs, gaussian(), [0.5], plan),
    "dual_inverse_via_transform": lambda rs, plan: dual_inverse_via_transform(rs, gaussian(), [0.5], plan),
    "translate_measure": lambda rs, plan: translate_measure(rs, gaussian(), 0.5, 0.3, plan=plan),
    "translate_measure Q": lambda rs, plan: translate_measure(rs, gaussian(), 0.5, 0.3, method="Q", plan=plan),
    "distribution_convolve": lambda rs, plan: distribution_convolve(
        rs, ConcreteDistribution.point_mass(0.3), gaussian(), 0.5, plan),
    "approx_identity_check": lambda rs, plan: approx_identity_check(
        rs, ConcreteDistribution.weighted(gaussian()), plan=plan),
}


@pytest.mark.parametrize("entry", WRONG_PLAN_ENTRY_POINTS)
def test_a_plan_built_for_another_system_is_refused(entry, rs_one, rs_two, plan_two):
    # the plan's own system is served; another line or a product is refused by name
    WRONG_PLAN_ENTRY_POINTS[entry](rank_one(2), plan_two)
    for plan in (default_line_plan(rs_one), make_plan(axis_product(1, 2), grid_n=8)):
        with pytest.raises(InvalidArgumentError, match="another root system"):
            WRONG_PLAN_ENTRY_POINTS[entry](rs_two, plan)


def test_translate_measure_q_builds_no_plan(monkeypatch):
    # Q reads no plan: without one it builds none, with one it checks the owner only
    def refuse(*args):
        raise AssertionError("a Q translation built a default plan")

    monkeypatch.setattr(intertwine1d, "default_line_plan", refuse)
    rs = rank_one(1)
    value = translate_measure(rs, gaussian(), 0.5, 0.3, method="Q")
    assert value == translate_measure(rs, gaussian(), 0.5, 0.3, method="Q", plan=make_plan(rs, grid_n=8))
    assert value == pytest.approx(0.8045538913546, abs=1e-12)


OUT_OF_DOMAIN = {
    "V_k_num n=0": lambda: V_k_num(rank_one(1), np.cos, 0.5, n=0),
    "V_k_num n=-3": lambda: V_k_num(rank_one(1), np.cos, 0.5, n=-3),
    "tV_k_num n=0": lambda: tV_k_num(rank_one(1), gaussian(), 0.5, n=0),
    "tV_k_num x_max=-14": lambda: tV_k_num(rank_one(1), gaussian(), 0.5, x_max=-14.0),
    "tV_k_num x_max=nan": lambda: tV_k_num(rank_one(1), gaussian(), 0.5, x_max=math.nan),
    "tV_k_num x_max=inf": lambda: tV_k_num(rank_one(1), gaussian(), 0.5, x_max=math.inf),
    "mu_quadrature n=0": lambda: mu_quadrature(1.0, 0),
    "plain_line_grid n=0": lambda: plain_line_grid(10.0, 0),
    "plain_line_grid radius=-1": lambda: plain_line_grid(-1.0),
    "plain_line_grid radius=nan": lambda: plain_line_grid(math.nan),
    "weighted_line_grid radius=nan": lambda: weighted_line_grid(1.0, radius=math.nan),
    "weighted_line_grid radius=inf": lambda: weighted_line_grid(1.0, radius=math.inf),
    "make_plan freq_radius=nan": lambda: make_plan(rank_one(1), grid_n=8, freq_radius=math.nan),
    "fourier_bessel alpha=nan": lambda: fourier_bessel(np.exp, 0.5, math.nan),
    # |lam| would serve only real frequencies
    "fourier_bessel lam=0.5j": lambda: fourier_bessel(np.exp, 0.5j, 0.0),
    "fourier_bessel complex array": lambda: fourier_bessel(np.exp, np.array([0.5, 1.0 + 0.0j]), 0.0),
}


@pytest.mark.parametrize("call", OUT_OF_DOMAIN)
def test_a_quadrature_size_or_radius_outside_the_domain_is_refused_by_name(call):
    with pytest.raises(InvalidArgumentError):
        OUT_OF_DOMAIN[call]()


def test_bump_sampled_has_compact_decay():
    # every member of the family declares the support [-1, 1], images included
    bump = standard_bump()
    for f in (bump, bump.derivative(), bump.dunkl(rank_one(2)), bump + bump.derivative()):
        assert f.decay == DecayClass.compact(1.0)


def test_make_plan_shapes(rs_product):
    plan = make_plan(rs_product, grid_n=24)
    assert plan.space.nodes.shape[1] == 2
    hv = dunkl_transform_many(
        rs_product, lambda p: np.exp(-0.5 * np.sum(np.atleast_2d(p) ** 2, axis=1)),
        np.array([[0.0, 0.0]]), plan,
    )
    # transform at zero is the weighted integral of the Gaussian
    assert np.real(hv[0]) == pytest.approx(
        float(np.sum(plan.space.weights * np.exp(-0.5 * np.sum(plan.space.nodes**2, axis=1)))),
        rel=1e-12,
    )


def test_inverse_constant_roundtrip_delta(plan_one, rs_one):
    # inverting the transform of a narrow Gaussian recovers its peak value
    f = gaussian()
    hv = dunkl_transform_many(rs_one, f, plan_one.freq.nodes, plan_one)
    back = dunkl_inverse_many(rs_one, hv, np.array([0.0]), plan_one)
    assert np.real(back[0]) == pytest.approx(1.0, abs=1e-9)


# -- plan-owned kernel halves ----------------------------------------------------


@pytest.fixture
def count_halves(monkeypatch):
    """Wrap the plan's kernel builder; returns the (positive nodes, distinct
    magnitudes) sizes, one entry per pair of halves built."""
    original = transform._kernel_halves
    sizes = []

    def counted(gamma, x, mags):
        sizes.append((len(x), len(mags)))
        return original(gamma, x, mags)

    monkeypatch.setattr(transform, "_kernel_halves", counted)
    return sizes


def _own_keys(plan):
    """Keys of the halves whose targets are an axis of one of the plan's grids."""
    own = {(j, plan.axis_nodes(g, j).tobytes()) for g in ("space", "space_plain", "freq")
           for j in range(plan.rs.dimension)}
    return [key for key in plan.kernels if (key[1], key[3]) in own]


def _dense(plan, grid, gammas, fvals, ys, side, factors=()):
    """sum over the plan grid of w f(x) prod_j K(x_j, side y_j) F_j(x_j, y), with
    every kernel the complex kernel_1d matrix of the whole grid."""
    g = getattr(plan, grid)
    nodes = g.nodes.reshape(len(g.nodes), -1)
    ys = np.asarray(ys, dtype=float).reshape(-1, len(gammas))
    ker = np.ones((len(nodes), len(ys)), dtype=complex)
    for j, gam in enumerate(gammas):
        ker *= kernel_1d(gam, nodes[:, j, None], side * ys[None, :, j])
    for j, factor in enumerate(factors):
        ker *= factor[np.searchsorted(plan.axis_nodes(grid, j), nodes[:, j])]
    return (g.weights * fvals) @ ker


def _unfold(a, b):
    """The complex kernel columns a +- i b of a pair of halves on the whole mirrored axis, -x first."""
    return np.concatenate([(a - 1j * b)[::-1], a + 1j * b])


@pytest.mark.parametrize("preset", ["z2:1", "z2:7/3", "z2xz2:1,2"])
def test_line_plan_halves_unfold_to_the_direct_kernels(preset):
    # E and O over the positive nodes and the distinct |t| give K(x, side t) on
    # every node, the complex closed form to rounding, for either side
    rs = parse_preset(preset)
    plan = make_plan(rs, grid_n=24 if rs.dimension == 1 else 8)
    for j, g in enumerate(float(k) for _, k in rs.axis_profile()):
        x, t = plan.axis_nodes("space", j), plan.axis_nodes("freq", j)
        E, O, back, sign = plan.axis_kernel("space", j, g, t)
        assert E.shape == O.shape == (len(x) // 2, len(t) // 2)  # a quarter of the complex matrix
        assert np.array_equal(-x[: len(x) // 2][::-1], x[len(x) // 2:])  # the grid is mirrored exactly
        for side in (-1j, 1j):
            full = _unfold(*transform._columns(E, O, back, sign, side))
            assert np.max(np.abs(full - kernel_1d(g, x[:, None], side * t[None, :]))) <= 1e-15
        # the inverse onto the space grid has halves of its own, the transpose of the forward ones
        inverse = plan.axis_kernel("freq", j, g, x)
        assert all(np.array_equal(a, b.T) for a, b in zip(inverse[:2], (E, O)))
    plain = plan.axis_kernel("space_plain", 0, 0.0, [0.3, -1.7, 0.3])
    assert plain[0].shape == (len(plan.axis_nodes("space_plain", 0)) // 2, 2)  # |y| = 0.3 and 1.7
    full = _unfold(*transform._columns(*plain, -1j))
    assert np.allclose(full, np.exp(-1j * np.multiply.outer(plan.axis_nodes("space_plain", 0), [0.3, -1.7, 0.3])),
                       rtol=0, atol=1e-15)


def test_product_plan_transform_matches_direct_sums(rs_product):
    plan = make_plan(rs_product, grid_n=6)
    gammas = [1.0, 2.0]

    def f(p):
        p = np.atleast_2d(p)
        return (1.0 + p[:, 0] - 0.5 * p[:, 1]) * np.exp(-0.5 * np.sum(p * p, axis=-1))

    ys = np.array([[0.3, -1.1], [2.0, 0.5], [-0.7, 0.0]])
    on_grid = dunkl_transform_many(rs_product, f, plan.freq.nodes, plan)
    ref = _dense(plan, "space", gammas, f(plan.space.nodes), plan.freq.nodes, -1j)
    assert np.allclose(on_grid, ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(dunkl_transform_many(rs_product, f, ys, plan),
                       _dense(plan, "space", gammas, f(plan.space.nodes), ys, -1j), rtol=1e-13, atol=1e-15)
    inv = dunkl_inverse_many(rs_product, on_grid, ys, plan)
    const = inverse_constant(rs_product)
    assert np.allclose(inv, const * _dense(plan, "freq", gammas, on_grid, ys, 1j), rtol=1e-13, atol=1e-15)


_PARITY_TARGETS = {
    "plan-grid": lambda plan, d: plan.freq.nodes,
    "asymmetric": lambda plan, d: np.random.default_rng(3).uniform(-3.0, 7.0, (9, d) if d > 1 else 9),
    "one-point": lambda plan, d: np.full(d, 0.7) if d > 1 else 0.7,
}


@pytest.mark.parametrize("targets", sorted(_PARITY_TARGETS))
@pytest.mark.parametrize("values", ["real", "complex"])
@pytest.mark.parametrize("preset", ["z2:1", "z2:7/3", "z2xz2:1,2"])
def test_parity_contraction_matches_the_dense_complex_sum(preset, values, targets):
    rs = parse_preset(preset)
    d = rs.dimension
    plan = make_plan(rs, grid_n=24 if d == 1 else 8)
    gammas = [float(k) for _, k in rs.axis_profile()]
    rng = np.random.default_rng(11)
    for grid, side, gams in (("space", -1j, gammas), ("freq", 1j, gammas), ("space_plain", -1j, [0.0] * d)):
        n = len(getattr(plan, grid).weights)
        fvals = rng.normal(size=n) + (1j * rng.normal(size=n) if values == "complex" else 0.0)
        ys = _PARITY_TARGETS[targets](plan, d)
        got = transform._contract(plan, grid, gams, fvals, ys, side)
        ref = _dense(plan, grid, gams, fvals, ys, side)
        assert np.shape(got) == np.shape(ref.reshape(np.shape(ys)[: -1 if d > 1 else None]))
        assert np.max(np.abs(np.ravel(got) - ref)) <= 1e-13 * np.max(np.abs(ref)), grid


@pytest.mark.parametrize("preset", ["z2:1", "z2:7/3", "z2xz2:1,2"])
def test_the_base_point_path_matches_the_dense_complex_sum(preset):
    # the inverse kernels K(t_j, i y_j) times K(t_j, i z_j) of each target's base
    # point z: a product of two kernels is again a pair of halves
    rs = parse_preset(preset)
    d = rs.dimension
    plan = make_plan(rs, grid_n=24 if d == 1 else 8)
    gammas = [float(k) for _, k in rs.axis_profile()]
    rng = np.random.default_rng(5)
    zs, ys = rng.uniform(-2.0, 2.0, (4, d)), rng.uniform(-3.0, 3.0, (4, d))
    hv = rng.normal(size=len(plan.freq.weights)) + 1j * rng.normal(size=len(plan.freq.weights))

    def dense(zs, ys):
        factors = [kernel_1d(g, plan.axis_nodes("freq", j)[:, None], 1j * zs[None, :, j]) for j, g in enumerate(gammas)]
        return inverse_constant(rs) * _dense(plan, "freq", gammas, hv, ys, 1j, factors)

    # one base point per target, one broadcast against every target, and one
    # onto the space grid, which a product plan sums axis by axis
    grid = plan.space.nodes.reshape(-1, d)
    cases = [(zs, ys), *((z, ys) for z in zs), (zs[0], grid)]
    for base, targets in cases:
        got = dunkl_inverse_many(rs, hv, targets, plan, base=base)
        ref = dense(np.reshape(base, (-1, d)), targets)
        assert np.shape(got) == (len(targets),)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_plan_halves_evaluate_each_order_once_per_positive_node_and_distinct_magnitude(monkeypatch):
    points = {}

    def counted(alpha, u):
        points[alpha] = points.get(alpha, 0) + np.size(u)
        return bessel_j_normalized(alpha, u)

    monkeypatch.setattr(transform, "bessel_j_normalized", counted)
    plan = make_plan(rank_one(Fraction(7, 3)), grid_n=24)
    s = np.linspace(0.2, 8.0, 40)
    plan.axis_kernel("space", 0, 7 / 3, np.concatenate([-s, s, s[:5]]))
    assert points == {7 / 3 - 0.5: 24 * 40, 7 / 3 + 0.5: 24 * 40}


def test_repeated_transforms_build_each_pair_of_halves_once(count_halves, rs_one):
    plan = make_plan(rs_one, grid_n=16)
    for m in range(3):
        dunkl_transform_many(rs_one, PolyGauss.monomial(m), plan.freq.nodes, plan)
    assert count_halves == [(16, 16)]
    # the inverse onto the space grid builds its own pair, once
    for _ in range(2):
        dunkl_inverse_many(rs_one, np.ones(len(plan.freq.nodes)), plan.space.nodes, plan)
    assert count_halves == [(16, 16)] * 2
    # seven targets symmetric about 0 have four distinct magnitudes
    ys = np.array([-2.0, -1.25, -0.5, 0.0, 0.5, 1.25, 2.0])
    for m in range(3):
        dunkl_transform_many(rs_one, PolyGauss.monomial(m), ys, plan)
    assert count_halves == [(16, 16)] * 2 + [(16, 4)]


def test_only_the_transform_module_reads_the_kernel_halves():
    # the storage form of the plan's kernels and the contraction stay in transform.py
    names = re.compile(r"\b(axis_kernel|_columns|_fold|_contract)\b")
    readers = [p.name for p in sorted(Path(transform.__file__).parent.glob("*.py")) if names.search(p.read_text())]
    assert readers == ["transform.py"]


def test_product_forward_transform_evaluates_axis_matrices_only(count_halves, rs_product):
    plan = make_plan(rs_product, grid_n=32)
    dunkl_transform_many(rs_product, lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)), plan.freq.nodes, plan)
    n_space, n_freq = len(plan.axis_nodes("space", 0)), len(plan.axis_nodes("freq", 0))
    # one pair of (positive space axis x positive frequency axis) halves per axis;
    # building the kernel at every tensor frequency costs d n_space n_freq^d entries
    assert count_halves == [(n_space // 2, n_freq // 2)] * rs_product.dimension


def test_target_kernel_cache_is_bounded(count_halves, rs_one):
    plan = make_plan(rs_one, grid_n=16)
    f = PolyGauss.monomial(1)

    def targets(shift):
        return np.array([0.1 * shift, 1.0])

    def kept():
        return [key for key in plan.kernels if key not in _own_keys(plan)]

    # Dunkl halves and plain (multiplicity 0) halves on other targets share one bound
    for shift in range(_TARGET_KERNELS):
        dunkl_transform_many(rs_one, f, targets(shift), plan)
        classical_fourier_many(f, targets(shift), plan)
    assert len(kept()) == _TARGET_KERNELS
    assert sum(key[2] == 0.0 for key in kept()) == _TARGET_KERNELS // 2
    plain = plan.axis_kernel("space_plain", 0, 0.0, targets(_TARGET_KERNELS - 1))
    assert plan.axis_kernel("space_plain", 0, 0.0, targets(_TARGET_KERNELS - 1)) is plain
    assert ("space_plain", 0, 0.0, targets(0).tobytes()) not in plan.kernels
    builds = len(count_halves)
    # the most recent Dunkl target set is kept; the oldest was dropped and is built again
    dunkl_transform_many(rs_one, f, targets(_TARGET_KERNELS - 1), plan)
    assert len(count_halves) == builds
    dunkl_transform_many(rs_one, f, targets(0), plan)
    assert len(count_halves) == builds + 1
    # plain halves of multiplier_P on other targets are kept too, and push the rest out,
    # while the halves on the plan's own grids stay
    own = _own_keys(plan)
    for shift in range(_TARGET_KERNELS):
        multiplier_P_many(rs_one, f, targets(shift), plan)
    assert all(key[:3] == ("freq", 0, 0.0) for key in kept())
    assert set(own) <= set(_own_keys(plan))
    assert np.array_equal(multiplier_P_many(rs_one, f, targets(0), plan),
                          multiplier_P_many(rs_one, f, targets(0), make_plan(rs_one, grid_n=16)))
    assert len(kept()) == _TARGET_KERNELS


def test_kept_kernel_halves_are_read_only(rs_one):
    plan = make_plan(rs_one, grid_n=16)
    ys = np.array([0.3, 1.7])
    kept = [
        plan.axis_kernel("space", 0, 1.0, plan.freq.nodes),
        plan.axis_kernel("freq", 0, 1.0, plan.space.nodes),
        plan.axis_kernel("space", 0, 1.0, ys),
        plan.axis_kernel("space_plain", 0, 0.0, ys),
    ]
    for halves in kept:
        for part in halves:
            with pytest.raises(ValueError):
                part[0] = 0
    assert not any(part.flags.writeable for halves in plan.kernels.values() for part in halves)


def test_a_repeated_line_suite_reuses_its_explicit_grid_plan(count_halves):
    config = SuiteConfig("translation", parse_preset("z2:1"), grid_n=48)
    first = run_suite(config)
    count_halves.clear()
    second = run_suite(config)
    assert count_halves == []
    assert second.body_bytes() == first.body_bytes()
    assert second.all_passed


def test_a_target_set_on_a_plan_grid_takes_that_grids_halves():
    # convolution-commutes translates onto the space grid at three base points:
    # 288 targets whose 48 distinct |y| are the grid's positive nodes, so the
    # inverse onto them takes the space grid's own pair, with its own back and sign
    rs = parse_preset("z2:1")
    run_suite(SuiteConfig("translation", rs, grid_n=48))
    plan = default_line_plan(rs, 48)
    own = plan.kernels[("freq", 0, 1.0, plan.space.nodes.tobytes())]
    shared = [halves for key, halves in plan.kernels.items() if key not in _own_keys(plan) and halves[0] is own[0]]
    assert [(len(back), O is own[1]) for E, O, back, sign in shared] == [(288, True)]
    # the halves on the magnitudes of a plan grid are held once
    owns = {key: plan.kernels[key] for key in _own_keys(plan)}
    for key, (E, O, back, sign) in plan.kernels.items():
        twins = [halves for mine, halves in owns.items() if mine[:3] == key[:3] and halves[0].shape == E.shape
                 and np.array_equal(halves[0], E) and np.array_equal(halves[1], O)]
        assert all(halves[0] is E and halves[1] is O for halves in twins), key[:3]


def test_a_default_plan_holds_halves_not_complex_matrices():
    # after inversion@z2:1#96, every kept pair on the plan's own grids holds a
    # quarter of the bytes of the complex (nodes x targets) matrix it replaces,
    # and every other pair at most half; no kept array is complex
    rs = parse_preset("z2:1")
    run_suite(SuiteConfig("inversion", rs, grid_n=96))
    plan = default_line_plan(rs, 96)
    own = _own_keys(plan)
    assert own and len(plan.kernels) > len(own)
    held = replaced = 0
    for key, (E, O, back, sign) in plan.kernels.items():
        complex_bytes = 16 * len(plan.axis_nodes(key[0], key[1])) * (len(key[3]) // 8)
        halves_bytes = E.nbytes + O.nbytes
        assert halves_bytes * (4 if key in own else 2) <= complex_bytes, key[:3]
        assert not any(np.iscomplexobj(part) for part in (E, O, back, sign))
        held += halves_bytes + back.nbytes + sign.nbytes
        replaced += complex_bytes
    # 1.81 MB against 4.27 MB: the 800 dual-rule nodes and the 384 averaging
    # points of this suite have no mirror symmetry (800 and 257 distinct |y|),
    # so their halves are 1/2 and 1/3 of their complex matrices
    assert held <= 0.43 * replaced


def _fresh_line_plans(monkeypatch):
    """Give default_line_plan an empty cache of its own in every dunklkit module
    that bound it, so plans built under a patched builder are thrown away."""
    cached = default_line_plan
    fresh = functools.lru_cache(maxsize=cached.cache_info().maxsize)(cached.__wrapped__)
    for name, module in list(sys.modules.items()):
        if name.startswith("dunklkit") and getattr(module, "default_line_plan", None) is cached:
            monkeypatch.setattr(module, "default_line_plan", fresh)


@pytest.mark.parametrize("suite, preset, grid_n, plan_checks", [
    ("translation", "z2:1", 48, [
        "translate-at-zero", "translation-paths-product", "translation-paths-integer",
        "convolution-transform-law", "convolution-commutes", "distribution-convolution-transform",
        "density-point-mass-product-law", "translation-commutes-with-operator"]),
    ("inversion", "z2:7/3", 48, [
        "forward-roundtrip", "dual-inverse-paths-agree", "dual-roundtrip"]),
    ("approx-identity", "z2:7/3", 48, ["residual-decay", "smallest-eps-residual", "monotone-trend"]),
])
def test_nan_plan_kernels_fail_the_spectral_suites(suite, preset, grid_n, plan_checks, monkeypatch):
    original = transform._kernel_halves
    monkeypatch.setattr(
        transform, "_kernel_halves", lambda *args: tuple(np.full_like(h, np.nan) for h in original(*args))
    )
    _fresh_line_plans(monkeypatch)
    report = run_suite(SuiteConfig(suite, parse_preset(preset), grid_n=grid_n))
    assert report.status == "fail"
    by_id = {c.id: c for c in report.checks}
    for check_id in plan_checks:
        assert math.isnan(by_id[check_id].residual) and not by_id[check_id].passed, check_id
