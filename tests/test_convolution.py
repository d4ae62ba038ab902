import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit.convolution import (
    BumpProfile,
    ConcreteDistribution,
    approx_identity_check,
    convolve,
    convolve_many,
    distribution_convolve,
    kernel_multiplier,
    translate_measure,
    translate_spectral,
    translate_spectral_many,
)
from dunklkit.errors import InvalidArgumentError, UnsupportedCaseError
from dunklkit.functions import PolyGauss, gaussian, standard_bump
from dunklkit import intertwine1d
from dunklkit.intertwine1d import default_line_plan, inv_V_via_P, mu_quadrature
from dunklkit.kernel import kernel_1d
from dunklkit.rootsys import axis_product, rank_one
from dunklkit.transform import dunkl_transform_many, make_plan, weighted_line_grid


# ----------------------------------------------------------------- translation


def test_translate_at_zero_is_identity(rs_one, plan_one):
    f = PolyGauss.monomial(2)
    ys = np.linspace(-3.0, 3.0, 13)
    vals = translate_spectral_many(rs_one, f, 0.0, ys, plan_one)
    assert np.max(np.abs(np.real(vals) - f(ys))) < 1e-8
    assert np.max(np.abs(np.imag(vals))) < 1e-10


def test_translate_gamma_zero_is_shift(rs_zero):
    f = gaussian()
    plan = default_line_plan(rs_zero)
    x, ys = 0.8, np.array([-1.0, 0.2, 1.5])
    vals = translate_spectral_many(rs_zero, f, x, ys, plan)
    assert np.max(np.abs(np.real(vals) - f(x + ys))) < 1e-9


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_translate_paths_agree(gamma, lines):
    rs = lines[gamma]
    plan = default_line_plan(rs)
    f = gaussian()
    for x, y in [(0.5, 1.0), (1.2, -0.6), (-0.8, -0.9)]:
        spectral = float(np.real(translate_spectral(rs, f, x, y, plan)))
        via_p = translate_measure(rs, f, x, y, method="P", plan=plan)
        via_q = translate_measure(rs, f, x, y, method="Q", plan=plan)
        assert spectral == pytest.approx(via_p, abs=2e-6)
        assert spectral == pytest.approx(via_q, abs=2e-6)


def test_translate_symmetric_in_arguments(rs_one, plan_one):
    f = gaussian()
    a = translate_spectral(rs_one, f, 0.7, 1.3, plan_one)
    b = translate_spectral(rs_one, f, 1.3, 0.7, plan_one)
    assert complex(a) == pytest.approx(complex(b), abs=1e-10)


def test_kernel_multiplier_at_origin(rs_two):
    ts = np.linspace(-3.0, 3.0, 7)
    assert np.allclose(kernel_multiplier(rs_two, 0.0, ts), 1.0, atol=1e-14)


# ----------------------------------------------------------------- batched translation

PAIRS_X = np.array([0.5, 1.2, 0.0, -0.8])
PAIRS_Y = np.array([1.0, -0.6, 1.5, -0.9])


@pytest.mark.parametrize("gamma, method", [
    (1.0, "P"), (2.0, "P"), (7.0 / 3.0, "P"), (1.0, "Q"), (2.0, "Q"),
])
def test_translate_measure_batch_matches_pair_loop(gamma, method, lines):
    rs = lines[gamma]
    plan = default_line_plan(rs)
    for f in (gaussian(), PolyGauss.monomial(1), PolyGauss.monomial(2)):
        batch = translate_measure(rs, f, PAIRS_X, PAIRS_Y, method=method, plan=plan)
        loop = [
            translate_measure(rs, f, x, y, method=method, plan=plan) for x, y in zip(PAIRS_X, PAIRS_Y)
        ]
        assert batch.shape == PAIRS_X.shape
        np.testing.assert_allclose(batch, loop, rtol=1e-12)


def test_translate_measure_broadcasts_one_base_point(rs_one, plan_one):
    f = gaussian()
    batch = translate_measure(rs_one, f, 0.7, PAIRS_Y, plan=plan_one)
    loop = [translate_measure(rs_one, f, 0.7, y, plan=plan_one) for y in PAIRS_Y]
    np.testing.assert_allclose(batch, loop, rtol=1e-12)


@pytest.mark.parametrize("gamma", [1.0, 7.0 / 3.0])
def test_separable_measure_route_matches_direct_double_average(gamma, lines):
    # the double average of the multiplier-after-dual inverse at every node pair
    rs = lines[gamma]
    plan = default_line_plan(rs)
    f = gaussian()
    t, w = mu_quadrature(gamma, 48)
    for x, y in zip(PAIRS_X, PAIRS_Y):
        vals = inv_V_via_P(rs, f, np.add.outer(x * t, y * t).reshape(-1), plan=plan)
        direct = w @ vals.reshape(48, 48) @ w
        assert translate_measure(rs, f, x, y, plan=plan) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("method", ["P", "Q"])
def test_translate_measure_scalar_pair_gives_float(method, rs_one, plan_one):
    val = translate_measure(rs_one, gaussian(), 0.5, 1.0, method=method, plan=plan_one)
    assert type(val) is float


@pytest.fixture
def count_tV(monkeypatch):
    """Count calls of tV_k_num in every dunklkit module that imported it."""
    original = intertwine1d.tV_k_num
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("dunklkit") and getattr(module, "tV_k_num", None) is original:
            monkeypatch.setattr(module, "tV_k_num", counted)
    return calls


@pytest.mark.parametrize("pairs", [4, 16])
def test_measure_route_applies_the_dual_once_per_call(pairs, count_tV, rs_one, plan_one):
    xs, ys = np.linspace(-1.2, 1.2, pairs), np.linspace(1.5, -0.9, pairs)
    translate_measure(rs_one, gaussian(), xs, ys, method="P", plan=plan_one)
    assert len(count_tV) == 1
    np.testing.assert_array_equal(count_tV[0], plan_one.space_plain.nodes)


def test_q_route_does_no_dual_quadrature_on_the_gaussian_family(count_tV, rs_one, plan_one):
    fs = [gaussian(), PolyGauss.monomial(1), PolyGauss.monomial(2)]
    translate_measure(rs_one, fs, PAIRS_X, PAIRS_Y, method="Q", plan=plan_one)
    assert count_tV == []


def test_q_route_applies_the_dual_once_to_every_pair_of_a_bump(count_tV, rs_one, plan_one):
    out = translate_measure(rs_one, [gaussian(), standard_bump()], PAIRS_X, PAIRS_Y, method="Q", plan=plan_one)
    assert out.shape == (2, len(PAIRS_X)) and np.all(np.isfinite(out))
    assert len(count_tV) == 1
    assert count_tV[0].shape == (len(PAIRS_X) * 48 * 48,)


@pytest.mark.parametrize("gamma, method", [(1.0, "P"), (2.0, "P"), (1.0, "Q"), (2.0, "Q")])
def test_translate_measure_of_a_sequence_matches_the_per_function_calls(gamma, method, lines):
    rs = lines[gamma]
    plan = default_line_plan(rs)
    fs = [gaussian(), PolyGauss.monomial(1), PolyGauss.monomial(2)]
    together = translate_measure(rs, fs, PAIRS_X, PAIRS_Y, method=method, plan=plan)
    assert together.shape == (len(fs), len(PAIRS_X))
    one_pair = translate_measure(rs, fs, 0.5, 1.0, method=method, plan=plan)
    for got, singles in ((together, [translate_measure(rs, f, PAIRS_X, PAIRS_Y, method=method, plan=plan)
                                     for f in fs]),
                         (one_pair, [translate_measure(rs, f, 0.5, 1.0, method=method, plan=plan) for f in fs])):
        if method == "Q":  # each function's exact inverse on its own
            np.testing.assert_array_equal(got, singles)
        else:  # route P's coefficients of every function are one matrix product, equal to rounding
            for row, single in zip(got, singles):
                assert np.max(np.abs(row - single)) <= 4e-15 * np.max(np.abs(single))


@pytest.mark.parametrize("gamma", [1.0, 7.0 / 3.0])
def test_translate_spectral_pairs_match_scalar_loop(gamma, lines):
    rs = lines[gamma]
    plan = default_line_plan(rs)
    for f in (gaussian(), PolyGauss.monomial(1)):
        batch = translate_spectral_many(rs, f, PAIRS_X, PAIRS_Y, plan)
        loop = [translate_spectral(rs, f, x, y, plan) for x, y in zip(PAIRS_X, PAIRS_Y)]
        assert batch.shape == PAIRS_X.shape
        np.testing.assert_allclose(np.real(batch), loop, rtol=1e-12, atol=1e-15)


def test_translate_spectral_pairs_on_a_product():
    rs = axis_product(1, 2)
    plan = make_plan(rs, grid_n=32)
    f = lambda p: np.exp(-np.sum(np.asarray(p) ** 2, axis=-1) / 2.0)
    xs = np.array([[0.5, -0.3], [1.0, 0.2], [0.0, 0.7]])
    ys = np.array([[0.4, 0.6], [-0.5, 0.1], [0.9, -0.2]])
    batch = translate_spectral_many(rs, f, xs, ys, plan)
    loop = [translate_spectral(rs, f, x, y, plan) for x, y in zip(xs, ys)]
    np.testing.assert_allclose(np.real(batch), loop, rtol=1e-12)


# ----------------------------------------------------------------- convolution


def test_convolve_many_matches_scalar(rs_one, plan_one):
    f = gaussian()
    g = lambda y: np.exp(-np.asarray(y) ** 2 / 4.0)
    xs = np.array([0.0, 0.6, -1.1])
    many = convolve_many(rs_one, f, g, xs, plan_one)
    for i, x in enumerate(xs):
        assert convolve(rs_one, f, g, float(x), plan_one) == pytest.approx(
            float(np.real(many[i])), abs=1e-12
        )


def _translate_and_sum(rs, f, g, x, plan):
    """f * g at x by the translation definition: sum_y w(y) tau_x f(-y) g(y)."""
    nodes = plan.space.nodes
    tv = translate_spectral_many(rs, f, x, -nodes, plan)
    return float(np.real(np.sum(plan.space.weights * tv * np.asarray(g(nodes)))))


def test_convolution_commutes(rs_two, plan_two):
    # f * g through the transform against g * f by the translation definition
    f = gaussian()
    g = lambda y: np.exp(-np.asarray(y) ** 2 / 4.0) * (1.0 + np.asarray(y))
    xs = np.array([0.3, 1.2, -0.7])
    fg = np.real(convolve_many(rs_two, f, g, xs, plan_two))
    gf = [_translate_and_sum(rs_two, g, f, x, plan_two) for x in xs]
    assert np.max(np.abs(fg - gf)) < 1e-9


def test_convolution_on_a_product_matches_translate_and_sum():
    rs = axis_product(1, 2)
    plan = make_plan(rs, grid_n=32)
    f = lambda p: np.exp(-np.sum(np.asarray(p) ** 2, axis=-1) / 2.0)
    g = lambda p: np.exp(-np.sum(np.asarray(p) ** 2, axis=-1) / 4.0) * (1.0 + np.atleast_2d(p)[:, 0])
    xs = np.array([[0.0, 0.0], [0.5, -0.3], [1.0, 0.7]])
    ref = np.array([_translate_and_sum(rs, f, g, x, plan) for x in xs])
    many = convolve_many(rs, f, g, xs, plan)
    one = [convolve(rs, f, g, x, plan) for x in xs]
    np.testing.assert_allclose(np.real(many), ref, rtol=1e-12)
    np.testing.assert_allclose(one, ref, rtol=1e-12)


def test_convolution_transform_is_product(rs_one, plan_one):
    # transform of f * g equals the product of the transforms
    f = gaussian()
    g = lambda y: np.exp(-np.asarray(y) ** 2 / 4.0)
    nodes, w = plan_one.space.nodes, plan_one.space.weights
    conv = np.real(convolve_many(rs_one, f, g, nodes, plan_one))
    ts = np.array([0.0, 0.4, 1.1, -1.6])
    ker = kernel_1d(1.0, nodes[:, None], -1j * ts[None, :])
    lhs = (w * conv) @ ker
    rhs = dunkl_transform_many(rs_one, f, ts, plan_one) * dunkl_transform_many(
        rs_one, g, ts, plan_one
    )
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-6


def test_convolve_rejects_higher_rank(rs_product, plan_two):
    with pytest.raises(UnsupportedCaseError):
        convolve_many(rs_product, gaussian(), gaussian(), np.array([[0.0, 0.0]]))


# ----------------------------------------------------------------- distributions


def test_point_mass_convolution_is_translation(rs_one, plan_one):
    # convolving with the point mass at z translates by -z; the translation
    # is symmetric in its two arguments
    z = 0.7
    S = ConcreteDistribution.point_mass(z)
    phi = gaussian()
    for x in (0.0, 0.5, -1.2):
        lhs = float(np.real(distribution_convolve(rs_one, S, phi, x, plan_one)))
        rhs = float(np.real(translate_spectral(rs_one, phi, -z, x, plan_one)))
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_point_mass_convolution_classical_limit(rs_zero):
    S = ConcreteDistribution.point_mass(0.4)
    phi = gaussian()
    for x in (0.0, 0.9, -1.3):
        lhs = float(np.real(distribution_convolve(rs_zero, S, phi, x)))
        assert lhs == pytest.approx(phi(np.array([x - 0.4]))[0], abs=1e-9)


def test_weighted_distribution_pairing(rs_one, plan_one):
    g = lambda x: np.exp(-np.asarray(x) ** 2 / 8.0)
    S = ConcreteDistribution.weighted(g)
    f = PolyGauss.monomial(2)
    nodes, w = plan_one.space.nodes, plan_one.space.weights
    expected = float(np.sum(w * g(nodes) * f(nodes)))
    assert complex(S.pair(f, plan_one)).real == pytest.approx(expected, rel=1e-14)


# ----------------------------------------------------------------- bump


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_bump_unit_mass(gamma, lines):
    bump = BumpProfile.create(lines[gamma])
    assert bump.mass() == pytest.approx(1.0, abs=1e-12)
    assert bump.scaled(0.25).mass() == pytest.approx(1.0, abs=1e-12)


def test_bump_transform_at_zero(rs_one):
    bump = BumpProfile.create(rs_one, 0.5)
    assert complex(bump.transform_at(np.array([0.0]))[0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("gamma", [0, Fraction(1, 2), 1, Fraction(7, 3), 4])
@pytest.mark.parametrize("eps", [1.0, 0.05])
def test_bump_transform_matches_the_full_grid_kernel_sum(gamma, eps):
    # reference: the weighted sum against K(x, -iy) over the mirrored support
    # grid of the same Jacobi nodes, odd part and all
    rs = rank_one(gamma)
    bump = BumpProfile.create(rs, eps)
    ys = np.concatenate([[0.0], default_line_plan(rs).freq.nodes, np.linspace(-9.0, 9.0, 81)])
    grid = weighted_line_grid(float(gamma), eps, 160)
    ref = (grid.weights * bump(grid.nodes)) @ kernel_1d(float(gamma), grid.nodes[:, None], -1j * ys[None, :])
    got = bump.transform_at(ys)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-14


def test_bump_support(rs_one):
    bump = BumpProfile.create(rs_one, 0.5)
    vals = bump(np.array([0.51, 0.7, -0.6]))
    assert np.max(np.abs(vals)) == 0.0
    assert bump(np.array([0.2]))[0] > 0.0


def test_bump_epsilon_validation(rs_one):
    with pytest.raises(InvalidArgumentError):
        BumpProfile.create(rs_one, 1.5)
    with pytest.raises(InvalidArgumentError):
        BumpProfile.create(rs_one, 0.0)


# ----------------------------------------------------------------- approximate identity


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_approx_identity_passes(gamma, lines):
    S = ConcreteDistribution.weighted(lambda x: np.exp(-np.asarray(x) ** 2 / 8.0))
    report = approx_identity_check(lines[gamma], S)
    assert report.status == "pass"
    by_id = {c.id: c for c in report.checks}
    assert by_id["residual-decay"].residual <= 0.2
    assert by_id["smallest-eps-residual"].residual <= 1e-4
    assert np.isfinite(float(report.env["fitted_M"]))


def test_approx_identity_eps_validation(rs_one):
    S = ConcreteDistribution.weighted(lambda x: np.exp(-np.asarray(x) ** 2 / 8.0))
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        approx_identity_check(rs_one, S, eps_seq=(0.5, 0.5))
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        approx_identity_check(rs_one, S, eps_seq=(1.5, 0.5))
    with pytest.raises(InvalidArgumentError, match="epsilon"):
        approx_identity_check(rs_one, S, eps_seq=(0.5, 0.01))
    with pytest.raises(UnsupportedCaseError):
        approx_identity_check(rs_one, ConcreteDistribution.point_mass(0.0))


# ----------------------------------------------------------------- properties


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-1.2, max_value=1.2), st.sampled_from([rank_one(1), rank_one(2)]))
def test_translation_linearity(x, rs):
    plan = default_line_plan(rs)
    f = gaussian()
    g = PolyGauss.monomial(2)
    ys = np.array([0.4])
    lhs = translate_spectral_many(rs, lambda t: f(t) + g(t), x, ys, plan)[0]
    rhs = (
        translate_spectral_many(rs, f, x, ys, plan)[0]
        + translate_spectral_many(rs, g, x, ys, plan)[0]
    )
    assert complex(lhs) == pytest.approx(complex(rhs), abs=1e-10)
