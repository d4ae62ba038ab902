import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dunklkit import kernel
from dunklkit.cli import parse_preset
from dunklkit.errors import AccuracyWarning, InvalidArgumentError, UnsupportedCaseError
from dunklkit.functions import PolyGauss, gaussian, standard_bump
from dunklkit.kernel import kernel_1d
from dunklkit.rootsys import axis_product, mehta_constant, rank_one
from dunklkit.suites import SuiteConfig, run_suite
from dunklkit.transform import (
    _TARGET_KERNELS,
    DecayClass,
    TransformPlan,
    SampledFunction,
    classical_fourier_many,
    dunkl_inverse_many,
    dunkl_roundtrip_many,
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
    for grid in (weighted_line_grid(1.0), plain_line_grid()):
        assert grid.calibration_residual() < 1e-9


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
    for alpha in (0.0, 0.5, 1.5):
        for lam in (0.0, 0.7, 1.9):
            val = fourier_bessel(
                lambda r: np.exp(-0.5 * r**2), lam, alpha, radius=9.0, n=200
            )
            assert val == pytest.approx(math.exp(-0.5 * lam**2), abs=1e-13)


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
    with pytest.raises(InvalidArgumentError):
        DecayClass.compact(0.0)
    assert not DecayClass.poly_growth(2).integrable


def test_sampled_growth_warns(plan_one, rs_one):
    from dunklkit.transform import dunkl_transform

    bad = sampled(lambda x: np.exp(np.abs(np.asarray(x))), DecayClass.schwartz(), "liar")
    with pytest.warns(AccuracyWarning):
        dunkl_transform(rs_one, bad, 0.0, plan_one)


def test_poly_growth_rejected_by_transform(plan_one, rs_one):
    grows = sampled(lambda x: np.asarray(x) ** 2, DecayClass.poly_growth(2))
    from dunklkit.transform import dunkl_transform

    with pytest.raises(InvalidArgumentError):
        dunkl_transform(rs_one, grows, 0.0, plan_one)


def test_bump_sampled_has_compact_decay():
    s = standard_bump().as_sampled()
    assert s.decay.kind == "compact"
    assert s.decay.radius == 1.0


def test_make_plan_shapes(rs_product):
    plan = make_plan(rs_product, grid_n=24, freq_count=17)
    assert plan.space.nodes.shape[1] == 2
    assert plan.freq_points.shape == (17 * 17, 2)
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


# -- plan-owned kernel matrices ---------------------------------------------------


@pytest.fixture
def count_kernel_1d(monkeypatch):
    """Wrap kernel_1d in every dunklkit module that imported it; returns the
    list of broadcast sizes, one entry per call."""
    original = kernel.kernel_1d
    sizes = []

    def counted(gamma, z, t):
        sizes.append(np.broadcast(np.asarray(z), np.asarray(t)).size)
        return original(gamma, z, t)

    for name, module in list(sys.modules.items()):
        if name.startswith("dunklkit") and getattr(module, "kernel_1d", None) is original:
            monkeypatch.setattr(module, "kernel_1d", counted)
    return sizes


def test_line_plan_matrices_equal_direct_kernels():
    g = 7 / 3
    plan = make_plan(rank_one(Fraction(7, 3)), grid_n=24, freq_count=33)
    x, t = plan.space.nodes, plan.freq.nodes
    forward = plan.axis_kernel("space", 0, g, -1j, t)
    # the inverse onto the space grid is the mirror of the forward matrix
    inverse = plan.axis_kernel("freq", 0, g, 1j, x)
    assert np.array_equal(forward, kernel_1d(g, x[:, None], -1j * t[None, :]))
    assert np.array_equal(inverse, kernel_1d(g, t[:, None], 1j * x[None, :]))
    # the convolution blocks K(-x, i t) and K(i x, t) are the forward matrix and its conjugate
    assert np.array_equal(forward, kernel_1d(g, -x[:, None], 1j * t[None, :]))
    assert np.array_equal(inverse.T, kernel_1d(g, 1j * x[:, None], t[None, :]))
    # built inverse first, the forward matrix is the mirror
    other = make_plan(rank_one(Fraction(7, 3)), grid_n=24, freq_count=33)
    assert np.array_equal(other.axis_kernel("freq", 0, g, 1j, x), inverse)
    assert np.array_equal(other.axis_kernel("space", 0, g, -1j, t), forward)


def test_product_plan_matrices_and_transform_match_direct_sums(rs_product):
    plan = make_plan(rs_product, grid_n=6, freq_count=5)
    gammas = [1.0, 2.0]
    for j, g in enumerate(gammas):
        x, t = plan.axis_nodes("space", j), plan.axis_nodes("freq", j)
        assert np.array_equal(plan.axis_kernel("space", j, g, -1j, t), kernel_1d(g, x[:, None], -1j * t[None, :]))
        assert np.array_equal(plan.axis_kernel("freq", j, g, 1j, x), kernel_1d(g, t[:, None], 1j * x[None, :]))

    def f(p):
        p = np.atleast_2d(p)
        return (1.0 + p[:, 0] - 0.5 * p[:, 1]) * np.exp(-0.5 * np.sum(p * p, axis=-1))

    def direct(grid, fvals, ys, side):
        ker = np.ones((len(grid.nodes), len(ys)), dtype=complex)
        for j, g in enumerate(gammas):
            ker *= kernel_1d(g, grid.nodes[:, j, None], side * ys[None, :, j])
        return (grid.weights * fvals) @ ker

    ys = np.array([[0.3, -1.1], [2.0, 0.5], [-0.7, 0.0]])
    on_grid = dunkl_transform_many(rs_product, f, plan.freq.nodes, plan)
    ref = direct(plan.space, f(plan.space.nodes), plan.freq.nodes, -1j)
    assert np.allclose(on_grid, ref, rtol=1e-13, atol=1e-15)
    assert np.allclose(dunkl_transform_many(rs_product, f, ys, plan),
                       direct(plan.space, f(plan.space.nodes), ys, -1j), rtol=1e-13, atol=1e-15)
    inv = dunkl_inverse_many(rs_product, on_grid, ys, plan)
    const = inverse_constant(rs_product)
    assert np.allclose(inv, const * direct(plan.freq, on_grid, ys, 1j), rtol=1e-13, atol=1e-15)


def test_repeated_transforms_build_one_kernel_matrix(count_kernel_1d, rs_one):
    plan = make_plan(rs_one, grid_n=16, freq_count=17)
    for m in range(3):
        dunkl_transform_many(rs_one, PolyGauss.monomial(m), plan.freq.nodes, plan)
    assert len(count_kernel_1d) == 1
    # the inverse onto the space grid and a repeated target set build nothing new
    dunkl_inverse_many(rs_one, np.ones(len(plan.freq.nodes)), plan.space.nodes, plan)
    ys = np.linspace(-2.0, 2.0, 7)
    for m in range(3):
        dunkl_transform_many(rs_one, PolyGauss.monomial(m), ys, plan)
    assert len(count_kernel_1d) == 2


def test_product_forward_transform_evaluates_axis_matrices_only(count_kernel_1d, rs_product):
    plan = make_plan(rs_product, grid_n=32, freq_count=9)
    dunkl_transform_many(rs_product, lambda p: np.exp(-0.5 * np.sum(p * p, axis=-1)), plan.freq.nodes, plan)
    n_space, n_freq = len(plan.axis_nodes("space", 0)), len(plan.axis_nodes("freq", 0))
    # one (space axis x frequency axis) matrix per axis; building the kernel at
    # every tensor frequency costs d n_space n_freq^d entries
    assert sum(count_kernel_1d) <= rs_product.dimension * n_space * n_freq


def test_target_kernel_cache_is_bounded(count_kernel_1d, rs_one):
    plan = make_plan(rs_one, grid_n=16, freq_count=17)
    f = PolyGauss.monomial(1)
    for shift in range(2 * _TARGET_KERNELS):
        dunkl_transform_many(rs_one, f, np.array([0.1 * shift, 1.0]), plan)
    kept = [key for key in plan.kernels if isinstance(key[-1], bytes)]
    assert len(kept) == _TARGET_KERNELS
    calls = len(count_kernel_1d)
    # the most recent target set is kept; the oldest was dropped and is built again
    dunkl_transform_many(rs_one, f, np.array([0.1 * (2 * _TARGET_KERNELS - 1), 1.0]), plan)
    assert len(count_kernel_1d) == calls
    dunkl_transform_many(rs_one, f, np.array([0.0, 1.0]), plan)
    assert len(count_kernel_1d) == calls + 1


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
    original = TransformPlan.axis_kernel
    monkeypatch.setattr(
        TransformPlan, "axis_kernel", lambda self, *args: np.full_like(original(self, *args), np.nan)
    )
    report = run_suite(SuiteConfig(suite, parse_preset(preset), grid_n=grid_n))
    assert report.status == "fail"
    by_id = {c.id: c for c in report.checks}
    for check_id in plan_checks:
        assert math.isnan(by_id[check_id].residual) and not by_id[check_id].passed, check_id
