import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit.cli import parse_preset
from dunklkit.errors import AccuracyError, InvalidArgumentError, UnsupportedCaseError
from dunklkit.kernel import (
    _bessel_series,
    bessel_j_normalized,
    check_bounds,
    kernel_1d,
    kernel_1d_dz,
    kernel_series,
    kernel_value,
)
from dunklkit.rootsys import RootSystem, axis_product, rank_one


def test_bessel_normalized_at_zero():
    for alpha in (-0.5, 0.0, 0.5, 1.5, 2.0):
        assert bessel_j_normalized(alpha, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_bessel_normalized_half_is_sinc():
    u = np.linspace(0.1, 8.0, 40)
    # j_{1/2}(u) = sin(u)/u after the normalization
    assert np.allclose(bessel_j_normalized(0.5, u), np.sin(u) / u, atol=1e-13)


def test_kernel_gamma_zero_is_exponential():
    z = np.array([0.3, -1.2, 2.0])
    t = 1.7
    assert np.allclose(kernel_1d(0, z, t), np.exp(z * t), rtol=0, atol=1e-15)


def test_kernel_value_at_zero(rs_one):
    assert kernel_value(rs_one, 0.0, 2.3) == pytest.approx(1.0, abs=1e-15)
    assert kernel_value(rs_one, 1.4, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_kernel_gamma_one_closed_form():
    # gamma = 1: K(z, t) = (sinh u - u cosh u ... ) reduces to
    # j_{1/2}(izt) + zt/3 j_{3/2}(izt); check against the elementary form
    z, t = 1.3, 0.8
    u = z * t
    expected = (math.cosh(u) - math.sinh(u) / u) / u + math.sinh(u) / u
    assert kernel_1d(1, z, t) == pytest.approx(expected, rel=1e-13)


def test_kernel_symmetry(rs_two):
    a = kernel_value(rs_two, 0.9, 1.7)
    b = kernel_value(rs_two, 1.7, 0.9)
    assert a == pytest.approx(b, rel=1e-13)


def test_kernel_product_factorizes(rs_product):
    x = np.array([0.7, -1.1])
    z = np.array([1.2, 0.4])
    prod = kernel_1d(1, x[0], z[0]) * kernel_1d(2, x[1], z[1])
    assert kernel_value(rs_product, x, z) == pytest.approx(prod, rel=1e-13)


@pytest.mark.parametrize("gamma", [Fraction(1, 2), 1, 2, Fraction(7, 3)])
def test_series_matches_closed_form(gamma):
    rs = rank_one(gamma)
    for x, z in [(0.3, 0.9), (-1.1, 0.7), (1.2, -1.2)]:
        closed = kernel_value(rs, x, z)
        series = kernel_series(rs, x, z)
        assert abs(closed - series) < 1e-10


def test_series_product_system(rs_product):
    x = np.array([0.5, -0.8])
    z = np.array([0.9, 0.3])
    assert abs(kernel_value(rs_product, x, z) - kernel_series(rs_product, x, z)) < 1e-10


def test_series_truncation_guard():
    # |x||z| = 16 leaves a tail of about 0.7 after the 40 terms
    rs = rank_one(1)
    with pytest.raises(AccuracyError):
        kernel_series(rs, 4.0, 4.0)


def test_kernel_derivative_matches_difference():
    for gamma in (0.0, 1.0, 2.5):
        z, t = 0.9, 1.4
        h = 1e-6
        fd = (kernel_1d(gamma, z + h, t) - kernel_1d(gamma, z - h, t)) / (2 * h)
        assert kernel_1d_dz(gamma, z, t) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("gamma, z", [(1.0, 30.0), (1.0, -30.0), (2.0, 30.0)])
def test_kernel_derivative_overflow_raises(gamma, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match="overflow"):
            kernel_1d_dz(gamma, z, 30.0)


def test_negative_gamma_rejected():
    with pytest.raises(InvalidArgumentError):
        kernel_1d(-0.5, 1.0, 1.0)


def test_check_bounds_report(rs_one):
    rng = np.random.default_rng(3)
    samples = [(rng.uniform(-4, 4, 1), rng.uniform(-4, 4, 1)) for _ in range(50)]
    report = check_bounds(rs_one, samples)
    assert report.all_passed
    ids = {c.id for c in report.checks}
    assert "unit-bound-imaginary" in ids
    assert "value-at-zero" in ids


def test_check_bounds_dimension_mismatch(rs_product):
    with pytest.raises(InvalidArgumentError):
        check_bounds(rs_product, [(np.array([1.0]), np.array([1.0, 2.0]))])


def test_check_bounds_refuses_ragged_pairs_wrong_dimensions_and_non_pairs_by_name(rs_product):
    x, y = np.array([1.0, 0.5]), np.array([-0.5, 2.0])
    with pytest.raises(InvalidArgumentError, match="no array of numbers"):  # ragged
        check_bounds(rs_product, [(x, y), (x, y[:1])])
    with pytest.raises(InvalidArgumentError, match="last axis of length 2; got shape"):
        check_bounds(rs_product, np.zeros((4, 2, 3)))
    with pytest.raises(InvalidArgumentError, match="last axis of length 2; got shape"):
        check_bounds(rs_product, [(x[:1], y[:1])])
    with pytest.raises(InvalidArgumentError, match="pairs"):
        check_bounds(rs_product, np.zeros((4, 3, 2)))
    with pytest.raises(InvalidArgumentError, match="at least one sample"):
        check_bounds(rs_product, np.empty((0, 2, 2)))


@pytest.mark.parametrize("preset", ["z2:2", "z2xz2:1,2"])
def test_check_bounds_reads_a_list_of_pairs_as_the_stacked_array(preset):
    rs = parse_preset(preset)
    samples = np.random.default_rng(6).uniform(-4, 4, (30, 2, rs.dimension))
    body = check_bounds(rs, samples).body_bytes()
    assert check_bounds(rs, [(x, y) for x, y in samples]).body_bytes() == body
    assert check_bounds(rs, [tuple(pair) for pair in samples.tolist()]).body_bytes() == body
    if rs.dimension == 1:  # scalar pairs on the line
        assert check_bounds(rs, samples[..., 0]).body_bytes() == body
        assert check_bounds(rs, [(float(x), float(y)) for x, y in samples[..., 0]]).body_bytes() == body
    assert check_bounds(rs, samples).env["samples"] == 30


def test_check_bounds_refuses_an_empty_sample_set_by_name(rs_one):
    with pytest.raises(InvalidArgumentError, match="at least one sample"):
        check_bounds(rs_one, [])
    with pytest.raises(InvalidArgumentError, match="at least one sample"):
        check_bounds(rs_one, np.empty((0, 2, 1)))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-4, max_value=4),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0 / 3.0]),
)
def test_imaginary_argument_bounded(x, y, gamma):
    val = kernel_1d(gamma, 1j * x, y)
    assert abs(val) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_real_argument_positive(x, y, gamma):
    # the closed form is a positive function of real arguments
    val = kernel_1d(gamma, x, y)
    assert np.real(val) > 0.0
    assert abs(np.imag(val)) < 1e-13


# -- accuracy against an independent high-precision reference ---------------

_ALPHAS = [-0.5, 0.0, 0.5, 1.5, 11 / 6, 2.5, 19 / 2]
# (0, 120], with extra points on both sides of the series radius |u| = 4, of
# 12 (the old series radius), of alpha + 1 for alpha = 3/2, 5/2 and 19/2, where
# the half-integer orders turn elementary, of 22 + alpha^2 / 8 for alpha = 0
# and 11/6, where real arguments leave Miller's recurrence for Hankel's
# expansion, and of 22 + alpha^2 / 2 for alpha = 0, 11/6 and 19/2, where
# imaginary ones leave the series for the expansion of I_alpha
_U = np.concatenate([
    np.linspace(0.05, 120.0, 320),
    [11.95, 11.999, 12.0, 12.001, 12.05, 3.99, 4.0, 4.01],
    [2.49, 2.5, 2.51, 3.49, 3.5, 3.51, 10.49, 10.5, 10.51],
    [21.99, 22.0, 22.01, 22.41, 22.42, 22.43],
    [23.67, 23.68, 23.69, 67.12, 67.125, 67.13],
])


def _reference(alpha, u, imaginary):
    """j_alpha(u) or j_alpha(iu) at 40 digits, from mpmath's J and I."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        bessel = mpmath.besseli if imaginary else mpmath.besselj
        a, x = mpmath.mpf(alpha), mpmath.mpf(float(u))
        return float(mpmath.gamma(a + 1) * bessel(a, x) / (x / 2) ** a)


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_bessel_real_argument_matches_mpmath(alpha):
    got = bessel_j_normalized(alpha, _U)
    ref = np.array([_reference(alpha, u, False) for u in _U])
    assert np.max(np.abs(got.imag)) == 0.0
    # every order: the series up to 4, then cos, sin and an upward recurrence
    # (half-integers beyond max(4, alpha + 1)), Miller's recurrence or Hankel's expansion
    assert np.max(np.abs(got.real - ref)) <= 1e-15


@pytest.mark.parametrize("alpha", [23 / 2, 25 / 2])
def test_bessel_large_half_integer_orders_below_alpha_plus_one(alpha):
    # (12, alpha + 1] is neither the series nor the elementary branch: Miller's recurrence
    u = np.concatenate([np.linspace(0.05, 60.0, 120), np.linspace(12.01, alpha + 1.0, 9), [alpha + 1.01]])
    ref = np.array([_reference(alpha, v, False) for v in u])
    assert np.max(np.abs(bessel_j_normalized(alpha, u).real - ref)) <= 1e-15


@pytest.mark.parametrize("alpha", _ALPHAS)
def test_bessel_imaginary_argument_matches_mpmath(alpha):
    got = bessel_j_normalized(alpha, 1j * _U)
    ref = np.array([_reference(alpha, u, True) for u in _U])
    assert np.max(np.abs(got.imag)) == 0.0
    assert np.max(np.abs(got.real - ref) / ref) <= 5e-15


@pytest.mark.parametrize("alpha", [0.5, 11 / 6, 13.0])
def test_bessel_imaginary_argument_up_to_the_overflow(alpha):
    # up to y = 690, where j_{1/2}(iy) is about 1e297; double precision overflows near 710
    y = np.concatenate([np.linspace(120.0, 690.0, 24), [690.0]])
    ref = np.array([_reference(alpha, v, True) for v in y])
    assert np.max(np.abs(bessel_j_normalized(alpha, 1j * y).real - ref) / ref) <= 5e-15


def test_bessel_past_the_overflow_is_inf_and_the_kernel_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bessel_j_normalized(0.5, 800j) == complex(np.inf)
        vals = bessel_j_normalized(0.5, np.array([800j, 3j]))
        assert vals[0] == np.inf and vals[1] == bessel_j_normalized(0.5, 3j)
        with pytest.raises(AccuracyError, match="overflow"):
            kernel_1d(1, 800.0, 1.0)


@pytest.mark.parametrize("alpha", [100.0, 169.5, 170.0])
def test_bessel_orders_up_to_the_limit_match_mpmath(alpha):
    # every branch: series, Miller's recurrence up to 22 + alpha^2 / 8, then Hankel;
    # imaginary u take the series in one batch, whose sums run from 1 to 1e280
    x = np.array([0.5, 3.9, 4.5, 5.0, 10.0, 30.0, 300.0, 3000.0, 22.0 + alpha * alpha / 8.0 + 1.0])
    ref = np.array([_reference(alpha, v, False) for v in x])
    assert np.max(np.abs(bessel_j_normalized(alpha, x).real - ref)) <= 1e-14
    y = np.array([0.5, 4.5, 5.0, 10.0, 30.0, 600.0, 900.0])
    ref = np.array([_reference(alpha, v, True) for v in y])
    assert np.max(np.abs(bessel_j_normalized(alpha, 1j * y).real - ref) / ref) <= 1e-14


@pytest.mark.parametrize("alpha", [170.01, 171.0, 200.0, math.nan])
@pytest.mark.parametrize("u", [4.5, 5.0, 10.0, 30.0, 5j])
def test_bessel_order_above_the_limit_is_refused_by_name(alpha, u):
    with pytest.raises(InvalidArgumentError, match="order"):
        bessel_j_normalized(alpha, u)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 11 / 6, 17 / 6, 12.0])
def test_bessel_real_dtype_stays_real_and_is_bitwise_the_complex_evaluation(alpha):
    # -150..150 crosses every real branch: the series up to 4, Miller's recurrence,
    # Hankel's expansion past 22 + alpha^2 / 8, and cos and sin for alpha = -1/2, 1/2
    u = np.concatenate([np.linspace(-150.0, 150.0, 1201), -_U, _U, [0.0, -0.0, np.nan, np.inf, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bessel_j_normalized(alpha, u)
        want = bessel_j_normalized(alpha, u.astype(complex))
    assert got.dtype == np.float64 and got.shape == u.shape
    assert got.tobytes() == np.ascontiguousarray(want.real).tobytes()
    assert np.array_equal(np.isnan(got), ~np.isfinite(u))
    grid = u[:1200].reshape(30, 40)
    assert bessel_j_normalized(alpha, grid).tobytes() == got[:1200].tobytes()
    for scalar in (2.5, np.float64(-30.0), 7, np.array(0.5)):
        value = bessel_j_normalized(alpha, scalar)
        assert type(value) is float and value == bessel_j_normalized(alpha, complex(scalar)).real
    empty = bessel_j_normalized(alpha, np.empty((0, 3)))
    assert empty.dtype == np.float64 and empty.shape == (0, 3)


def test_bessel_imaginary_points_below_the_cut_take_the_series_only(monkeypatch):
    from dunklkit import kernel

    def refuse(*args):
        raise AssertionError("the large-argument expansion ran without a point past its cut")

    monkeypatch.setattr(kernel, "_hankel_i", refuse)
    assert bessel_j_normalized(12.0, np.array([5j, 30j])).shape == (2,)


def _series_testing_every_term(alpha, half, sign, max_terms=1000):
    """The series with the batch stop test on every term: the reference for the skip."""
    term = np.ones_like(half)
    total = np.ones_like(half)
    for n in range(1, max_terms + 1):
        term *= half
        term *= half
        term /= sign * (n * n + n * alpha)
        total += term
        if np.max(np.abs(term)) <= 1e-18 * max(1.0, np.min(np.abs(total))):
            return total
    raise AccuracyError("Bessel series did not converge")


def test_bessel_series_skip_stops_where_the_every_term_test_stops():
    rng = np.random.default_rng(7)
    mixed = np.concatenate([[0.0, 1e-3, 0.5, 12.0], rng.uniform(0.0, 12.0, 60)])
    angles = rng.uniform(0.0, 2.0 * np.pi, 40)
    complex_u = rng.uniform(0.0, 30.0, 40) * np.exp(1j * angles)
    # a point whose sum is large beside one of about the same |w| whose sum is
    # small: the batch test is stricter there than the large point's own test
    lopsided = np.array([30j * np.exp(-0.01j), 29.5 * np.exp(0.01j)])
    # (u/2, sign) with w = sign (u/2)^2: real, imaginary and general complex u
    batches = [
        (np.array([7.3]) / 2.0, -1.0),
        (np.array([7.3]) / 2.0, 1.0),
        (np.array([5.0 + 6.0j]) / 2.0, -1.0),
        (mixed / 2.0, -1.0),
        (mixed / 2.0, 1.0),
        (complex_u / 2.0, -1.0),
        (lopsided / 2.0, -1.0),
        (np.concatenate([complex_u, lopsided, mixed]) / 2.0, -1.0),
    ]
    for alpha in _ALPHAS:
        for half, sign in batches:
            got = _bessel_series(alpha, half, sign)
            assert got.tobytes() == _series_testing_every_term(alpha, half, sign).tobytes()
    assert _bessel_series(0.5, np.empty(0), 1.0).shape == (0,)


def test_bessel_batch_matches_single_points():
    u = np.concatenate([_U, -_U, 1j * _U, 3.0 + 4.0j * np.linspace(0.1, 2.0, 5)])
    batch = bessel_j_normalized(1.5, u)
    single = np.array([bessel_j_normalized(1.5, complex(v)) for v in u])
    np.testing.assert_allclose(batch, single, rtol=1e-15, atol=1e-17)


# -- the batched kernel ------------------------------------------------------


@pytest.mark.parametrize("preset", ["z2:7/3", "z2xz2:1,2"])
def test_kernel_value_batch_matches_points(preset):
    rs = parse_preset(preset)
    d = rs.dimension
    rng = np.random.default_rng(11)
    x = rng.uniform(-5, 5, (40, d))
    y = rng.uniform(-5, 5, (40, d))
    for a, b in [(x, y), (1j * x, y), (x, 1j * y)]:
        batch = kernel_value(rs, a, b)
        assert batch.shape == (40,)
        # one point: a (d,) vector, or a scalar on the line
        rows = (lambda arr: arr) if d > 1 else (lambda arr: arr[:, 0])
        single = [kernel_value(rs, p, q) for p, q in zip(rows(a), rows(b))]
        assert all(type(v) is complex for v in single)
        np.testing.assert_allclose(batch, single, rtol=1e-15, atol=1e-17)
    if d == 1:
        # on the line an (m,) array is a batch, as is (m, 1)
        np.testing.assert_array_equal(kernel_value(rs, x[:, 0], y[:, 0]), kernel_value(rs, x, y))


def test_kernel_value_broadcasts_points(rs_product):
    x = np.linspace(-2.0, 2.0, 7)[:, None] * np.ones(2)
    z = np.array([0.4, -1.3])
    np.testing.assert_array_equal(kernel_value(rs_product, x, z), kernel_value(rs_product, x, np.tile(z, (7, 1))))


def test_kernel_value_dimension_mismatch(rs_product):
    with pytest.raises(InvalidArgumentError):
        kernel_value(rs_product, np.ones((4, 3)), np.ones((4, 3)))


def test_kernel_value_series_fallback_batches_rows(rs_product, monkeypatch):
    # without a product profile the kernel is the moment series, row by row
    x = np.array([[0.3, -0.5], [0.9, 0.2]])
    z = np.array([[0.7, 0.1], [-0.4, 0.6]])
    monkeypatch.setattr(type(rs_product), "axis_profile", lambda self: None)
    got = kernel_value(rs_product, x, z)
    np.testing.assert_array_equal(got, [kernel_series(rs_product, a, b) for a, b in zip(x, z)])


# -- overflow ------------------------------------------------------------------


@pytest.mark.parametrize("gamma, sign", [(0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (7 / 3, 1.0), (7 / 3, -1.0)])
def test_kernel_overflow_raises(gamma, sign):
    # at |xy| = 900 the Bessel terms overflow: inf for xy > 0 and inf - inf = nan for
    # xy < 0 (exp(-900) at gamma = 0 merely underflows to 0)
    with pytest.raises(AccuracyError, match="overflow"):
        kernel_1d(gamma, sign * 30.0, 30.0)
    with pytest.raises(AccuracyError, match="overflow"):
        kernel_1d(gamma, np.array([0.5, sign * 30.0]), 30.0)
    # |K(ix, y)| <= 1: imaginary first arguments of any size stay finite
    assert abs(kernel_1d(gamma, sign * 30j, 30.0)) <= 1.0


# -- check_bounds: NaN propagation and batching ----------------------------------


@pytest.mark.parametrize("preset", ["z2:7/3", "z2xz2:1,2"])
def test_check_bounds_matches_per_sample_loop(preset, monkeypatch):
    # a perturbed kernel breaks every bound and the invariance, so no residual is 0
    monkeypatch.setattr(
        "dunklkit.kernel.kernel_1d", lambda g, z, t: kernel_1d(g, z, t) * (1.5 + 0.1 * np.asarray(z))
    )
    rs = parse_preset(preset)
    d = rs.dimension

    def K(a, b):  # one point: a (d,) vector, or a scalar on the line
        return kernel_value(rs, a if d > 1 else a[0], b if d > 1 else b[0])

    samples = np.random.default_rng(4).uniform(-5, 5, (60, 2, d))
    group = [np.array(w, dtype=float) for w in rs.group()]
    ref = dict.fromkeys(
        ["unit-bound-imaginary", "exponential-bound-real", "sharp-exponential-bound",
         "value-at-zero", "group-invariance"], 0.0)
    for x, y in samples:
        k = K(x, y)
        excess = {
            "unit-bound-imaginary": abs(K(x, 1j * y)) - 1.0,
            "exponential-bound-real": abs(k) / math.exp(np.linalg.norm(x) * np.linalg.norm(y)) - 1.0,
            "sharp-exponential-bound": abs(k) / math.exp(np.sum(np.abs(x * y))) - 1.0,
            "value-at-zero": abs(K(0 * x, y) - 1.0),
            "group-invariance": max(abs(K(w @ x, w @ y) - k) for w in group),
        }
        ref = {key: max(ref[key], excess[key]) for key in ref}
    got = {c.id: c.residual for c in check_bounds(rs, samples).checks}
    assert got.keys() == ref.keys()
    for key, value in ref.items():
        assert value > 0.01
        assert got[key] == pytest.approx(value, rel=1e-12), key


@pytest.mark.parametrize("preset", ["z2:1", "z2xz2:1,2"])
def test_check_bounds_fails_every_check_on_nan(preset, monkeypatch):
    def nan_kernel(gamma, z, t):
        return np.full(np.broadcast(np.asarray(z), np.asarray(t)).shape, np.nan, dtype=complex)

    monkeypatch.setattr("dunklkit.kernel.kernel_1d", nan_kernel)
    rs = parse_preset(preset)
    rng = np.random.default_rng(5)
    samples = rng.uniform(-3, 3, (20, 2, rs.dimension))
    report = check_bounds(rs, samples)
    assert len(report.checks) == 5
    assert not any(c.passed for c in report.checks)
    assert all(math.isnan(c.residual) for c in report.checks)


def test_check_bounds_kernel_calls_do_not_grow_with_samples(monkeypatch):
    rs = parse_preset("z2xz2:1,2")
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel_1d(*args, **kwargs)

    monkeypatch.setattr("dunklkit.kernel.kernel_1d", counted)
    rng = np.random.default_rng(2)
    counts = []
    for m in (10, 1000):
        calls.clear()
        assert check_bounds(rs, rng.uniform(-5, 5, (m, 2, 2))).all_passed
        counts.append(len(calls))
    # one kernel_1d call per axis for each of K(x, iy), K(x, y), K(0, y) and every
    # K(wx, wy) with w not the identity
    assert counts[0] == counts[1] == rs.dimension * (2 + rs.group().order)


def test_check_bounds_off_coordinate_products():
    # B2 has diagonal roots, so every kernel goes through the moment series
    rs = RootSystem.create(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [1, 1, 1, 1])
    assert rs.axis_profile() is None
    report = check_bounds(rs, np.random.default_rng(3).uniform(-1, 1, (5, 2, 2)))
    assert [c.id for c in report.checks] == [
        "unit-bound-imaginary", "exponential-bound-real", "value-at-zero", "group-invariance"]
    assert report.all_passed


def test_bessel_nan_entry_leaves_the_batch_alone():
    for alpha in (0.5, 11 / 6):
        vals = bessel_j_normalized(alpha, np.array([1.0, np.nan, 3j, 20.0]))
        assert np.isnan(vals[1])
        for i, u in ((0, 1.0), (2, 3j), (3, 20.0)):
            assert vals[i] == bessel_j_normalized(alpha, u)


def test_kernel_1d_nan_argument_gives_nan():
    vals = kernel_1d(7 / 3, np.array([0.4, np.nan, -1.5]), 2.0)
    assert np.isnan(vals[1])
    assert vals[0] == kernel_1d(7 / 3, 0.4, 2.0) and vals[2] == kernel_1d(7 / 3, -1.5, 2.0)
    # a finite argument that overflows still raises beside a NaN one
    with pytest.raises(AccuracyError, match="overflow"):
        kernel_1d(1.0, np.array([np.nan, 30.0]), 30.0)


# -- kernel matrices: every entry is the closed form -------------------------------


def _entrywise(gamma, z, t):
    """The closed form with both Bessel orders evaluated on every entry."""
    g = float(gamma)
    z, t = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(t, dtype=complex))
    with np.errstate(invalid="ignore"):
        u = 1j * z * t
        return bessel_j_normalized(g - 0.5, u) + (z * t / (2.0 * g + 1.0)) * bessel_j_normalized(g + 0.5, u)


_GAMMAS = [Fraction(1, 2), 1, 2, Fraction(7, 3), 11, Fraction(25, 2)]
_GRID = np.linspace(-10.0, 10.0, 41)  # symmetric, holds 0
_NODE_SETS = {
    "symmetric": (_GRID, np.linspace(-8.0, 8.0, 33)),
    "repeated": (np.repeat(_GRID[::4], 3), np.concatenate([[0.0, 0.0], np.linspace(-6.0, 6.0, 13)] * 2)),
    "asymmetric": (np.random.default_rng(4).uniform(-3.0, 10.0, 23), np.random.default_rng(5).uniform(-1.0, 9.0, 17)),
}
_ORIENTATIONS = {
    "real-by-imaginary": lambda x, s: (x[:, None], -1j * s[None, :]),
    "imaginary-by-real": lambda x, s: (1j * x[:, None], s[None, :]),
}


@pytest.mark.parametrize("orientation", sorted(_ORIENTATIONS))
@pytest.mark.parametrize("nodes", sorted(_NODE_SETS))
@pytest.mark.parametrize("gamma", _GAMMAS, ids=str)
def test_kernel_matrix_is_bitwise_the_entrywise_formula(gamma, nodes, orientation):
    z, t = _ORIENTATIONS[orientation](*_NODE_SETS[nodes])
    got, want = kernel_1d(gamma, z, t), _entrywise(gamma, z, t)
    assert got.shape == want.shape == (z.shape[0], t.shape[1])
    assert got.tobytes() == want.tobytes()  # signed zeros included, unlike np.array_equal


@pytest.mark.parametrize("gamma", [1, Fraction(7, 3)], ids=str)
def test_kernel_matrix_fallbacks_keep_the_entrywise_results(gamma):
    x, s = _NODE_SETS["symmetric"]
    # a NaN node and an infinite target: not-finite in their own row and column only
    xb, sb = x.copy(), s.copy()
    xb[5], sb[7] = np.nan, np.inf
    with np.errstate(invalid="ignore"):
        tb = -1j * sb[None, :]  # (nan - inf j) at the infinite target
    got = kernel_1d(gamma, xb[:, None], tb)
    bad = np.zeros(got.shape, dtype=bool)
    bad[5, :] = bad[:, 7] = True
    assert np.array_equal(np.isnan(got), bad)
    assert np.array_equal(got, _entrywise(gamma, xb[:, None], tb), equal_nan=True)
    keep_x, keep_s = np.arange(x.size) != 5, np.arange(s.size) != 7
    clean = kernel_1d(gamma, x[keep_x][:, None], -1j * s[keep_s][None, :])
    assert np.array_equal(got[np.ix_(keep_x, keep_s)], clean)
    # general complex targets, an (m,) by (m,) broadcast and a real product
    small = np.linspace(-3.0, 3.0, 13)
    for z, t in (
        (small[:, None], (0.3 - 0.7j) * small[None, :]),
        (1j * small[:, None], (0.3 - 0.7j) * small[None, :]),
        (small, -1j * small[::-1]),
        (small[:, None], small[None, :]),
    ):
        assert np.array_equal(kernel_1d(gamma, z, t), _entrywise(gamma, z, t))
    with pytest.raises(AccuracyError, match="overflow"):
        kernel_1d(gamma, np.array([[0.5], [30.0]]), np.array([[1.0, 30.0]]))


def _count_bessel_points(monkeypatch):
    points = {}

    def counted(alpha, u):
        points[alpha] = points.get(alpha, 0) + np.size(u)
        return bessel_j_normalized(alpha, u)

    monkeypatch.setattr("dunklkit.kernel.bessel_j_normalized", counted)
    return points


def test_kernel_value_on_a_product_batch_evaluates_every_entry(rs_product, monkeypatch):
    rng = np.random.default_rng(6)
    x, z = rng.uniform(-4.0, 4.0, (50, 2)), rng.uniform(-4.0, 4.0, (50, 2))
    x[25:] = x[:25]  # repeated points stay elementwise
    points = _count_bessel_points(monkeypatch)
    kernel_value(rs_product, x, 1j * z)
    # two orders per axis, one point per pair: gamma = 1 gives 1/2, 3/2; gamma = 2 gives 3/2, 5/2
    assert points == {0.5: 50, 1.5: 100, 2.5: 50}
