"""Named verification suites.

Each suite bundles the checks for one area of the theory (exact
transmutation, kernel bounds, transform inversion, translation structure,
and so on) into a :class:`~dunklkit.report.VerificationReport`.  Suites are
pure functions of a root system, a grid size, and a seed, so a report body
is reproducible byte for byte.

Every numeric check states what is compared and at which tolerance; exact
checks carry tolerance zero.  Suites that only make sense on the
one-dimensional line (or for integer multiplicities) refuse other inputs
with :class:`~dunklkit.errors.UnsupportedCaseError` instead of silently
passing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .convolution import (
    DEFAULT_EPS,
    BumpProfile,
    ConcreteDistribution,
    approx_identity_check,
    convolve_many,
    spectral_convolution,
    translate_measure,
    translate_spectral_many,
)
from .errors import InvalidArgumentError, UnsupportedCaseError
from .functions import PolyGauss, gaussian, standard_bump
from .intertwine1d import (
    V_k_num,
    V_k_num_product,
    default_line_plan,
    dual_inverse_via_transform,
    eta_pairing,
    inv_V_via_P,
    inv_V_via_Q,
    inv_tV_via_VkP,
    local_P,
    local_Q,
    mu_quadrature,
    tV_k_num,
    z_pairing,
)
from .kernel import check_bounds, kernel_1d, kernel_series, kernel_value
from .polyexact import (
    RationalPoly,
    apply_P_poly,
    apply_Q_poly,
    dunkl_apply,
    intertwine,
    intertwine_inverse,
    monomial_basis,
)
from .report import VerificationReport, passes, worst
from .rootsys import RootSystem, mehta_by_quadrature, mehta_constant
from .transform import (
    DecayClass,
    SampledFunction,
    _axis_gammas,
    dunkl_roundtrip_many,
    dunkl_transform_many,
    fourier_bessel,
    gaussian_eigen_constant,
    line_gamma,
    make_plan,
)

__all__ = ["SUITES", "SuiteConfig", "run_suite", "suite_names"]


def _line_plan(rs: RootSystem, grid_n):
    """The plan of a line suite; refuses a system that is not a line."""
    if grid_n is None:
        return default_line_plan(rs)
    line_gamma(rs)
    return make_plan(rs, radius=10.0, grid_n=grid_n, freq_radius=9.0, freq_count=257)


def _rel(num, ref) -> float:
    """Largest entrywise error relative to max(1, |ref|)."""
    num = np.atleast_1d(np.asarray(num))
    ref = np.atleast_1d(np.asarray(ref))
    return float(np.max(np.abs(num - ref) / np.maximum(1.0, np.abs(ref))))


# ---------------------------------------------------------------------------
# exact polynomial layer


def transmutation_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Exact operator identities on polynomials, in rational arithmetic.

    grid_n and seed are accepted for interface uniformity; nothing here is
    sampled or discretized.
    """
    report = VerificationReport("transmutation")
    degree = 8 if rs.dimension <= 2 else 5
    mismatches = 0
    checked = 0
    for deg in range(degree + 1):
        for expo in monomial_basis(rs.dimension, deg):
            p = RationalPoly.monomial(rs.dimension, expo)
            vp = intertwine(rs, p)
            for j in range(rs.dimension):
                checked += 1
                if dunkl_apply(rs, j, vp) != intertwine(rs, p.partial(j)):
                    mismatches += 1
    report.add(
        "transmutation-identity",
        f"T_j(V p) = V(d_j p) exactly for every monomial p with degree <= {degree}",
        float(mismatches),
        0.0,
    )
    one = RationalPoly.constant(rs.dimension, 1)
    report.add(
        "unit-normalization",
        "V(1) = 1 in exact arithmetic",
        0.0 if intertwine(rs, one) == one else 1.0,
        0.0,
    )
    bad = 0
    for deg in range(min(degree, 6) + 1):
        for expo in monomial_basis(rs.dimension, deg):
            p = RationalPoly.monomial(rs.dimension, expo)
            if intertwine_inverse(rs, intertwine(rs, p)) != p:
                bad += 1
    report.add(
        "inverse-roundtrip",
        f"V^(-1)(V p) = p exactly for every monomial p with degree <= {min(degree, 6)}",
        float(bad),
        0.0,
    )
    if rs.is_integer_case and rs.axis_profile() is not None and rs.gamma > 0:
        bad = 0
        for deg in range(5):
            for expo in monomial_basis(rs.dimension, deg):
                p = RationalPoly.monomial(rs.dimension, expo)
                lhs = apply_Q_poly(rs, p)
                rhs = intertwine(rs, apply_P_poly(rs, intertwine_inverse(rs, p)))
                if lhs != rhs:
                    bad += 1
        report.add(
            "conjugated-multiplier",
            "Q = V P V^(-1) exactly on polynomials with degree <= 4",
            float(bad),
            0.0,
        )
    report.env["checked_monomial_pairs"] = checked
    return report


def normalization_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Mass and normalization constants across the exact and numeric layers."""
    report = VerificationReport("normalization")
    one = RationalPoly.constant(rs.dimension, 1)
    report.add(
        "unit-normalization",
        "V(1) = 1 in exact arithmetic",
        0.0 if intertwine(rs, one) == one else 1.0,
        0.0,
    )
    profile = rs.axis_profile()
    n = grid_n or 64
    if profile is not None:
        masses = [abs(float(np.sum(mu_quadrature(g, n)[1])) - 1.0) for g in _axis_gammas(rs) if g != 0]
        if masses:
            report.add(
                "measure-mass",
                "the averaging measure representing V at a point has total mass 1",
                worst(masses),
                1e-10,
            )
        if rs.dimension >= 2:
            vals = V_k_num_product(rs, lambda p: np.ones(p.shape[0]), [(0.7, 1.3)], n=32)
            report.add(
                "product-measure-mass",
                "the tensor averaging measure has total mass 1",
                abs(float(vals[0]) - 1.0),
                1e-10,
            )
    if rs.dimension <= 3:
        closed = mehta_constant(rs)
        quad = mehta_by_quadrature(rs)
        report.add(
            "normalization-constant",
            "closed-form Gaussian normalization matches independent tensor quadrature",
            abs(closed - quad) / abs(closed),
            1e-9,
        )
    return report


def cross_engine_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Quadrature V against the exact graded-matrix V on the line."""
    line_gamma(rs)
    report = VerificationReport("cross-engine")
    n = grid_n or 64
    xs = np.array([-1.7, -0.4, 0.3, 1.0, 2.5])
    errors = []
    for deg in range(9):
        p = RationalPoly.monomial(1, (deg,))
        exact = intertwine(rs, p).evaluate_float(xs)
        num = V_k_num(rs, lambda t, deg=deg: np.asarray(t) ** deg, xs, n=n)
        denom = np.abs(exact)
        if np.min(denom) == 0.0:
            denom = np.maximum(denom, 1.0)
        errors.append(np.abs(num - exact) / denom)
    report.add(
        "monomials-numeric-vs-exact",
        "quadrature V matches exact V on monomials with degree <= 8, relative error",
        worst(errors),
        1e-10,
    )
    if rs.gamma == 1:
        val = V_k_num(rs, lambda t: np.asarray(t) ** 2, np.array([1.0]), n=n)[0]
        report.add(
            "second-moment-anchor",
            "V(y^2)(1) = 1/3 at unit multiplicity",
            abs(float(val) - 1.0 / 3.0),
            1e-10,
        )
    odd = V_k_num(rs, lambda t: np.asarray(t) ** 3, np.array([1.25, -1.25]), n=n)
    report.add(
        "parity",
        "V preserves parity: V(y^3)(-x) = -V(y^3)(x)",
        abs(float(odd[0] + odd[1])),
        1e-12,
    )
    return report


# ---------------------------------------------------------------------------
# kernel and transform


def kernel_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Kernel bounds on random samples, series agreement, and the line curve."""
    rng = np.random.default_rng(seed)
    d = rs.dimension
    # row i holds (x_i, y_i), drawn in the same order as pair-by-pair draws
    samples = rng.uniform(-5, 5, (1000, 2, d))
    report = check_bounds(rs, samples, tol=1e-12)
    report.suite = "kernel"

    xz = rng.uniform(-1.2, 1.2, (20, 2, d))
    closed = kernel_value(rs, xz[:, 0], xz[:, 1])
    series = np.array([kernel_series(rs, x, z) for x, z in xz])
    report.add(
        "closed-vs-series",
        "closed-form kernel matches its truncated intertwined power series",
        float(np.max(np.abs(closed - series))),
        1e-10,
    )

    profile = rs.axis_profile()
    if d == 1:
        gam = line_gamma(rs)
        n = grid_n or 64
        xs = np.array([-2.0, -0.6, 0.7, 1.8])
        errors = [
            _rel(V_k_num(rs, lambda y, t=t: np.exp(np.asarray(y) * t), xs, n=n), kernel_1d(gam, xs, t))
            for t in (-1.5, -0.5, 0.8, 2.0)
        ]
        report.add(
            "averaged-exponential",
            "V applied to an exponential slice reproduces the kernel",
            worst(errors),
            1e-10,
        )
        grid = np.linspace(-5.0, 5.0, 201)
        kv = kernel_1d(gam, 1j * grid, 1.0)
        report.add_curve(
            "kernel-curve",
            ["x", "re", "im"],
            [(float(x), float(np.real(v)), float(np.imag(v))) for x, v in zip(grid, kv)],
        )
    elif profile is not None:
        grid = np.linspace(-5.0, 5.0, 201)
        ones = np.ones(d)
        kv = kernel_value(rs, 1j * grid[:, None] * ones, ones)
        report.add_curve("kernel-curve", ["x", "re", "im"], zip(grid, kv.real, kv.imag))
    return report


def transform_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Eigenfunction, inversion roundtrip, and factorization of the transform."""
    if rs.axis_profile() is None:
        raise UnsupportedCaseError(
            "numeric transforms exist only for products of one-dimensional factors"
        )
    d = rs.dimension
    plan = _line_plan(rs, grid_n) if d == 1 else make_plan(rs, grid_n=grid_n)
    report = VerificationReport("transform")

    def gauss(x):
        pts = np.atleast_2d(np.asarray(x, dtype=float)) if d > 1 else np.asarray(x, dtype=float)
        sq = np.sum(pts**2, axis=-1) if d > 1 else pts**2
        return np.exp(-0.5 * sq)

    if d == 1:
        # |y| <= 4 keeps the reference above the absolute roundoff floor of
        # the quadrature, so the relative comparison stays meaningful
        ys = np.linspace(-4.0, 4.0, 41)
    else:
        axis = np.linspace(-2.0, 2.0, 5)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        ys = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    hv = dunkl_transform_many(rs, gauss, ys, plan)
    ref = gaussian_eigen_constant(rs) * gauss(ys)
    report.add(
        "gaussian-eigenfunction",
        "the Gaussian is a fixed point of the transform up to its normalization",
        float(np.max(np.abs(hv - ref) / np.abs(ref))),
        1e-8,
    )

    if d == 1:
        fs = [PolyGauss.monomial(m) for m in range(5)]
        xs = np.linspace(-3.0, 3.0, 25)
    else:
        fs = [
            gauss,
            lambda p: np.atleast_2d(p)[:, 0] * gauss(p),
            lambda p: np.atleast_2d(p)[:, 0] * np.atleast_2d(p)[:, 1] * gauss(p),
        ]
        axis = np.linspace(-2.0, 2.0, 3)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        xs = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    report.add(
        "roundtrip",
        "inverse transform after forward transform returns the input",
        worst([np.abs(dunkl_roundtrip_many(rs, f, xs, plan) - f(xs)) for f in fs]),
        1e-6,
    )

    if d == 1:
        gam = line_gamma(rs)
        f = PolyGauss.create([1, 1, Fraction(1, 2)])
        nodes = plan.space_plain.nodes
        tv = tV_k_num(rs, f, nodes, n=100)
        ts = np.linspace(-3.0, 3.0, 13)
        phase = np.exp(-1j * np.outer(nodes, ts))
        via_dual = (plan.space_plain.weights * tv) @ phase
        direct = dunkl_transform_many(rs, f, ts, plan)
        report.add(
            "factorization",
            "the transform equals the plain Fourier integral after the dual intertwiner",
            _rel(via_dual, direct),
            1e-6,
        )

        alpha = gam - 0.5
        const = 2.0 ** (gam + 0.5) * math.gamma(gam + 0.5)
        ys1 = np.array([0.0, 0.5, 1.2, 2.4])
        lhs = np.real(dunkl_transform_many(rs, gauss, ys1, plan))
        rhs = np.array(
            [
                const * fourier_bessel(lambda r: np.exp(-0.5 * r**2), float(y), alpha, radius=9.0, n=200)
                for y in ys1
            ]
        )
        report.add(
            "radial-profile-consistency",
            "on even functions the transform reduces to the normalized Bessel integral",
            float(np.max(np.abs(lhs - rhs))),
            1e-8,
        )
    return report


# ---------------------------------------------------------------------------
# inversion of the intertwiners


def inversion_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Agreement of independent inversion routes and forward roundtrips."""
    plan = _line_plan(rs, grid_n)
    report = VerificationReport("inversion")
    integer = rs.is_integer_case and rs.gamma >= 1
    report.env["integer_multiplicity"] = bool(integer)

    fs = [PolyGauss.monomial(m) for m in range(5)]
    xs = np.array([-2.3, -0.7, 0.0, 0.5, 1.4, 2.3])

    path_p = [inv_V_via_P(rs, f, xs, plan) for f in fs]
    if integer:
        path_q = [inv_V_via_Q(rs, f, xs) for f in fs]
        report.add(
            "inverse-paths-agree",
            "multiplier route and difference-operator route to V^(-1) agree",
            worst([_rel(q, p) for p, q in zip(path_p, path_q)]),
            1e-5,
        )

    backs = []
    for f in fs:
        if integer:
            handle = lambda pts, f=f: np.reshape(
                inv_V_via_Q(rs, f, np.ravel(pts)), np.shape(pts)
            )
        else:
            handle = lambda pts, f=f: np.reshape(
                inv_V_via_P(rs, f, np.ravel(pts), plan), np.shape(pts)
            )
        backs.append(np.abs(V_k_num(rs, handle, xs, n=64) - f(xs)))
    report.add(
        "forward-roundtrip",
        "V applied after V^(-1) returns the input on Hermite-type functions",
        worst(backs),
        1e-5,
    )

    rels = [
        _rel(inv_tV_via_VkP(rs, f, xs, plan), np.real(dual_inverse_via_transform(rs, f, xs, plan)))
        for f in fs
    ]
    report.add(
        "dual-inverse-paths-agree",
        "averaged-multiplier route and transform route to the dual inverse agree",
        worst(rels),
        1e-5,
    )

    xs2 = np.array([-1.6, -0.4, 0.3, 1.1])
    backs = []
    for f in fs[:3]:
        handle = lambda pts, f=f: np.reshape(
            np.real(dual_inverse_via_transform(rs, f, np.ravel(pts), plan)), np.shape(pts)
        )
        backs.append(np.abs(tV_k_num(rs, handle, xs2, n=100, x_max=12.0) - f(xs2)))
    report.add(
        "dual-roundtrip",
        "the dual intertwiner applied after its inverse returns the input",
        worst(backs),
        1e-5,
    )
    return report


def distributions_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Pairings against the compactly supported representing distributions."""
    line_gamma(rs)
    if not (rs.is_integer_case and rs.gamma >= 1):
        raise UnsupportedCaseError(
            "distributional pairings use the difference-operator route and "
            "need a positive integer multiplicity"
        )
    plan = _line_plan(rs, grid_n)
    report = VerificationReport("distributions")
    fs = [PolyGauss.monomial(m) for m in (0, 1, 2)]
    xs = [0.0, 0.5, 1.4, -2.0]

    gaps = []
    for f in fs:
        ref = inv_V_via_P(rs, f, np.array(xs), plan)
        for x, r in zip(xs, ref):
            gaps.append(abs(eta_pairing(rs, x, f) - float(r)) / max(1.0, abs(float(r))))
    report.add(
        "inverse-pairing",
        "pairing f with the distribution representing V^(-1) matches V^(-1) f",
        worst(gaps),
        1e-5,
    )

    gaps = []
    for f in fs:
        ref = np.real(dual_inverse_via_transform(rs, f, np.array(xs), plan))
        for x, r in zip(xs, ref):
            gaps.append(abs(z_pairing(rs, x, f, plan) - float(r)) / max(1.0, abs(float(r))))
    report.add(
        "dual-inverse-pairing",
        "pairing f with the distribution representing the dual inverse matches it",
        worst(gaps),
        1e-5,
    )

    bump = standard_bump()
    report.add(
        "pairing-support",
        "the V^(-1) pairing of a bump vanishes identically beyond its support",
        worst([abs(eta_pairing(rs, x, bump)) for x in (1.2, -1.2, 2.0, -2.0)]),
        0.0,
    )

    f, g = fs[0], fs[2]
    both = f + g
    gaps = [
        abs(eta_pairing(rs, x, both) - eta_pairing(rs, x, f) - eta_pairing(rs, x, g))
        for x in (0.4, 1.1)
    ]
    report.add("pairing-linearity", "the pairing is linear in the test function", worst(gaps), 1e-8)
    return report


def support_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Support preservation of the multiplier operators and the dual image."""
    line_gamma(rs)
    report = VerificationReport("support")
    bump = standard_bump()
    outside = np.array([1.000001, 1.2, 1.7, 2.5, 4.0])
    outside = np.concatenate([outside, -outside])

    if rs.is_integer_case and rs.gamma >= 1:
        pf = local_P(rs, bump)
        report.add(
            "multiplier-support",
            "P of a bump vanishes identically outside the bump support",
            float(np.max(np.abs(pf(outside)))),
            0.0,
        )
        qf = local_Q(rs, bump)
        report.add(
            "difference-multiplier-support",
            "Q of a bump vanishes identically outside the bump support",
            float(np.max(np.abs(qf(outside)))),
            0.0,
        )
    else:
        report.env["note"] = "local multiplier checks need a positive integer multiplicity"

    ys = np.array([1.05, 1.2, 2.0, 3.0])
    ys = np.concatenate([ys, -ys])
    vals = tV_k_num(rs, bump, ys, n=grid_n or 120)
    report.add(
        "dual-image-support",
        "the dual intertwiner of a bump vanishes outside a 5 percent margin",
        float(np.max(np.abs(vals))),
        1e-8,
    )
    inside = tV_k_num(rs, bump, np.array([0.0, 0.35, 0.7, 0.9]), n=grid_n or 120)
    report.add(
        "dual-image-nonzero-inside",
        "the dual image stays bounded away from zero inside the support",
        worst([1e-8 - float(np.min(np.abs(inside)))]),
        0.0,
    )
    return report


# ---------------------------------------------------------------------------
# translation, convolution, approximate identity


def translation_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Generalized translation paths, the convolution law, and commutation."""
    gam = line_gamma(rs)
    plan = _line_plan(rs, grid_n)
    report = VerificationReport("translation")
    integer = rs.is_integer_case and rs.gamma >= 1

    fs = [gaussian(), PolyGauss.monomial(1), PolyGauss.monomial(2)]
    ys = np.linspace(-3.0, 3.0, 25)
    at_zero = [np.abs(np.real(translate_spectral_many(rs, f, 0.0, ys, plan)) - f(ys)) for f in fs]
    report.add("translate-at-zero", "translation by zero is the identity", worst(at_zero), 1e-8)

    # every route evaluates each function once, at all four (x, y) pairs
    xs, ys = np.array([0.5, 1.2, 0.0, -0.8]), np.array([1.0, -0.6, 1.5, -0.9])
    spectral = np.array([np.real(translate_spectral_many(rs, f, xs, ys, plan)) for f in fs])
    if rs.gamma == 0:
        shifts = [np.abs(tau - f(xs + ys)) for f, tau in zip(fs, spectral)]
        report.add(
            "classical-shift",
            "at multiplicity zero translation is the ordinary shift",
            worst(shifts),
            1e-8,
        )
    else:
        gaps = np.abs(spectral - translate_measure(rs, fs, xs, ys, plan=plan))
        report.add(
            "translation-paths-product",
            "spectral translation matches the double average over representing measures",
            worst(gaps),
            1e-5,
        )
        if integer:
            gaps = np.abs(spectral - translate_measure(rs, fs, xs, ys, method="Q", plan=plan))
            report.add(
                "translation-paths-integer",
                "spectral translation matches the difference-operator double average",
                worst(gaps),
                1e-5,
            )

    f0 = gaussian()
    g = lambda y: np.exp(-np.asarray(y, dtype=float) ** 2 / 4.0)
    nodes, weights = plan.space.nodes, plan.space.weights
    conv = convolve_many(rs, f0, g, nodes, plan)
    ts = np.array([0.0, 0.4, 1.1, -1.6, 2.0])
    lhs = dunkl_transform_many(rs, lambda _: conv, ts, plan)
    rhs = dunkl_transform_many(rs, f0, ts, plan) * dunkl_transform_many(rs, g, ts, plan)
    report.add(
        "convolution-transform-law",
        "the transform carries weighted convolution to a pointwise product",
        _rel(lhs, rhs),
        1e-5,
    )

    x3 = np.array([0.0, 0.8, -1.3])
    swapped = np.abs(convolve_many(rs, f0, g, x3, plan) - convolve_many(rs, lambda t: g(t), f0, x3, plan))
    report.add("convolution-commutes", "weighted convolution is commutative", worst(swapped), 1e-8)

    # the bump transform comes from its support-fitted grid; the global grid
    # cannot resolve a narrow mollifier
    phi = BumpProfile.create(rs, 0.5, grid_n=160)
    conv_b = spectral_convolution(rs, phi.transform_at(plan.freq.nodes), g(nodes), nodes, plan)
    lhs = dunkl_transform_many(rs, lambda _: conv_b, ts, plan)
    rhs = phi.transform_at(ts) * dunkl_transform_many(rs, g, ts, plan)
    report.add(
        "distribution-convolution-transform",
        "the transform of (weighted density * bump) is the product of transforms",
        _rel(lhs, rhs),
        1e-5,
    )

    z = 0.7
    psi = gaussian()
    psi_hat = SampledFunction(
        lambda p: np.real(dunkl_transform_many(rs, psi, p, plan)),
        DecayClass.schwartz(),
        "transformed-gaussian",
    )
    tau_vals = np.real(translate_spectral_many(rs, psi_hat, z, nodes, plan))
    lhs_val = float(np.sum(weights * g(nodes) * tau_vals))
    ghat = dunkl_transform_many(rs, g, nodes, plan)
    kvals = kernel_1d(gam, -1j * nodes, z)
    rhs_val = np.sum(weights * kvals * ghat * psi(nodes))
    report.add(
        "density-point-mass-product-law",
        "convolving a weighted density with a point mass obeys the product law",
        abs(lhs_val - rhs_val) / max(1.0, abs(rhs_val)),
        1e-5,
    )

    x0 = 0.7
    ypts = np.array([0.6, 1.1, -0.8])
    h = 1e-5
    f = fs[0]
    fp = lambda y: np.real(translate_spectral_many(rs, f, x0, y, plan))
    deriv = (fp(ypts + h) - fp(ypts - h)) / (2 * h)
    if gam > 0:
        deriv = deriv + gam * (fp(ypts) - fp(-ypts)) / ypts
    rhs_op = np.real(translate_spectral_many(rs, f.dunkl(rs.gamma), x0, ypts, plan))
    report.add(
        "translation-commutes-with-operator",
        "the difference-differential operator commutes with translation",
        worst(np.abs(deriv - rhs_op)),
        1e-4,
    )
    return report


def approx_identity_suite(rs: RootSystem, grid_n=None, seed: int = 0) -> VerificationReport:
    """Mollification of a weighted density converging back to the density."""
    plan = _line_plan(rs, grid_n)
    S = ConcreteDistribution.weighted(lambda x: np.exp(-np.asarray(x, dtype=float) ** 2 / 8.0))
    return approx_identity_check(rs, S, DEFAULT_EPS, plan)


# ---------------------------------------------------------------------------
# registry and runner

SUITES = {
    "transmutation": transmutation_suite,
    "normalization": normalization_suite,
    "cross-engine": cross_engine_suite,
    "kernel": kernel_suite,
    "transform": transform_suite,
    "inversion": inversion_suite,
    "distributions": distributions_suite,
    "support": support_suite,
    "translation": translation_suite,
    "approx-identity": approx_identity_suite,
}


def suite_names() -> list[str]:
    return sorted(SUITES)


@dataclass
class SuiteConfig:
    """One verification run: which suite, on which system, at which knobs."""

    suite: str
    rs: RootSystem
    label: str = ""
    grid_n: Optional[int] = None
    tol: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.suite not in SUITES:
            raise InvalidArgumentError(
                f"unknown suite {self.suite!r}; available: {', '.join(suite_names())}"
            )
        if self.grid_n is not None and self.grid_n < 8:
            raise InvalidArgumentError("grid size must be at least 8")
        if self.tol is not None and not self.tol > 0:
            raise InvalidArgumentError("tolerance must be positive")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be non-negative")


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute one suite and stamp the configuration into the report body."""
    start = time.perf_counter()
    report = SUITES[config.suite](config.rs, grid_n=config.grid_n, seed=config.seed)
    if config.tol is not None:
        for check in report.checks:
            check.tol = config.tol
            check.passed = passes(check.residual, config.tol)
    report.env.update(
        {
            "preset": config.label or "custom",
            "gamma": str(config.rs.gamma),
            "dimension": config.rs.dimension,
            "grid_n": config.grid_n,
            "tol_override": config.tol,
            "seed": config.seed,
        }
    )
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report
