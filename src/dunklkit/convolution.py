"""Generalized translation, convolution, and the approximate identity.

Translation has a spectral form (a kernel multiplier under the transform)
and two measure forms (double averaging of an inverse-intertwined function).
They are computed through genuinely different pipelines, so their agreement
exercises most of the library at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, UnsupportedCaseError
from .functions import standard_bump
from .intertwine1d import _plan, inv_V_via_Q, mu_quadrature, tV_k_num
from .kernel import kernel_value
from .report import VerificationReport, worst
from .rootsys import RootSystem, _functions, _paired, _points, _shaped
from .transform import (
    TransformPlan,
    _one_function,
    _one_value,
    _refuse_growth,
    classical_fourier_many,
    dunkl_inverse_many,
    dunkl_transform_many,
    fourier_bessel,
    line_gamma,
    p_multiplier_constant,
)


def kernel_multiplier(rs: RootSystem, x, ts) -> np.ndarray:
    """K(ix, t) on an array of frequency nodes t."""
    return kernel_value(rs, 1j * np.asarray(x, dtype=float), ts)


def translate_spectral_many(rs: RootSystem, f, x, ys, plan: TransformPlan = None):
    """Spectral translation tau_x f(y): the transform of f times K(ix, .),
    inverted at y.

    x and ys broadcast against each other as pairs of points, one value per
    pair: one inverse with base points x, of every function of f.
    """
    plan = _plan(rs, plan)
    return dunkl_inverse_many(rs, dunkl_transform_many(rs, f, plan.freq.nodes, plan), ys, plan, base=x)


def translate_spectral(rs: RootSystem, f, x, y, plan: TransformPlan = None) -> float:
    """Translation through the transform at the one pair (x, y): multiply by K(ix, .) and invert."""
    _one_function(f, "translate_spectral")
    return _one_value("translate_spectral", translate_spectral_many(rs, f, x, y, plan)).real


def translate_measure(rs: RootSystem, f, x, y, method: str = "P", plan: TransformPlan = None):
    """Translation as a double average of the inverse-intertwined function:
    sum_ij w_i w_j (V_k^-1 f)(x t_i + y t_j) over the 48-node averaging rule
    (t, w).

    x and y broadcast against each other as pairs of points.
    method "P" routes the inverse through the Fourier multiplier (any
    positive multiplicity): tV_k f is computed once per call for every f
    and Fourier transformed onto the plan's frequency nodes t_l, which makes
    the double average separable, sum_l c_l A_l(x) A_l(y) with
    A_l(b) = sum_i w_i exp(i t_l b t_i).
    method "Q" routes the inverse through the difference-differential
    multiplier (positive integer multiplicity, closed families only): one
    inv_V_via_Q call takes the points of every pair for every function, which
    on a PolyGauss is the closed-form dual of its multiplier image.
    """
    g = line_gamma(rs)
    if g <= 0:
        raise InvalidArgumentError("the measure form needs a positive multiplicity")
    fs = _functions(f)
    t, w = mu_quadrature(g, 48)
    xs, ys, shape = _paired(_points(x, 1, float), _points(y, 1, float))
    xs, ys = xs[:, 0], ys[:, 0]
    if method == "P" or plan is not None:  # Q reads no plan, but a given one must be rs's own
        plan = _plan(rs, plan)
    if method == "P":
        tvs = tV_k_num(rs, fs, plan.space_plain.nodes)
        coef = plan.freq.weights * classical_fourier_many([lambda _, v=v: v for v in tvs], plan.freq.nodes, plan)
        base = np.concatenate([xs, ys])
        avg = np.exp(1j * np.multiply.outer(plan.freq.nodes, np.multiply.outer(base, t))) @ w
        ax, ay = np.split(avg, 2, axis=1)
        out = p_multiplier_constant(rs) / (2.0 * math.pi) * np.real(coef @ (ax * ay))
    elif method == "Q":
        pts = np.multiply.outer(xs, t)[:, :, None] + np.multiply.outer(ys, t)[:, None, :]
        vals = inv_V_via_Q(rs, fs, pts.reshape(-1)).reshape((len(fs),) + pts.shape)
        out = np.array([[w @ v @ w for v in per_pair] for per_pair in vals])
    else:
        raise InvalidArgumentError(f"unknown method {method!r}")
    return _shaped(out, shape, f)


def convolve_many(rs: RootSystem, f, g, xs, plan: TransformPlan = None):
    """Weighted convolution of f and g at many points, on the line or an axis
    product: the inverse transform of Ff * Fg, see spectral_convolution.

    f may be a sequence of functions, g is one.  Without a plan only the line
    is served, as default_line_plan refuses the rest.
    """
    _one_function(g, "convolve_many's g")
    _refuse_growth(g, "convolve_many")
    plan = _plan(rs, plan)
    hv_f = dunkl_transform_many(rs, f, plan.freq.nodes, plan)
    return spectral_convolution(rs, hv_f, np.asarray(g(plan.space.nodes)), xs, plan)


def spectral_convolution(rs: RootSystem, hv_f, gv, xs, plan: TransformPlan):
    """Weighted convolution at xs, from the transform hv_f of f (or of k functions)
    on the plan's frequency nodes and the values gv of g on its space nodes.

    The transform carries f * g to Ff * Fg: g is transformed onto the
    frequency nodes, and the product is inverted at xs.
    """
    return dunkl_inverse_many(rs, hv_f * dunkl_transform_many(rs, lambda _: gv, plan.freq.nodes, plan), xs, plan)


def convolve(rs: RootSystem, f, g, x, plan: TransformPlan = None) -> float:
    """Weighted convolution, the integral of tau_x f(-y) g(y) against the
    weight: convolve_many at the one point x."""
    _one_function(f, "convolve")
    return _one_value("convolve", convolve_many(rs, f, g, x, plan)).real


# ---------------------------------------------------------------------------
# concrete distributions

@dataclass(frozen=True)
class ConcreteDistribution:
    """Either a weighted function g times the reflection weight, or a point
    mass.  These are the two kinds every distributional check here uses."""

    kind: str
    g: Optional[Callable] = None
    point: Optional[float] = None

    @staticmethod
    def weighted(g: Callable) -> "ConcreteDistribution":
        return ConcreteDistribution("weighted-function", g=g)

    @staticmethod
    def point_mass(z: float) -> "ConcreteDistribution":
        return ConcreteDistribution("point-mass", point=float(z))

    def pair(self, f, plan: TransformPlan) -> complex:
        """<S, f> with the weight included for the function kind."""
        if self.kind == "point-mass":
            return complex(np.asarray(f(np.array([self.point])))[0])
        nodes = plan.space.nodes
        return complex(np.sum(plan.space.weights * np.asarray(self.g(nodes)) * np.asarray(f(nodes))))


def distribution_convolve(rs: RootSystem, S: ConcreteDistribution, phi, x,
                          plan: TransformPlan = None) -> float:
    """S convolved with a test function: <S_y, tau_x phi(-y)>."""
    plan = _plan(rs, plan)
    return S.pair(lambda y: translate_spectral_many(rs, phi, x, -y, plan), plan).real


# ---------------------------------------------------------------------------
# the approximate identity

_BUMP_GRID_N = 160

@dataclass(frozen=True)
class BumpProfile:
    """Radial bump scaled to support radius epsilon, with unit weighted mass.

    The bump is even: its transform is fourier_bessel of order gamma - 1/2 on
    _BUMP_GRID_N nodes over its support, from its moments up to |y| = 4/epsilon.
    The norm is fixed by that transform at 0 at epsilon = 1; scaling keeps
    mass exactly, so every scaled bump's transform at 0 is 1 to rounding.
    """

    rs: RootSystem
    epsilon: float
    norm: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise InvalidArgumentError("epsilon must lie in (0, 1]")

    @staticmethod
    def create(rs: RootSystem, epsilon: float = 1.0) -> "BumpProfile":
        return BumpProfile(rs, float(epsilon), 1.0 / BumpProfile(rs, 1.0, 1.0).mass())

    def scaled(self, epsilon: float) -> "BumpProfile":
        return BumpProfile(self.rs, float(epsilon), self.norm)

    def __call__(self, x):
        e = self.epsilon
        scale = e ** (-(2.0 * line_gamma(self.rs) + 1.0))
        return scale * self.norm * standard_bump()(np.asarray(x, dtype=float) / e)

    def mass(self) -> float:
        return self.transform_at(0.0)

    def transform_at(self, ys):
        """Transform values at ys, real since the bump is even."""
        g = line_gamma(self.rs)
        const = 2.0 ** (g + 0.5) * math.gamma(g + 0.5)
        return const * fourier_bessel(self, ys, g - 0.5, radius=self.epsilon, n=_BUMP_GRID_N)


DEFAULT_EPS = (0.5, 0.2, 0.1, 0.05)


# wide fixed test functions keep the curvature constant of the epsilon^2
# residual small enough to resolve the smallest scale
_TEST_SET = (
    lambda x: np.exp(-(x * x) / 8.0),
    lambda x: x * x * np.exp(-(x * x) / 8.0),
    lambda x: (1.0 + x) * np.exp(-(x * x) / 8.0),
)


def approx_identity_check(rs: RootSystem, S: ConcreteDistribution, eps_seq: Sequence[float] = DEFAULT_EPS,
                          plan: TransformPlan = None) -> VerificationReport:
    """Convergence of mollified distributions back to the distribution.

    Residuals pair (S * bump_eps) times the weight against three fixed
    Gaussian-type test functions (exp(-x^2/8) times 1, x^2 and 1 + x) and
    compare with pairing S directly; the frequency-side quadratic bound is
    fitted at the largest epsilon and checked at the smaller ones.
    """
    g = line_gamma(rs)
    eps = [float(e) for e in eps_seq]
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])) or not eps:
        raise InvalidArgumentError("epsilon sequence must be strictly decreasing")
    if not 0.0 < eps[0] <= 1.0:
        raise InvalidArgumentError("epsilon must lie in (0, 1]")
    if eps[-1] < 0.02:
        raise InvalidArgumentError(
            "epsilon below 0.02 is not resolvable by the default frequency grid"
        )
    if S.kind != "weighted-function":
        raise UnsupportedCaseError("the convergence check pairs against the weighted kind")
    plan = _plan(rs, plan)
    report = VerificationReport("approx-identity", env={
        "gamma": g, "eps": eps, "grid_n": len(plan.space.nodes),
    })

    bump = BumpProfile.create(rs)
    nodes = plan.space.nodes
    gv = np.asarray(S.g(nodes))
    base_pairs = [S.pair(psi, plan) for psi in _TEST_SET]

    ybox = np.linspace(-plan.freq_radius, plan.freq_radius, 81)
    ybox = ybox[np.abs(ybox) > 1e-9]
    # one transform per scale: its mass, its values on the frequency nodes and on ybox
    ys = np.concatenate([[0.0], plan.freq.nodes, ybox])
    scales = [bump.scaled(e) for e in eps]
    masses, on_freq, tvs = np.split(np.array([phi.transform_at(ys) for phi in scales]),
                                    [1, 1 + len(plan.freq.nodes)], axis=1)
    norm_resids = np.abs(masses - 1.0)
    support_resids = [np.abs(phi(np.linspace(e * 1.0001, max(2.0, 4 * e), 33))) for e, phi in zip(eps, scales)]
    m_fits = [float(np.max(np.abs(tv - 1.0) / (e * ybox**2))) for e, tv in zip(eps, tvs)]
    residuals = []
    # S * phi on the space grid at every scale, in one contraction through the plan's kernel halves
    for conv in spectral_convolution(rs, on_freq, gv, nodes, plan):
        mollified = ConcreteDistribution.weighted(lambda _: conv)
        residuals.append(worst([abs(mollified.pair(psi, plan) - base) / max(1e-12, abs(base))
                                for psi, base in zip(_TEST_SET, base_pairs)]))

    report.add("bump-normalization", "scaled bump keeps unit weighted mass", worst(norm_resids), 1e-10)
    report.add("bump-support", "scaled bump vanishes outside its ball", worst(support_resids), 0.0)
    report.add(
        "residual-decay",
        "pairings of the mollified distribution approach the distribution",
        residuals[-1] / max(1e-300, residuals[0]),
        0.2,
    )
    report.add("smallest-eps-residual", "residual at the smallest scale", residuals[-1], 1e-4)
    trend = worst([residuals[i + 1] / max(1e-300, residuals[i]) for i in range(len(residuals) - 1)])
    report.add("monotone-trend", "residuals decrease along the scale sequence", trend, 1.0)
    report.add(
        "quadratic-frequency-bound",
        "transform of the bump stays within the fitted quadratic envelope",
        worst(m_fits[1:]) / max(1e-300, m_fits[0]) if len(m_fits) > 1 else 1.0,
        1.05,
    )
    report.env["fitted_M"] = m_fits[0]
    report.add_curve(
        "residual-vs-eps",
        ["eps", "residual"],
        [[e, r] for e, r in zip(eps, residuals)],
    )
    return report
