"""Generalized translation, convolution, and the approximate identity.

Translation has a spectral form (a kernel multiplier under the transform)
and two measure forms (double averaging of an inverse-intertwined function).
They are computed through genuinely different pipelines, so their agreement
exercises most of the library at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, UnsupportedCaseError
from .functions import standard_bump
from .intertwine1d import _per_function, default_line_plan, inv_V_via_Q, mu_quadrature, tV_k_num
from .kernel import kernel_1d
from .report import VerificationReport, worst
from .rootsys import RootSystem
from .transform import (
    TransformPlan,
    _axis_gammas,
    classical_fourier_many,
    dunkl_inverse_many,
    dunkl_transform_many,
    inverse_constant,
    line_gamma,
    p_multiplier_constant,
    weighted_line_grid,
)


def kernel_multiplier(rs: RootSystem, x, ts) -> np.ndarray:
    """K(ix, t) on an array of frequency nodes t."""
    gammas = _axis_gammas(rs)
    if rs.dimension == 1:
        return kernel_1d(gammas[0], 1j * float(np.asarray(x).reshape(())), np.asarray(ts))
    pts = np.atleast_2d(ts)
    xv = np.asarray(x, dtype=float).reshape(-1)
    out = np.ones(pts.shape[0], dtype=complex)
    for j, g in enumerate(gammas):
        out = out * kernel_1d(g, 1j * xv[j], pts[:, j])
    return out


def translate_spectral_many(rs: RootSystem, f, x, ys, plan: TransformPlan = None):
    """Spectral translation tau_x f(y): the transform of f times K(ix, .),
    inverted at y.

    x and ys broadcast against each other as pairs of points (points along
    the last axis beyond the line), one value per pair.  One base point
    translates onto every y through one multiplier; several are contracted
    pair by pair against the plan's axis matrices K(t_j, i x_j).
    """
    gammas = _axis_gammas(rs)
    d = len(gammas)
    if plan is None:
        if d != 1:
            raise InvalidArgumentError("a plan is required beyond one dimension")
        plan = default_line_plan(rs)
    hv = dunkl_transform_many(rs, f, plan.freq.nodes, plan)
    xs = np.asarray(x, dtype=float).reshape(-1, d)
    kx = [plan.axis_kernel("freq", j, g, 1j, xs[:, j]) for j, g in enumerate(gammas)]
    if len(xs) == 1:
        mult = functools.reduce(np.multiply.outer, [k[:, 0] for k in kx]).reshape(-1)
        return dunkl_inverse_many(rs, hv * mult, ys, plan)
    pts = np.broadcast_to(np.asarray(ys, dtype=float).reshape(-1, d), xs.shape)
    return dunkl_inverse_many(rs, hv, pts, plan, factors=kx)


def translate_spectral(rs: RootSystem, f, x, y, plan: TransformPlan = None) -> float:
    """Translation through the transform: multiply by K(ix, .) and invert."""
    ys = [y] if len(_axis_gammas(rs)) == 1 else [list(np.atleast_1d(y))]
    val = translate_spectral_many(rs, f, x, ys, plan)[0]
    return float(np.real(val))


def translate_measure(rs: RootSystem, f, x, y, n: int = 48, method: str = "P",
                      plan: TransformPlan = None):
    """Translation as a double average of the inverse-intertwined function:
    sum_ij w_i w_j (V_k^-1 f)(x t_i + y t_j) over the averaging rule (t, w).

    x and y broadcast as pairs; one pair gives a float, arrays an array of
    their broadcast shape; a sequence of functions f adds a leading axis.
    method "P" routes the inverse through the Fourier multiplier (any
    positive multiplicity): tV_k f is computed once per call for every f
    and Fourier transformed onto the plan's frequency nodes t_l, which makes
    the double average separable, sum_l c_l A_l(x) A_l(y) with
    A_l(b) = sum_i w_i exp(i t_l b t_i).
    method "Q" routes the inverse through the difference-differential
    multiplier (positive integer multiplicity, closed families only): one
    dual pass per pair serves every function.
    """
    g = line_gamma(rs)
    if g <= 0:
        raise InvalidArgumentError("the measure form needs a positive multiplicity")
    fs = [f] if callable(f) else list(f)
    t, w = mu_quadrature(g, n)
    xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if method == "P":
        if plan is None:
            plan = default_line_plan(rs)
        coef = [plan.freq.weights * classical_fourier_many(lambda _: tv, plan.freq.nodes, plan)
                for tv in tV_k_num(rs, fs, plan.space_plain.nodes)]
        base = np.concatenate([xs.reshape(-1), ys.reshape(-1)])
        avg = np.exp(1j * np.multiply.outer(plan.freq.nodes, np.multiply.outer(base, t))) @ w
        ax, ay = np.split(avg, 2, axis=1)
        pref = p_multiplier_constant(rs) / (2.0 * math.pi)
        out = np.array([pref * np.real(c @ (ax * ay)) for c in coef])
    elif method == "Q":
        out = np.zeros((len(fs), xs.size))
        for j, (a, b) in enumerate(zip(xs.flat, ys.flat)):
            vals = inv_V_via_Q(rs, fs, np.add.outer(a * t, b * t).reshape(-1))
            out[:, j] = [w @ np.reshape(v, (n, n)) @ w for v in vals]
    else:
        raise InvalidArgumentError(f"unknown method {method!r}")
    return _per_function(f, xs, out)


def convolve_many(rs: RootSystem, f, g, xs, plan: TransformPlan = None) -> np.ndarray:
    """Weighted convolution of f and g at many points in one contraction.

    Only the one-dimensional line is wired; higher rank goes through
    repeated calls to the translation primitive.
    """
    line_gamma(rs)
    if plan is None:
        plan = default_line_plan(rs)
    hv_f = dunkl_transform_many(rs, f, plan.freq.nodes, plan)
    return spectral_convolution(rs, hv_f, np.asarray(g(plan.space.nodes)), xs, plan)


def spectral_convolution(rs: RootSystem, hv_f, gv, xs, plan: TransformPlan) -> np.ndarray:
    """Weighted convolution on the line at xs, from the transform hv_f of f on
    the plan's frequency nodes and the values gv of g on its space nodes.

    Both kernels are plan matrices: the inner integral of g(y) K(-y, i t)
    uses K(-y, i t) = K(y, -i t), the forward matrix, and the outer kernel
    K(i x, t) = K(t, i x) is the inverse matrix at xs.
    """
    gam = line_gamma(rs)
    forward = plan.axis_kernel("space", 0, gam, -1j, plan.freq.nodes)
    inner = (forward * (gv * plan.space.weights)[:, None]).sum(axis=0)
    a = np.ascontiguousarray(plan.axis_kernel("freq", 0, gam, 1j, xs).T)
    return inverse_constant(rs) * (a * (plan.freq.weights * hv_f * inner)[None, :]).sum(axis=1)


def convolve(rs: RootSystem, f, g, x, plan: TransformPlan = None) -> float:
    """Weighted convolution: integrate tau_x f(-y) g(y) against the weight."""
    if len(_axis_gammas(rs)) == 1:
        return float(np.real(convolve_many(rs, f, g, [x], plan)[0]))
    if plan is None:
        raise InvalidArgumentError("a plan is required beyond one dimension")
    nodes = plan.space.nodes
    tv = translate_spectral_many(rs, f, x, -np.atleast_2d(nodes), plan)
    gv = np.asarray(g(nodes))
    return float(np.real(np.sum(plan.space.weights * tv * gv)))


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
    if plan is None:
        plan = default_line_plan(rs)
    if S.kind == "point-mass":
        return translate_spectral(rs, phi, x, -S.point, plan)
    nodes = plan.space.nodes
    tv = translate_spectral_many(rs, phi, x, -nodes, plan)
    return float(np.real(np.sum(plan.space.weights * np.asarray(S.g(nodes)) * tv)))


# ---------------------------------------------------------------------------
# the approximate identity

@dataclass(frozen=True)
class BumpProfile:
    """Radial bump scaled to support radius epsilon, with unit weighted mass.

    The normalization constant is fixed once on a support-fitted grid; the
    scaling is exactly mass-preserving, so the transform at zero computed on
    the matching scaled grid reproduces 1 to rounding.
    """

    rs: RootSystem
    epsilon: float
    norm: float
    grid_n: int = 160

    @staticmethod
    def create(rs: RootSystem, epsilon: float = 1.0, grid_n: int = 160) -> "BumpProfile":
        g = line_gamma(rs)
        if not 0.0 < epsilon <= 1.0:
            raise InvalidArgumentError("epsilon must lie in (0, 1]")
        base = standard_bump()
        grid = weighted_line_grid(g, 1.0, grid_n)
        mass = float(np.sum(grid.weights * base(grid.nodes)))
        return BumpProfile(rs, float(epsilon), 1.0 / mass, grid_n)

    def scaled(self, epsilon: float) -> "BumpProfile":
        if not 0.0 < epsilon <= 1.0:
            raise InvalidArgumentError("epsilon must lie in (0, 1]")
        return BumpProfile(self.rs, float(epsilon), self.norm, self.grid_n)

    def profile(self, r):
        """The unscaled radial profile, support in [0, 1]."""
        return self.norm * standard_bump()(np.asarray(r))

    def __call__(self, x):
        e = self.epsilon
        scale = e ** (-(2.0 * line_gamma(self.rs) + 1.0))
        return scale * self.norm * standard_bump()(np.asarray(x, dtype=float) / e)

    def support_grid(self):
        return weighted_line_grid(line_gamma(self.rs), self.epsilon, self.grid_n)

    def mass(self) -> float:
        grid = self.support_grid()
        return float(np.sum(grid.weights * self(grid.nodes)))

    def transform_at(self, ys) -> np.ndarray:
        """Transform values on a support-fitted grid; exact 1 at y = 0."""
        grid = self.support_grid()
        fv = self(grid.nodes)
        ker = kernel_1d(line_gamma(self.rs), grid.nodes[:, None], -1j * np.atleast_1d(ys)[None, :])
        return (grid.weights * fv) @ ker


DEFAULT_EPS = (0.5, 0.2, 0.1, 0.05)


def approx_identity_check(rs: RootSystem, S: ConcreteDistribution, eps_seq: Sequence[float] = DEFAULT_EPS,
                          plan: TransformPlan = None, test_set=None) -> VerificationReport:
    """Convergence of mollified distributions back to the distribution.

    Residuals pair (S * bump_eps) times the weight against a fixed test set
    and compare with pairing S directly; the frequency-side quadratic bound
    is fitted at the largest epsilon and checked at the smaller ones.
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
    if plan is None:
        plan = default_line_plan(rs)
    if test_set is None:
        # wide fixed test functions keep the curvature constant of the
        # epsilon^2 residual small enough to resolve the smallest scale
        test_set = [
            lambda x: np.exp(-(x * x) / 8.0),
            lambda x: x * x * np.exp(-(x * x) / 8.0),
            lambda x: (1.0 + x) * np.exp(-(x * x) / 8.0),
        ]
    report = VerificationReport("approx-identity", env={
        "gamma": g, "eps": eps, "grid_n": len(plan.space.nodes),
    })

    bump = BumpProfile.create(rs)
    nodes = plan.space.nodes
    weights = plan.space.weights
    gv = np.asarray(S.g(nodes))
    base_pairs = [complex(np.sum(weights * gv * np.asarray(psi(nodes)))) for psi in test_set]

    residuals = []
    m_fits = []
    norm_resids = []
    support_resids = []
    ybox = np.linspace(-plan.freq_radius, plan.freq_radius, 81)
    ybox = ybox[np.abs(ybox) > 1e-9]
    for e in eps:
        phi = bump.scaled(e)
        norm_resids.append(abs(phi.mass() - 1.0))
        outside = np.linspace(e * 1.0001, max(2.0, 4 * e), 33)
        support_resids.append(np.abs(phi(outside)))
        # S * phi on the space grid through the plan's kernel matrices
        conv = spectral_convolution(rs, phi.transform_at(plan.freq.nodes), gv, nodes, plan)
        residuals.append(worst([
            abs(complex(np.sum(weights * conv * np.asarray(psi(nodes)))) - base) / max(1e-12, abs(base))
            for psi, base in zip(test_set, base_pairs)
        ]))
        tv = phi.transform_at(ybox)
        m_fits.append(float(np.max(np.abs(tv - 1.0) / (e * ybox**2))))

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
