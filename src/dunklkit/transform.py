"""Quadrature grids and the Dunkl transform on the line and on products.

Weighted integrals absorb the weight into Gauss-Jacobi nodes split at the
origin, so non-integer exponents cost no accuracy.  Transforms over product
systems contract one axis at a time; nothing here attempts non-product
systems, which only the exact polynomial path supports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import AccuracyWarning, InvalidArgumentError, UnsupportedCaseError
from .kernel import bessel_j_normalized, kernel_1d
from .rootsys import RootSystem, mehta_constant


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes and weights with a declared absorbed weight function.

    weight_kind records what the weights integrate against: "plain" for dx,
    "gauss-jacobi(a,b)" when a power of |x| has been absorbed, and so on.
    calibration is the exact integral of the absorbed weight over the domain,
    used as a self-check.
    """

    nodes: np.ndarray
    weights: np.ndarray
    weight_kind: str
    domain: tuple
    calibration: float
    axes: Optional[tuple] = None

    @property
    def dimension(self) -> int:
        return 1 if self.nodes.ndim == 1 else self.nodes.shape[1]

    def integrate(self, values) -> complex:
        return np.sum(self.weights * np.asarray(values))

    def calibration_residual(self) -> float:
        total = float(np.sum(self.weights))
        return abs(total - self.calibration) / max(1.0, abs(self.calibration))


@lru_cache(maxsize=None)
def _jacobi_rule(n: int, a: float, b: float):
    return roots_jacobi(n, a, b)


def weighted_line_grid(gamma, radius: float = 10.0, n: int = 192) -> QuadratureGrid:
    """Grid absorbing |x|^(2 gamma) on [-radius, radius], split at the origin.

    On each half-line the substitution x = radius (t+1)/2 turns the weight
    into (1+t)^(2 gamma), which Gauss-Jacobi nodes handle exactly.
    """
    g = float(gamma)
    if g < 0:
        raise InvalidArgumentError("gamma must be nonnegative")
    if n < 2 or radius <= 0:
        raise InvalidArgumentError("need n >= 2 and radius > 0")
    t, w = _jacobi_rule(n, 0.0, 2.0 * g)
    half = radius / 2.0
    x_pos = half * (t + 1.0)
    w_pos = w * half ** (2.0 * g + 1.0)
    nodes = np.concatenate([-x_pos[::-1], x_pos])
    weights = np.concatenate([w_pos[::-1], w_pos])
    calibration = 2.0 * radius ** (2.0 * g + 1.0) / (2.0 * g + 1.0)
    return QuadratureGrid(
        nodes, weights, f"gauss-jacobi(0,{2.0 * g})", (-radius, radius), calibration
    )


def plain_line_grid(radius: float = 10.0, n: int = 384) -> QuadratureGrid:
    """Plain Gauss-Legendre grid on [-radius, radius]."""
    t, w = roots_legendre(n)
    return QuadratureGrid(
        radius * t, radius * w, "plain", (-radius, radius), 2.0 * radius
    )


def tensor_grid(axes) -> QuadratureGrid:
    """Tensor product of one-dimensional grids."""
    axes = tuple(axes)
    grids = np.meshgrid(*[g.nodes for g in axes], indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=-1)
    wmesh = np.meshgrid(*[g.weights for g in axes], indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wm in wmesh:
        weights = weights * wm.reshape(-1)
    kind = " x ".join(g.weight_kind for g in axes)
    calibration = float(np.prod([g.calibration for g in axes]))
    domain = tuple(g.domain for g in axes)
    return QuadratureGrid(nodes, weights, kind, domain, calibration, axes=axes)


def weighted_grid(rs: RootSystem, radius: float = 10.0, n: int = 192) -> QuadratureGrid:
    """Grid absorbing the full reflection weight of an axis-product system."""
    profile = rs.axis_profile()
    if profile is None:
        raise UnsupportedCaseError(
            "weighted grids exist only for products of one-dimensional factors"
        )
    axes = []
    for scale, k in profile:
        g = weighted_line_grid(k, radius, n)
        if scale is not None and scale != 1:
            factor = float(scale * scale) ** float(k)
            g = QuadratureGrid(
                g.nodes, g.weights * factor, g.weight_kind + f"*scale^{2 * k}",
                g.domain, g.calibration * factor,
            )
        axes.append(g)
    if rs.dimension == 1:
        return axes[0]
    return tensor_grid(axes)


# ---------------------------------------------------------------------------
# sampled functions

@dataclass(frozen=True)
class DecayClass:
    """Declared decay behavior: schwartz, compact(radius), or poly-growth(order)."""

    kind: str
    radius: float = 10.0
    order: int = 0

    def __post_init__(self):
        if self.kind not in ("schwartz", "compact", "poly-growth"):
            raise InvalidArgumentError(f"unknown decay kind {self.kind!r}")
        if self.radius <= 0:
            raise InvalidArgumentError("decay radius must be positive")

    @staticmethod
    def schwartz(radius: float = 10.0) -> "DecayClass":
        return DecayClass("schwartz", radius=radius)

    @staticmethod
    def compact(radius: float) -> "DecayClass":
        return DecayClass("compact", radius=radius)

    @staticmethod
    def poly_growth(order: int) -> "DecayClass":
        return DecayClass("poly-growth", order=order)

    @property
    def integrable(self) -> bool:
        return self.kind in ("schwartz", "compact")


@dataclass(frozen=True)
class SampledFunction:
    """A function given by a vectorized evaluator plus its decay class."""

    evaluator: Callable
    decay: DecayClass
    name: str = ""

    def __call__(self, points):
        return np.asarray(self.evaluator(np.asarray(points, dtype=float)))


def sampled(fn, decay: DecayClass, name: str = "") -> SampledFunction:
    return SampledFunction(fn, decay, name)


def _require_integrable(f: SampledFunction, op: str, dimension: int = 1):
    if not isinstance(f, SampledFunction):
        raise InvalidArgumentError(f"{op} expects a SampledFunction")
    if not f.decay.integrable:
        raise InvalidArgumentError(
            f"{op} needs schwartz or compactly supported input, got {f.decay.kind}"
        )
    check_decay(f, dimension)


def check_decay(f: SampledFunction, dimension: int = 1, tol: float = 1e-8) -> float:
    """Largest |f| sampled on the calibration sphere of its declared radius."""
    r = f.decay.radius
    if dimension == 1:
        pts = np.array([-r, r])
    else:
        theta = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        pts = r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    worst = float(np.max(np.abs(f(pts))))
    if f.decay.kind == "compact" and worst > 0:
        warnings.warn(
            f"function {f.name or '<anon>'} is nonzero on its declared support boundary",
            AccuracyWarning,
        )
    elif f.decay.kind == "schwartz" and worst > tol:
        warnings.warn(
            f"function {f.name or '<anon>'} decays slower than declared "
            f"(|f| = {worst:.2e} at radius {r})",
            AccuracyWarning,
        )
    return worst


# ---------------------------------------------------------------------------
# plans and constants

# A plan keeps the Dunkl kernel matrices of this many target sets other than
# its own grids, dropping the least recently used: a check reuses one target
# set for several functions (the same quadrature points, the same samples).
_TARGET_KERNELS = 8
_PLAN_GRIDS = ("space", "space_plain", "freq")


@dataclass(frozen=True, eq=False)
class TransformPlan:
    """Grids and frequency targets shared by a family of transform calls.

    The plan owns the one-dimensional kernel matrices that its transforms
    contract with; ``axis_kernel`` builds each on first use.
    """

    rs: RootSystem
    space: QuadratureGrid
    space_plain: QuadratureGrid
    freq: QuadratureGrid
    freq_points: np.ndarray
    radius: float
    freq_radius: float
    kernels: dict = field(default_factory=dict, compare=False, repr=False)

    def axis_nodes(self, grid: str, j: int) -> np.ndarray:
        """Nodes of axis j of the plan grid named grid."""
        g = getattr(self, grid)
        return g.nodes if g.axes is None else g.axes[j].nodes

    def axis_kernel(self, grid: str, j: int, gamma, side: complex, targets) -> np.ndarray:
        """K(x, side y) at multiplicity gamma, for x on axis j of a plan grid
        (rows) and y in targets (columns); side is -1j or 1j.  gamma None
        gives the plain Fourier kernel exp(side x y), which is not evaluated
        as a Dunkl kernel.

        When the targets are axis j of another plan grid, the matrix lives as
        long as the plan.  It is built once, as the conjugate transpose of
        its mirror when that exists, since K(t, s x) = conj K(x, -s t) for
        real x, t and imaginary s.  Dunkl kernels on other target sets are
        keyed by the targets' bytes, and only the _TARGET_KERNELS most
        recently used are kept.  Plain kernels on other targets are not
        kept: those target sets run to thousands of points, and an
        exponential costs little next to a Bessel function.
        """
        targets = np.ascontiguousarray(np.atleast_1d(targets), dtype=float)
        partner = next(
            (g for g in _PLAN_GRIDS if g != grid and np.array_equal(targets, self.axis_nodes(g, j))), None
        )
        key = (grid, j, gamma, side, partner or targets.tobytes())
        mirror = (partner, j, gamma, -side, grid)
        nodes = self.axis_nodes(grid, j)
        if key in self.kernels:
            mat = self.kernels.pop(key)
        elif mirror in self.kernels:
            mat = np.ascontiguousarray(self.kernels[mirror].conj().T)
        elif gamma is None:
            mat = np.exp(side * np.multiply.outer(nodes, targets))
        else:
            mat = kernel_1d(gamma, nodes[:, None], side * targets[None, :])
        if partner is not None or gamma is not None:
            self.kernels[key] = mat
        if partner is None:
            for stale in [k for k in self.kernels if isinstance(k[-1], bytes)][:-_TARGET_KERNELS]:
                del self.kernels[stale]
        return mat


def make_plan(
    rs: RootSystem,
    radius: float = 10.0,
    grid_n: Optional[int] = None,
    freq_radius: float = 8.0,
    freq_count: int = 257,
    plain_n: Optional[int] = None,
) -> TransformPlan:
    d = rs.dimension
    if grid_n is None:
        grid_n = 192 if d == 1 else 64
    if plain_n is None:
        plain_n = 2 * grid_n
    space = weighted_grid(rs, radius, grid_n)
    if d == 1:
        space_plain = plain_line_grid(radius, plain_n)
        freq_pts = np.linspace(-freq_radius, freq_radius, freq_count)
    else:
        space_plain = tensor_grid([plain_line_grid(radius, plain_n)] * d)
        axis = np.linspace(-freq_radius, freq_radius, freq_count)
        mesh = np.meshgrid(*([axis] * d), indexing="ij")
        freq_pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    freq = weighted_grid(rs, freq_radius + 2.0, grid_n)
    return TransformPlan(rs, space, space_plain, freq, freq_pts, radius, freq_radius)


def _axis_gammas(rs: RootSystem) -> list:
    """The multiplicity on each coordinate axis, as floats.

    With line_gamma, this is where the numeric layers leave the exact
    multiplicities of a RootSystem.
    """
    if not isinstance(rs, RootSystem):
        raise InvalidArgumentError(
            f"expected a RootSystem, got {rs!r}; a multiplicity k on the line is rank_one(k)"
        )
    profile = rs.axis_profile()
    if profile is None:
        raise UnsupportedCaseError(
            "numeric transforms exist only for products of one-dimensional factors"
        )
    return [float(k) for _, k in profile]


def line_gamma(rs: RootSystem) -> float:
    """The multiplicity of the one reflection of a line rs, as a float."""
    gammas = _axis_gammas(rs)
    if len(gammas) != 1:
        raise UnsupportedCaseError(
            "this runs only on the one-dimensional line; pass a rank-one system (preset z2:<k>)"
        )
    return gammas[0]


def gaussian_eigen_constant(rs: RootSystem) -> float:
    """Scale of the Gaussian under the transform: 2^(gamma + d/2) / c_k."""
    return 2.0 ** (float(rs.gamma) + rs.dimension / 2.0) / mehta_constant(rs)


def inverse_constant(rs: RootSystem) -> float:
    """Scalar in front of the inverse transform: c_k^2 / 2^(2 gamma + d)."""
    c = mehta_constant(rs)
    return c * c / 2.0 ** (2.0 * float(rs.gamma) + rs.dimension)


def p_multiplier_constant(rs: RootSystem) -> float:
    """Scalar pi^d c_k^2 / 2^(2 gamma) in front of both inversion multipliers."""
    c = mehta_constant(rs)
    return math.pi**rs.dimension * c * c / 2.0 ** (2.0 * float(rs.gamma))


# ---------------------------------------------------------------------------
# transforms

def _contract(plan: TransformPlan, grid: str, gammas, fvals, ys, side: complex, factors=None):
    """sum over a plan grid of w f(x) prod_j K(x_j, side y_j), one axis at a time.

    Targets equal to the nodes of a plan tensor grid give the values on that
    grid by sum factorization: the tensor W of weighted values becomes
    F_1^T W F_2 in two dimensions, F_j the axis matrices.  Other targets are
    a list of points, contracted from the last axis to the first.  gamma None
    on every axis gives the plain Fourier integral: the gamma = 0 kernel is
    exp(x y).  factors, one (n_j, m) matrix per axis for m target points,
    multiply the axis matrices entrywise, so each target point is contracted
    against its own column of every factor.
    """
    d = len(gammas)
    fw = np.reshape(getattr(plan, grid).weights * fvals, [len(plan.axis_nodes(grid, j)) for j in range(d)])
    ys = np.asarray(ys, dtype=float)
    tensor = d > 1 and factors is None and next(
        (g for g in _PLAN_GRIDS if np.array_equal(ys, getattr(plan, g).nodes)), None)
    if tensor:
        for j, gam in enumerate(gammas):
            fw = np.tensordot(fw, plan.axis_kernel(grid, j, gam, side, plan.axis_nodes(tensor, j)), axes=(0, 0))
        return fw.reshape(-1)
    pts = ys.reshape(-1, d)
    mats = [plan.axis_kernel(grid, j, gam, side, pts[:, j]) for j, gam in enumerate(gammas)]
    if factors is not None:
        mats = [mat * factor for mat, factor in zip(mats, factors)]
    out = fw @ mats[-1]
    for mat in reversed(mats[:-1]):
        out = np.einsum("...am,am->...m", out, mat)
    return out


def dunkl_transform_many(rs: RootSystem, f, ys, plan: TransformPlan) -> np.ndarray:
    return _contract(plan, "space", _axis_gammas(rs), np.asarray(f(plan.space.nodes)), ys, -1j)


def dunkl_transform(rs: RootSystem, f: SampledFunction, y, plan: TransformPlan) -> complex:
    """Weighted integral of f against K(x, -i y)."""
    _require_integrable(f, "dunkl_transform", rs.dimension)
    return complex(dunkl_transform_many(rs, f, [y] if rs.dimension == 1 else [list(np.atleast_1d(y))], plan)[0])


def dunkl_inverse_many(rs: RootSystem, hvals_on_freq, xs, plan: TransformPlan,
                       factors=None) -> np.ndarray:
    return inverse_constant(rs) * _contract(plan, "freq", _axis_gammas(rs), hvals_on_freq, xs, 1j, factors)


def dunkl_inverse(rs: RootSystem, h: SampledFunction, x, plan: TransformPlan) -> complex:
    """Inverse transform; h must decay (schwartz or compact)."""
    _require_integrable(h, "dunkl_inverse", rs.dimension)
    hvals = np.asarray(h.evaluator(plan.freq.nodes))
    return complex(dunkl_inverse_many(rs, hvals, [x] if rs.dimension == 1 else [list(np.atleast_1d(x))], plan)[0])


def dunkl_roundtrip_many(rs: RootSystem, f, xs, plan: TransformPlan) -> np.ndarray:
    """Forward transform sampled on the frequency grid, then inverted at xs."""
    hvals = dunkl_transform_many(rs, f, plan.freq.nodes, plan)
    return dunkl_inverse_many(rs, hvals, xs, plan)


def classical_fourier_many(f, ys, plan: TransformPlan) -> np.ndarray:
    fvals = np.asarray(f(plan.space_plain.nodes))
    return _contract(plan, "space_plain", [None] * plan.rs.dimension, fvals, ys, -1j)


def classical_fourier(f: SampledFunction, y, plan: TransformPlan) -> complex:
    """Plain Fourier integral with kernel exp(-i <x, y>) and no prefactor."""
    _require_integrable(f, "classical_fourier", plan.rs.dimension)
    return complex(classical_fourier_many(f, [y] if plan.rs.dimension == 1 else [list(np.atleast_1d(y))], plan)[0])


def fourier_bessel(profile, lam: float, alpha: float, radius: float = 1.0, n: int = 128) -> float:
    """Bessel transform of a radial profile.

    Integrates profile(r) j_alpha(lam r) r^(2 alpha + 1) / (2^alpha Gamma(alpha+1))
    over [0, radius], with the power of r absorbed into Jacobi nodes.  At
    lam = 0 this is the normalized moment integral of the profile.
    """
    if alpha < -0.5:
        raise InvalidArgumentError("alpha must be >= -1/2")
    t, w = _jacobi_rule(n, 0.0, 2.0 * alpha + 1.0)
    half = radius / 2.0
    r = half * (t + 1.0)
    wts = w * half ** (2.0 * alpha + 2.0)
    vals = np.asarray(profile(r)) * np.real(bessel_j_normalized(alpha, lam * r))
    norm = 2.0**alpha * math.gamma(alpha + 1.0)
    return float(np.sum(wts * vals) / norm)


def multiplier_P_many(rs: RootSystem, f, xs, plan: TransformPlan) -> np.ndarray:
    """Weight-multiplier operator: conjugate multiplication by the weight
    with the plain Fourier transform, times the inversion scalar."""
    hvals = classical_fourier_many(f, plan.freq.nodes, plan)
    pref = p_multiplier_constant(rs) / (2.0 * math.pi) ** rs.dimension
    return pref * _contract(plan, "freq", [None] * rs.dimension, hvals, xs, 1j)


def multiplier_P(rs: RootSystem, f: SampledFunction, x, plan: TransformPlan) -> float:
    _require_integrable(f, "multiplier_P", rs.dimension)
    val = multiplier_P_many(rs, f, [x] if rs.dimension == 1 else [list(np.atleast_1d(x))], plan)[0]
    if abs(val.imag) > 1e-7 * max(1.0, abs(val.real)):
        warnings.warn("multiplier_P produced a significant imaginary part", AccuracyWarning)
    return float(val.real)
