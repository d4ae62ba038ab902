"""One-dimensional realizations of the intertwining operator, its dual,
their inverses, and the representing-distribution pairings.

The forward operator averages against a beta-type density on (-|x|, |x|)
whose endpoint behavior Gauss-Jacobi nodes absorb exactly.  The dual
operator integrates over {|t| >= |y|}; the substitution t = |y| cosh(s)
moves the inner endpoint to s = 0 where a second Jacobi rule absorbs the
remaining power of s.  Inverses come in three flavors, all built from
pieces that live in other modules, so their pairwise agreement is a real
cross-check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .errors import (
    AccuracyError,
    DegeneratePointError,
    InvalidArgumentError,
    UnsupportedCaseError,
)
from .functions import PolyGauss, SmoothBump
from .polyexact import operator_prefactor
from .rootsys import RootSystem, rank_one
from .transform import (
    SampledFunction,
    TransformPlan,
    classical_fourier_many,
    dunkl_inverse_many,
    dunkl_transform_many,
    make_plan,
    multiplier_P_many,
    plain_line_grid,
)


def _as_fraction(gamma) -> Fraction:
    if isinstance(gamma, Fraction):
        return gamma
    if isinstance(gamma, int):
        return Fraction(gamma)
    return Fraction(float(gamma))


@lru_cache(maxsize=32)
def _rank_one(gamma_key: float) -> RootSystem:
    return rank_one(Fraction(gamma_key))


def _rs_for(gamma) -> RootSystem:
    return _rank_one(float(gamma))


@lru_cache(maxsize=32)
def default_line_plan(gamma_key: float) -> TransformPlan:
    """Shared transform plan for one-dimensional work at this multiplicity."""
    return make_plan(_rank_one(gamma_key), radius=10.0, grid_n=160,
                     freq_radius=9.0, freq_count=257)


def _plan_for(gamma_key: float) -> TransformPlan:
    return default_line_plan(float(gamma_key))


def mass_constant(gamma) -> float:
    """Gamma(gamma + 1/2) / (sqrt(pi) Gamma(gamma))."""
    g = float(gamma)
    if g <= 0:
        raise InvalidArgumentError("gamma must be positive")
    return math.gamma(g + 0.5) / (math.sqrt(math.pi) * math.gamma(g))


# ---------------------------------------------------------------------------
# the averaging measure

@dataclass(frozen=True)
class IntertwiningDensity:
    """Probability density of the averaging measure at base point x."""

    gamma: float
    x: float

    def __post_init__(self):
        if self.x == 0:
            raise DegeneratePointError(
                "the measure at x = 0 is the point mass at 0; no density exists"
            )
        if self.gamma <= 0:
            raise InvalidArgumentError("gamma must be positive")

    def __call__(self, y):
        return mu_density(self.gamma, self.x, y)

    @property
    def support(self):
        a = abs(self.x)
        return (-a, a)


def mu_density(gamma, x, y):
    """Density of the averaging measure on (-|x|, |x|), zero outside.

    For negative base points the density is the reflection of the positive
    case, which is what the scaling rule of the kernel forces.
    """
    g = float(gamma)
    if g <= 0:
        raise InvalidArgumentError("gamma must be positive")
    if x == 0:
        raise DegeneratePointError(
            "the measure at x = 0 is the point mass at 0; no density exists"
        )
    a = abs(float(x))
    yy = np.asarray(y, dtype=float) * (1.0 if x > 0 else -1.0)
    inside = np.abs(yy) < a
    out = np.zeros_like(yy)
    c = mass_constant(g) * a ** (-2.0 * g)
    yi = yy[inside]
    out[inside] = c * (a - yi) ** (g - 1.0) * (a + yi) ** g
    if np.ndim(y) == 0:
        return float(out)
    return out


@lru_cache(maxsize=64)
def mu_quadrature(gamma_key: float, n: int = 64):
    """Nodes t in (-1, 1) and probability weights for the averaging measure.

    V_k f(x) = sum_i w_i f(x t_i) for every x != 0; the weights sum to 1.
    """
    g = gamma_key
    t, w = roots_jacobi(n, g - 1.0, g)
    return t, w * mass_constant(g)


def V_k_num(gamma, f, x, n: int = 64):
    """Apply the intertwining operator by quadrature over the measure.

    Accepts a scalar or array of base points.  At gamma = 0 the operator is
    the identity; at x = 0 the measure degenerates to the point mass at 0.
    """
    g = float(gamma)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if g == 0:
        vals = np.asarray(f(xs), dtype=float)
        return float(vals[0]) if np.ndim(x) == 0 else vals
    t, w = mu_quadrature(g, n)
    pts = xs[:, None] * t[None, :]
    vals = np.asarray(f(pts.reshape(-1))).reshape(pts.shape)
    out = vals @ w
    zero = xs == 0
    if np.any(zero):
        out[zero] = np.asarray(f(np.zeros(int(np.sum(zero)))))
    return float(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# the dual measure

@dataclass(frozen=True)
class DualDensity:
    """Density of the dual measure at base point y against plain dx.

    Supported on {|x| >= |y|}; equals the averaging density with the roles
    of the arguments exchanged, times the reflection weight in x.
    """

    gamma: float
    y: float

    def __call__(self, x):
        g = self.gamma
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xx)
        ok = np.abs(xx) > abs(self.y)
        if np.any(ok):
            dens = np.array([mu_density(g, xi, self.y) for xi in xx[ok]])
            out[ok] = dens * np.abs(xx[ok]) ** (2.0 * g)
        return float(out[0]) if np.ndim(x) == 0 else out

    @property
    def support(self):
        return abs(self.y)


@lru_cache(maxsize=64)
def _half_rule(n: int, power: float):
    """Rule for integrals of u^power h(u) over [0, 1] with h smooth."""
    t, w = roots_jacobi(n, 0.0, power)
    u = (t + 1.0) / 2.0
    return u, w / 2.0 ** (power + 1.0)


def _sinhc(s):
    # sinh(s)/s; near 0 it rounds to 1 + s^2/6, and s = 0 gives exactly 1
    s = np.asarray(s, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(s == 0.0, 1.0, np.sinh(s) / s)


def _dual_side(g, f, a, sigma, x_max, n, same_side: bool):
    """One half-line piece of the dual operator at base points a = |y| > 0.

    With t = sigma' a cosh(s) the integrand becomes a power of s times a
    smooth factor; the power goes into the Jacobi rule.
    """
    power = 2.0 * g - 1.0 if same_side else 2.0 * g + 1.0
    other = 2.0 * g + 1.0 if same_side else 2.0 * g - 1.0
    u, w = _half_rule(n, power)
    S = np.arccosh(x_max / a)
    s = S[None, :] * u[:, None]
    half = s / 2.0
    smooth = _sinhc(half) ** power * np.cosh(half) ** other
    sign = sigma if same_side else -sigma
    args = (sign * a)[None, :] * np.cosh(s)
    fvals = np.asarray(f(args.reshape(-1))).reshape(args.shape)
    scale = mass_constant(g) * a ** (2.0 * g) * 2.0 ** (2.0 * g - power) * S ** (power + 1.0)
    return scale * np.einsum("i,im->m", w, smooth * fvals)


def _dual_at_zero(g, f, x_max, n):
    u, w = _half_rule(n, 2.0 * g - 1.0)
    x = x_max * u
    vals = np.asarray(f(x)) + np.asarray(f(-x))
    return mass_constant(g) * x_max ** (2.0 * g) * float(np.sum(w * vals))


def tV_k_num(gamma, f, y, n: int = 120, x_max: float = 14.0, support_radius=None):
    """Apply the dual intertwining operator by quadrature.

    The integral runs over {|t| >= |y|}; points with |y| beyond the reach of
    f contribute exactly zero.  support_radius truncates the domain exactly
    for compactly supported inputs; otherwise x_max must be far enough out
    that f is negligible there, which is verified.
    """
    g = float(gamma)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    if g == 0:
        vals = np.asarray(f(ys), dtype=float)
        return float(vals[0]) if np.ndim(y) == 0 else vals
    if isinstance(f, SampledFunction):
        if not f.decay.integrable:
            raise InvalidArgumentError(
                "the dual operator needs schwartz or compactly supported input"
            )
        if f.decay.kind == "compact" and support_radius is None:
            support_radius = f.decay.radius
    cutoff = support_radius if support_radius is not None else x_max
    if support_radius is None:
        tail = float(np.max(np.abs(np.asarray(f(np.array([-cutoff, cutoff]))))))
        weight_scale = mass_constant(g) * cutoff ** (2.0 * g + 1.0)
        if tail * weight_scale > 1e-5:
            raise AccuracyError(
                "input decays too slowly for the truncated dual quadrature",
                residual=tail * weight_scale,
            )
    out = np.zeros(ys.shape)
    zero = ys == 0.0
    if np.any(zero):
        out[zero] = _dual_at_zero(g, f, cutoff, n)
    live = (~zero) & (np.abs(ys) < cutoff)
    if np.any(live):
        a = np.abs(ys[live])
        sigma = np.sign(ys[live])
        out[live] = _dual_side(g, f, a, sigma, cutoff, n, True) + _dual_side(
            g, f, a, sigma, cutoff, n, False
        )
    return float(out[0]) if np.ndim(y) == 0 else out


def dual_via_transform(gamma, f, y, plan: TransformPlan = None):
    """Independent route to the dual operator: classical inverse Fourier of
    the Dunkl transform.  Used as a cross-check, not in the inverse paths."""
    g = float(gamma)
    if plan is None:
        plan = _plan_for(g)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    grid = plain_line_grid(plan.freq_radius + 2.0, 2 * len(plan.space.nodes))
    hvals = dunkl_transform_many(plan.rs, f, grid.nodes, plan)
    phase = np.exp(1j * np.outer(grid.nodes, ys))
    out = ((grid.weights * hvals) @ phase) / (2.0 * math.pi)
    res = np.real(out)
    return float(res[0]) if np.ndim(y) == 0 else res


def dual_inverse_via_transform(gamma, f, x, plan: TransformPlan = None):
    """Independent route to the inverse dual operator: Dunkl inverse of the
    classical Fourier transform."""
    g = float(gamma)
    if plan is None:
        plan = _plan_for(g)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    hvals = classical_fourier_many(f, plan.freq.nodes, plan)
    out = np.real(dunkl_inverse_many(plan.rs, hvals, xs, plan))
    return float(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# local forms of the multiplier operators on closed function families

def _require_integer_gamma(gamma) -> int:
    gq = _as_fraction(gamma)
    if gq.denominator != 1 or gq <= 0:
        raise UnsupportedCaseError(
            "this path needs a positive integer multiplicity sum"
        )
    return int(gq)


def _prefactor(gamma) -> Fraction:
    return operator_prefactor(_rs_for(gamma)).as_fraction()


def local_P(gamma, f):
    """Differential form of the first multiplier operator on a closed family:
    prefactor times (-1)^gamma times the 2 gamma-th derivative."""
    m = _require_integer_gamma(gamma)
    out = f
    for _ in range(2 * m):
        out = out.derivative()
    return out.scale(_prefactor(gamma) * (-1) ** m)


def local_Q(gamma, f):
    """Difference-differential form of the second multiplier operator:
    prefactor times (-1)^gamma times the 2 gamma-th Dunkl power."""
    m = _require_integer_gamma(gamma)
    gq = _as_fraction(gamma)
    return f.dunkl_power(gq, 2 * m).scale(_prefactor(gamma) * (-1) ** m)


# ---------------------------------------------------------------------------
# inverse paths

def inv_V_via_P(gamma, f, x, plan: TransformPlan = None, n: int = 120):
    """Inverse of the intertwining operator as multiplier after dual:
    first apply the dual operator, then the Fourier-multiplier form."""
    g = float(gamma)
    if isinstance(f, SampledFunction) and not f.decay.integrable:
        raise InvalidArgumentError(
            "inverse paths need schwartz or compactly supported input"
        )
    if plan is None:
        plan = _plan_for(g)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if g == 0:
        vals = np.asarray(f(xs), dtype=float)
        return float(vals[0]) if np.ndim(x) == 0 else vals
    tvf = lambda pts: tV_k_num(g, f, pts, n=n)
    out = np.real(multiplier_P_many(plan.rs, tvf, xs, plan))
    return float(out[0]) if np.ndim(x) == 0 else out


def inv_tV_via_VkP(gamma, f, x, plan: TransformPlan = None, n: int = 64):
    """Inverse of the dual operator: apply the multiplier form first, then
    average over the intertwining measure."""
    g = float(gamma)
    if isinstance(f, SampledFunction) and not f.decay.integrable:
        raise InvalidArgumentError(
            "inverse paths need schwartz or compactly supported input"
        )
    if plan is None:
        plan = _plan_for(g)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if g == 0:
        vals = np.asarray(f(xs), dtype=float)
        return float(vals[0]) if np.ndim(x) == 0 else vals
    pf = lambda pts: np.real(multiplier_P_many(plan.rs, f, pts, plan))
    out = V_k_num(g, pf, xs, n=n)
    return out if np.ndim(x) else float(np.atleast_1d(out)[0])


def inv_V_via_Q(gamma, f, x, n: int = 120, x_max: float = 14.0):
    """Inverse of the intertwining operator for integer multiplicities:
    dual operator applied to the difference-differential multiplier image.

    f must belong to a family closed under the Dunkl operator (PolyGauss or
    SmoothBump), so the multiplier image is exact.
    """
    if not isinstance(f, (PolyGauss, SmoothBump)):
        raise UnsupportedCaseError(
            "this path needs a function family closed under the Dunkl operator"
        )
    qf = local_Q(gamma, f)
    support = 1.0 if isinstance(f, SmoothBump) else None
    return tV_k_num(float(gamma), qf, x, n=n, x_max=x_max, support_radius=support)


# ---------------------------------------------------------------------------
# representing-distribution pairings

def eta_pairing(gamma, x, f, n: int = 120, x_max: float = 14.0):
    """Pairing with the representing distribution of the inverse operator:
    the dual measure at x applied to the multiplier image of f.

    Must agree with the multiplier-after-dual inverse path; the suites
    verify that agreement pointwise.
    """
    return inv_V_via_Q(gamma, f, x, n=n, x_max=x_max)


def z_pairing(gamma, x, f, plan: TransformPlan = None, n: int = 64):
    """Pairing with the representing distribution of the inverse dual
    operator: integrate the multiplier image of f over the averaging
    measure at x."""
    g = float(gamma)
    gq = _as_fraction(gamma)
    if isinstance(f, (PolyGauss, SmoothBump)) and gq.denominator == 1 and gq > 0:
        pf = local_P(gamma, f)
        return V_k_num(g, pf, x, n=n)
    return inv_tV_via_VkP(gamma, f, x, plan=plan, n=n)


# ---------------------------------------------------------------------------
# tensor extension over product systems

def V_k_num_product(rs: RootSystem, f, points, n: int = 48):
    """Intertwining operator for a product system: tensor of line measures."""
    profile = rs.axis_profile()
    if profile is None:
        raise UnsupportedCaseError("tensor averaging needs a product system")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rules = []
    for scale, k in profile:
        g = float(k)
        if g == 0:
            rules.append((np.array([1.0]), np.array([1.0])))
        else:
            rules.append(mu_quadrature(g, n))
    mesh_t = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    mesh_w = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    tmat = np.stack([m.reshape(-1) for m in mesh_t], axis=-1)
    weights = np.ones(tmat.shape[0])
    for wm in mesh_w:
        weights = weights * wm.reshape(-1)
    out = np.empty(pts.shape[0])
    for i, xp in enumerate(pts):
        # an axis with xp[j] = 0 collapses to the point mass automatically
        vals = np.asarray(f(xp[None, :] * tmat))
        out[i] = float(weights @ vals)
    return out if np.asarray(points).ndim == 2 else float(out[0])


def tV_k_num_product(rs: RootSystem, f, points, n: int = 80, x_max: float = 14.0):
    """Dual operator for a two-factor product system, one axis at a time."""
    profile = rs.axis_profile()
    if profile is None or rs.dimension != 2:
        raise UnsupportedCaseError("tensor dual averaging covers two-factor products")
    g1, g2 = (float(k) for _, k in profile)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0])
    for i, (y1, y2) in enumerate(pts):
        inner = lambda x1s: np.array(
            [tV_k_num(g2, lambda x2s: f(np.stack([np.full_like(x2s, x1), x2s], axis=-1)), y2,
                      n=n, x_max=x_max) for x1 in np.atleast_1d(x1s)]
        )
        out[i] = tV_k_num(g1, inner, y1, n=n, x_max=x_max)
    return out if np.asarray(points).ndim == 2 else float(out[0])
