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
    _axis_gammas,
    classical_fourier_many,
    dunkl_inverse_many,
    dunkl_transform_many,
    line_gamma,
    make_plan,
    multiplier_P_many,
    plain_line_grid,
)


@lru_cache(maxsize=32)
def default_line_plan(rs: RootSystem) -> TransformPlan:
    """Shared transform plan for one-dimensional work on the line rs; any
    other argument is refused."""
    line_gamma(rs)
    return make_plan(rs, radius=10.0, grid_n=160, freq_radius=9.0, freq_count=257)


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

    rs: RootSystem
    x: float

    def __post_init__(self):
        if line_gamma(self.rs) <= 0:
            raise InvalidArgumentError("gamma must be positive")
        if self.x == 0:
            raise DegeneratePointError(
                "the measure at x = 0 is the point mass at 0; no density exists"
            )

    def __call__(self, y):
        return mu_density(self.rs, self.x, y)

    @property
    def support(self):
        a = abs(self.x)
        return (-a, a)


def mu_density(rs: RootSystem, x, y):
    """Density of the averaging measure on (-|x|, |x|), zero outside.

    For negative base points the density is the reflection of the positive
    case, which is what the scaling rule of the kernel forces.
    """
    g = line_gamma(rs)
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


def V_k_num(rs: RootSystem, f, x, n: int = 64):
    """Apply the intertwining operator of the line rs by quadrature over the
    measure.

    Accepts a scalar or array of base points.  At gamma = 0 the operator is
    the identity; at x = 0 the measure degenerates to the point mass at 0.
    """
    g = line_gamma(rs)
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

    Supported on {|x| > |y|}; equals the averaging density with the roles
    of the arguments exchanged, times the reflection weight in x:
    c (|x| - sgn(x) y)^(gamma - 1) (|x| + sgn(x) y)^gamma, c = mass_constant.
    """

    rs: RootSystem
    y: float

    def __call__(self, x):
        g = line_gamma(self.rs)
        c = mass_constant(g)
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(xx)
        ok = np.abs(xx) > abs(self.y)
        a, sy = np.abs(xx[ok]), np.sign(xx[ok]) * self.y
        out[ok] = c * (a - sy) ** (g - 1.0) * (a + sy) ** g
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


def _dual_side(g, u, x_max, n, same_side: bool):
    """The f-independent rule of one half-line piece of the dual operator at
    distinct base points u != 0: arguments, smooth factor, scale and weights.

    With t = sigma' |u| cosh(s) the integrand becomes a power of s times a
    smooth factor; the power goes into the Jacobi rule.
    """
    a, sigma = np.abs(u), np.sign(u)
    power = 2.0 * g - 1.0 if same_side else 2.0 * g + 1.0
    other = 2.0 * g + 1.0 if same_side else 2.0 * g - 1.0
    t, w = _half_rule(n, power)
    S = np.arccosh(x_max / a)
    s = S[None, :] * t[:, None]
    half = s / 2.0
    smooth = _sinhc(half) ** power * np.cosh(half) ** other
    sign = sigma if same_side else -sigma
    args = (sign * a)[None, :] * np.cosh(s)
    scale = mass_constant(g) * a ** (2.0 * g) * 2.0 ** (2.0 * g - power) * S ** (power + 1.0)
    return args, smooth, scale, w


def _apply_side(side, f):
    args, smooth, scale, w = side
    fvals = np.asarray(f(args.reshape(-1))).reshape(args.shape)
    return scale * np.einsum("i,im->m", w, smooth * fvals)


def _dual_at_zero(g, f, x_max, n):
    u, w = _half_rule(n, 2.0 * g - 1.0)
    x = x_max * u
    vals = np.asarray(f(x)) + np.asarray(f(-x))
    return mass_constant(g) * x_max ** (2.0 * g) * float(np.sum(w * vals))


def _cutoff(g, f, x_max, support_radius):
    """Where the dual quadrature of f stops; x_max only once f is negligible there."""
    if isinstance(f, SampledFunction):
        if not f.decay.integrable:
            raise InvalidArgumentError(
                "the dual operator needs schwartz or compactly supported input"
            )
        if f.decay.kind == "compact" and support_radius is None:
            return f.decay.radius
    if support_radius is not None:
        return support_radius
    tail = float(np.max(np.abs(np.asarray(f(np.array([-x_max, x_max]))))))
    weight_scale = mass_constant(g) * x_max ** (2.0 * g + 1.0)
    if tail * weight_scale > 1e-5:
        raise AccuracyError(
            "input decays too slowly for the truncated dual quadrature",
            residual=tail * weight_scale,
        )
    return x_max


def _per_function(f, y, out):
    """Drop out's leading function axis for one function f; one point y gives a float."""
    out = out.reshape((len(out),) + np.shape(y))
    if not callable(f):
        return out
    return float(out[0]) if np.ndim(y) == 0 else out[0]


def tV_k_num(rs: RootSystem, f, y, n: int = 120, x_max: float = 14.0, support_radius=None):
    """Apply the dual intertwining operator of the line rs by quadrature.

    The integral runs over {|t| >= |y|}; points with |y| beyond the reach of
    f contribute exactly zero.  support_radius truncates the domain exactly
    for compactly supported inputs; otherwise x_max must be far enough out
    that f is negligible there, which is verified.

    f may be a sequence of functions.  They share the f-independent rule,
    built once per cutoff on the distinct points of y, and the result gains
    a leading function axis.
    """
    g = line_gamma(rs)
    fs = [f] if callable(f) else list(f)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.zeros((len(fs),) + ys.shape)
    if g == 0:
        out[:] = [h(ys) for h in fs]
        return _per_function(f, y, out)
    cutoffs = [_cutoff(g, h, x_max, support_radius) for h in fs]
    zero = ys == 0.0
    for cutoff in set(cutoffs):
        live = (~zero) & (np.abs(ys) < cutoff)
        u, back = np.unique(ys[live], return_inverse=True)
        sides = [_dual_side(g, u, cutoff, n, same) for same in (True, False)] if u.size else []
        for i in (i for i, c in enumerate(cutoffs) if c == cutoff):
            if np.any(zero):
                out[i][zero] = _dual_at_zero(g, fs[i], cutoff, n)
            if sides:
                out[i][live] = (_apply_side(sides[0], fs[i]) + _apply_side(sides[1], fs[i]))[back]
    return _per_function(f, y, out)


def dual_via_transform(rs: RootSystem, f, y, plan: TransformPlan = None):
    """Independent route to the dual operator: classical inverse Fourier of
    the Dunkl transform.  Used as a cross-check, not in the inverse paths."""
    if plan is None:
        plan = default_line_plan(rs)
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    grid = plain_line_grid(plan.freq_radius + 2.0, 2 * len(plan.space.nodes))
    hvals = dunkl_transform_many(rs, f, grid.nodes, plan)
    phase = np.exp(1j * np.outer(grid.nodes, ys))
    out = ((grid.weights * hvals) @ phase) / (2.0 * math.pi)
    res = np.real(out)
    return float(res[0]) if np.ndim(y) == 0 else res


def dual_inverse_via_transform(rs: RootSystem, f, x, plan: TransformPlan = None):
    """Independent route to the inverse dual operator: Dunkl inverse of the
    classical Fourier transform."""
    if plan is None:
        plan = default_line_plan(rs)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    hvals = classical_fourier_many(f, plan.freq.nodes, plan)
    out = np.real(dunkl_inverse_many(rs, hvals, xs, plan))
    return float(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# local forms of the multiplier operators on closed function families

def _positive_integer(rs: RootSystem) -> bool:
    return line_gamma(rs) > 0 and rs.is_integer_case


def _signed_prefactor(rs: RootSystem):
    """2 gamma and the prefactor times (-1)^gamma, for a positive integer gamma."""
    if not _positive_integer(rs):
        raise UnsupportedCaseError(
            "this path needs a positive integer multiplicity sum"
        )
    m = int(rs.gamma)
    return 2 * m, operator_prefactor(rs).as_fraction() * (-1) ** m


def local_P(rs: RootSystem, f):
    """Differential form of the first multiplier operator on a closed family:
    prefactor times (-1)^gamma times the 2 gamma-th derivative."""
    order, c = _signed_prefactor(rs)
    out = f
    for _ in range(order):
        out = out.derivative()
    return out.scale(c)


def local_Q(rs: RootSystem, f):
    """Difference-differential form of the second multiplier operator:
    prefactor times (-1)^gamma times the 2 gamma-th Dunkl power."""
    order, c = _signed_prefactor(rs)
    return f.dunkl_power(rs.gamma, order).scale(c)


# ---------------------------------------------------------------------------
# inverse paths

def inv_V_via_P(rs: RootSystem, f, x, plan: TransformPlan = None, n: int = 120):
    """Inverse of the intertwining operator as multiplier after dual:
    first apply the dual operator, then the Fourier-multiplier form."""
    g = line_gamma(rs)
    if isinstance(f, SampledFunction) and not f.decay.integrable:
        raise InvalidArgumentError(
            "inverse paths need schwartz or compactly supported input"
        )
    if plan is None:
        plan = default_line_plan(rs)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if g == 0:
        vals = np.asarray(f(xs), dtype=float)
        return float(vals[0]) if np.ndim(x) == 0 else vals
    tvf = lambda pts: tV_k_num(rs, f, pts, n=n)
    out = np.real(multiplier_P_many(rs, tvf, xs, plan))
    return float(out[0]) if np.ndim(x) == 0 else out


def inv_tV_via_VkP(rs: RootSystem, f, x, plan: TransformPlan = None, n: int = 64):
    """Inverse of the dual operator: apply the multiplier form first, then
    average over the intertwining measure."""
    g = line_gamma(rs)
    if isinstance(f, SampledFunction) and not f.decay.integrable:
        raise InvalidArgumentError(
            "inverse paths need schwartz or compactly supported input"
        )
    if plan is None:
        plan = default_line_plan(rs)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if g == 0:
        vals = np.asarray(f(xs), dtype=float)
        return float(vals[0]) if np.ndim(x) == 0 else vals
    pf = lambda pts: np.real(multiplier_P_many(rs, f, pts, plan))
    out = V_k_num(rs, pf, xs, n=n)
    return out if np.ndim(x) else float(np.atleast_1d(out)[0])


def inv_V_via_Q(rs: RootSystem, f, x, n: int = 120, x_max: float = 14.0):
    """Inverse of the intertwining operator for integer multiplicities:
    dual operator applied to the difference-differential multiplier image.

    f must belong to a family closed under the Dunkl operator (PolyGauss or
    SmoothBump), so the multiplier image is exact.  A sequence of such
    functions shares one dual pass, and the result gains a leading axis.
    """
    fs = [f] if callable(f) else list(f)
    if not all(isinstance(h, (PolyGauss, SmoothBump)) for h in fs):
        raise UnsupportedCaseError(
            "this path needs a function family closed under the Dunkl operator"
        )
    # a bump's image keeps the support [-1, 1], which fixes its cutoff
    qfs = [q.as_sampled() if isinstance(q, SmoothBump) else q for q in (local_Q(rs, h) for h in fs)]
    return tV_k_num(rs, qfs[0] if callable(f) else qfs, x, n=n, x_max=x_max)


# ---------------------------------------------------------------------------
# representing-distribution pairings

def eta_pairing(rs: RootSystem, x, f, n: int = 120, x_max: float = 14.0):
    """Pairing with the representing distribution of the inverse operator:
    the dual measure at x applied to the multiplier image of f.

    Must agree with the multiplier-after-dual inverse path; the suites
    verify that agreement pointwise.
    """
    return inv_V_via_Q(rs, f, x, n=n, x_max=x_max)


def z_pairing(rs: RootSystem, x, f, plan: TransformPlan = None, n: int = 64):
    """Pairing with the representing distribution of the inverse dual
    operator: integrate the multiplier image of f over the averaging
    measure at x."""
    if isinstance(f, (PolyGauss, SmoothBump)) and _positive_integer(rs):
        return V_k_num(rs, local_P(rs, f), x, n=n)
    return inv_tV_via_VkP(rs, f, x, plan=plan, n=n)


# ---------------------------------------------------------------------------
# tensor extension over product systems

def V_k_num_product(rs: RootSystem, f, points, n: int = 48):
    """Intertwining operator for a product system: tensor of line measures.

    f is called once, on every base point times every tensor node.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rules = [mu_quadrature(g, n) if g else (np.ones(1), np.ones(1)) for g in _axis_gammas(rs)]
    mesh_t = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    mesh_w = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    tmat = np.stack([m.reshape(-1) for m in mesh_t], axis=-1)
    weights = np.ones(tmat.shape[0])
    for wm in mesh_w:
        weights = weights * wm.reshape(-1)
    # an axis with a zero coordinate collapses to the point mass automatically
    vals = np.asarray(f((pts[:, None, :] * tmat[None, :, :]).reshape(-1, pts.shape[1])))
    out = vals.reshape(len(pts), -1) @ weights
    return out if np.asarray(points).ndim == 2 else float(out[0])


def tV_k_num_product(rs: RootSystem, f, points, n: int = 80, x_max: float = 14.0):
    """Dual operator for a two-factor product system, one axis at a time."""
    profile = rs.axis_profile()
    if profile is None or rs.dimension != 2:
        raise UnsupportedCaseError("tensor dual averaging covers two-factor products")
    line1, line2 = (rank_one(k) for _, k in profile)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0])
    for i, (y1, y2) in enumerate(pts):
        inner = lambda x1s: np.array(
            [tV_k_num(line2, lambda x2s: f(np.stack([np.full_like(x2s, x1), x2s], axis=-1)), y2,
                      n=n, x_max=x_max) for x1 in np.atleast_1d(x1s)]
        )
        out[i] = tV_k_num(line1, inner, y1, n=n, x_max=x_max)
    return out if np.asarray(points).ndim == 2 else float(out[0])
