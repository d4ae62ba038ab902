"""The intertwining operator on the line and on axis products, its dual,
their inverses, and the representing-distribution pairings.

The forward operator averages against a beta-type density on (-|x|, |x|)
whose endpoint behavior Gauss-Jacobi nodes absorb exactly, and on an axis
product against the tensor product of these measures.  The dual
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

from .errors import (
    AccuracyError,
    DegeneratePointError,
    InvalidArgumentError,
    UnsupportedCaseError,
)
from .functions import PolyGauss, SmoothBump
from .polyexact import OperatorConstants, operator_prefactor, solve_exact
from .rootsys import RootSystem, _gauss_rule, _half_line_rule, _tensor_rule, rank_one
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
def default_line_plan(rs: RootSystem, grid_n: int = 160) -> TransformPlan:
    """The transform plan of the line rs with grid_n nodes, one per (rs,
    grid_n) for the life of the process; any other system is refused."""
    line_gamma(rs)
    return make_plan(rs, grid_n=grid_n, freq_radius=9.0)


def _like(x, out):
    """out for an array of points x; its one value as a float for a scalar x."""
    return float(out[0]) if np.ndim(x) == 0 else out


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
    """Density of the averaging measure on (-|x|, |x|), zero outside and NaN
    at NaN points.

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
    out = np.where(np.isnan(yy) | math.isnan(a), np.nan, 0.0)
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
    t, w = _gauss_rule("jacobi", n, g - 1.0, g)
    return t, w * mass_constant(g)


def V_k_num(rs: RootSystem, f, x, n: int = 64):
    """Apply the intertwining operator of an axis product rs by quadrature
    over the tensor product of the line measures.

    Points lie along the last axis of x; on the line x may also be a scalar
    or an array of points.  One point gives a float.  f is called once, on
    every point times every node.  At x = 0 the measure is the point mass at
    0, and the result is f(0), read from that call at the last node.
    """
    gammas = _axis_gammas(rs)
    d = len(gammas)
    arr = np.asarray(x, dtype=float)
    if d > 1 and arr.shape[-1:] != (d,):
        raise InvalidArgumentError(f"points of a {d}-axis product lie along a last axis of length {d}")
    pts = arr.reshape(-1, d)
    # an axis with multiplicity 0 keeps its coordinate; the last node is positive on every axis
    t, w = _tensor_rule([mu_quadrature(g, n) if g else (np.ones(1), np.ones(1)) for g in gammas])
    args = pts[:, None, :] * t[None, :, :]
    vals = np.asarray(f(args.reshape(-1) if d == 1 else args.reshape(-1, d))).reshape(args.shape[:2])
    out = np.where(pts.any(axis=1), vals @ w, vals[:, -1]).reshape(arr.shape[: arr.ndim - (d > 1)])
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the dual measure

@dataclass(frozen=True)
class DualDensity:
    """Density of the dual measure at base point y against plain dx.

    Supported on {|x| > |y|}, NaN at NaN points and its limit at x = +-inf
    (0, c or inf as gamma <, = or > 1/2); equals the averaging
    density with the roles of the arguments exchanged, times the reflection
    weight in x: c (|x| - sgn(x) y)^(gamma - 1) (|x| + sgn(x) y)^gamma,
    c = mass_constant.
    """

    rs: RootSystem
    y: float

    def __call__(self, x):
        g = line_gamma(self.rs)
        c = mass_constant(g)
        xx = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.where(np.isnan(xx) | math.isnan(self.y), np.nan, 0.0)
        ok = np.isfinite(xx) & (np.abs(xx) > abs(self.y))
        a, sy = np.abs(xx[ok]), np.sign(xx[ok]) * self.y
        out[ok] = c * (a - sy) ** (g - 1.0) * (a + sy) ** g
        # the density tends to c |x|^(2 gamma - 1): 0, c or inf as gamma <, = or > 1/2
        out[np.isinf(xx) & math.isfinite(self.y)] = c * math.inf ** (2.0 * g - 1.0)
        return _like(x, out)

    @property
    def support(self):
        return abs(self.y)


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
    t, w = _half_line_rule(n, power, 1.0)
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
    x, w = _half_line_rule(n, 2.0 * g - 1.0, x_max)
    vals = np.asarray(f(x)) + np.asarray(f(-x))
    return mass_constant(g) * float(np.sum(w * vals))


def _cutoff(g, f, x_max):
    """Where the dual quadrature of f stops: the declared support radius of a
    compactly supported f, else x_max once f is negligible there."""
    if isinstance(f, SampledFunction):
        if not f.decay.integrable:
            raise InvalidArgumentError(
                "the dual operator needs schwartz or compactly supported input"
            )
        if f.decay.kind == "compact":
            return f.decay.radius
    tail = float(np.max(np.abs(np.asarray(f(np.array([-x_max, x_max]))))))
    weight_scale = mass_constant(g) * x_max ** (2.0 * g + 1.0)
    if not tail * weight_scale <= 1e-5:  # a NaN tail is refused too
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


def tV_k_num(rs: RootSystem, f, y, n: int = 120, x_max: float = 14.0):
    """Apply the dual intertwining operator of the line rs by quadrature.

    The integral runs over {|t| >= |y|}; points with |y| beyond the reach of
    f (infinite ones included) give exactly zero, and NaN points give NaN.
    A SampledFunction declared compact is integrated exactly up to its
    support radius; any other f must be negligible at x_max, which is
    verified.

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
    out[:, np.isnan(ys)] = np.nan  # no cutoff holds a NaN point, so it would read 0
    cutoffs = [_cutoff(g, h, x_max) for h in fs]
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
    return _like(y, np.real(out))


def dual_inverse_via_transform(rs: RootSystem, f, x, plan: TransformPlan = None):
    """Independent route to the inverse dual operator: Dunkl inverse of the
    classical Fourier transform."""
    if plan is None:
        plan = default_line_plan(rs)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    hvals = classical_fourier_many(f, plan.freq.nodes, plan)
    return _like(x, np.real(dunkl_inverse_many(rs, hvals, xs, plan)))


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


@lru_cache(maxsize=None)
def _dual_matrix(rs: RootSystem, degree: int):
    """Exact map from the coefficients of q to those of r, where
    tV_k(q e^(-x^2/2)) = c r e^(-x^2/2) and deg q = degree.

    Pairing with x^m, m = 0..degree, gives the moment system
    int x^m r e^(-x^2/2) = lambda_m int x^m q |x|^(2 gamma) e^(-x^2/2) / c,
    V_k x^m = lambda_m x^m with lambda_m = (1/2)_j / (gamma + 1/2)_j, j = ceil(m/2).
    Over sqrt(2 pi), the moment of x^n is (n - 1)!! on the left and
    2^(n/2) (gamma + 1/2)_(n/2) on the right for even n, 0 for odd n.
    """
    def rising(a, j):
        return math.prod((a + i for i in range(j)), start=Fraction(1))

    a = rs.gamma + Fraction(1, 2)
    lam = [rising(Fraction(1, 2), (m + 1) // 2) / rising(a, (m + 1) // 2) for m in range(degree + 1)]
    even = [[(m + i) % 2 == 0 for i in range(degree + 1)] for m in range(degree + 1)]
    plain = [[Fraction(math.prod(range(m + i - 1, 0, -2)) if ok else 0) for i, ok in enumerate(row)]
             for m, row in enumerate(even)]
    weighted = [[lam[m] * 2 ** ((m + i) // 2) * rising(a, (m + i) // 2) if ok else Fraction(0)
                 for i, ok in enumerate(row)] for m, row in enumerate(even)]
    return solve_exact(plain, weighted)


def _dual_constant(g: Fraction) -> OperatorConstants:
    """c = 2^gamma Gamma(gamma + 1/2) / sqrt(pi), the dual image of the Gaussian:
    (2 gamma - 1)!! for integer gamma, kept in gamma and power factors otherwise."""
    if g.denominator == 1:
        return OperatorConstants(Fraction(math.prod(range(2 * int(g) - 1, 0, -2))), 0, (), ())
    half = Fraction(1, 2)
    return OperatorConstants(Fraction(1), 0, ((g + half, 1), (half, -1)), ((Fraction(2), g),))


def tV_k_exact(rs: RootSystem, f: PolyGauss):
    """The dual intertwining operator of the line rs in closed form on
    f = q e^(-x^2/2): tV_k f = c r e^(-x^2/2) with deg r = deg q.

    Returns (c, r): c = 2^gamma Gamma(gamma + 1/2) / sqrt(pi) as
    OperatorConstants, rational for integer gamma, and r as a PolyGauss
    whose coefficients are exact at every rational gamma.  It is defined by
    int V_k p f |x|^(2 gamma) dx = int p tV_k f dx for every polynomial p,
    with tV_k_num's normalization.
    """
    line_gamma(rs)
    if not isinstance(f, PolyGauss):
        raise UnsupportedCaseError("the closed-form dual operator takes a PolyGauss")
    mat = _dual_matrix(rs, f.degree)
    return _dual_constant(rs.gamma), PolyGauss.create(
        [sum((a * c for a, c in zip(row, f.coeffs)), Fraction(0)) for row in mat]
    )


# ---------------------------------------------------------------------------
# inverse paths

def _inverse_entry(rs: RootSystem, f, x, plan, route):
    """The entry rule of the multiplier inverse paths: integrable input
    only, the line's default plan unless one is given, the identity at
    gamma = 0, and a float for one point.  route(plan, xs) does the rest."""
    g = line_gamma(rs)
    if isinstance(f, SampledFunction) and not f.decay.integrable:
        raise InvalidArgumentError(
            "inverse paths need schwartz or compactly supported input"
        )
    if plan is None:
        plan = default_line_plan(rs)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return _like(x, np.asarray(f(xs), dtype=float) if g == 0 else route(plan, xs))


def inv_V_via_P(rs: RootSystem, f, x, plan: TransformPlan = None):
    """Inverse of the intertwining operator as multiplier after dual:
    first apply the dual operator, then the Fourier-multiplier form."""
    def route(plan, xs):
        return np.real(multiplier_P_many(rs, lambda pts: tV_k_num(rs, f, pts), xs, plan))
    return _inverse_entry(rs, f, x, plan, route)


def inv_tV_via_VkP(rs: RootSystem, f, x, plan: TransformPlan = None):
    """Inverse of the dual operator: apply the multiplier form first, then
    average over the intertwining measure."""
    def route(plan, xs):
        return V_k_num(rs, lambda pts: np.real(multiplier_P_many(rs, f, pts, plan)), xs)
    return _inverse_entry(rs, f, x, plan, route)


@lru_cache(maxsize=256)
def _inverse_of_gauss(rs: RootSystem, f: PolyGauss) -> PolyGauss:
    """V^(-1) f = tV_k(Q f) on a PolyGauss f, exactly; built once per (rs, f)."""
    c, r = tV_k_exact(rs, local_Q(rs, f))
    return r.scale(c.as_fraction())


def inv_V_via_Q(rs: RootSystem, f, x):
    """Inverse of the intertwining operator for integer multiplicities:
    dual operator applied to the difference-differential multiplier image.

    f must belong to a family closed under the Dunkl operator (PolyGauss or
    SmoothBump), so the multiplier image is exact.  On a PolyGauss the dual
    is exact too (tV_k_exact), so V^(-1) f is a PolyGauss with exact
    coefficients, evaluated once on every point.  SmoothBump images take
    the dual quadrature tV_k_num, in one pass for all of them.  A sequence
    of functions gives a leading function axis.
    """
    fs = [f] if callable(f) else list(f)
    if not all(isinstance(h, (PolyGauss, SmoothBump)) for h in fs):
        raise UnsupportedCaseError(
            "this path needs a function family closed under the Dunkl operator"
        )
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((len(fs),) + xs.shape)
    bumps = [i for i, h in enumerate(fs) if isinstance(h, SmoothBump)]
    for i, h in enumerate(fs):
        if isinstance(h, PolyGauss):
            out[i] = _inverse_of_gauss(rs, h)(xs)
    if bumps:
        # a bump's image keeps the support [-1, 1], which fixes its cutoff
        out[bumps] = tV_k_num(rs, [local_Q(rs, fs[i]).as_sampled() for i in bumps], xs)
    return _per_function(f, x, out)


# ---------------------------------------------------------------------------
# representing-distribution pairings

def eta_pairing(rs: RootSystem, x, f):
    """Pairing with the representing distribution of the inverse operator:
    the dual measure at x applied to the multiplier image of f.

    Must agree with the multiplier-after-dual inverse path; the suites
    verify that agreement pointwise.
    """
    return inv_V_via_Q(rs, f, x)


def z_pairing(rs: RootSystem, x, f, plan: TransformPlan = None):
    """Pairing with the representing distribution of the inverse dual
    operator: integrate the multiplier image of f over the averaging
    measure at x."""
    if isinstance(f, (PolyGauss, SmoothBump)) and _positive_integer(rs):
        return V_k_num(rs, local_P(rs, f), x)
    return inv_tV_via_VkP(rs, f, x, plan=plan)


# ---------------------------------------------------------------------------
# tensor extension over product systems

def V_k_num_product(rs: RootSystem, f, points, n: int = 48):
    """V_k_num on a product system, with 48 nodes per axis by default."""
    return V_k_num(rs, f, points, n)


def tV_k_num_product(rs: RootSystem, f, points, n: int = 80, x_max: float = 14.0):
    """Dual operator for a two-factor product system, one axis at a time."""
    profile = rs.axis_profile()
    if profile is None or rs.dimension != 2:
        raise UnsupportedCaseError("tensor dual averaging covers two-factor products")
    line1, line2 = (rank_one(k) for _, k in profile)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0])
    for i, (y1, y2) in enumerate(pts):
        # one inner pass per x1 batch: its functions share one rule
        inner = lambda x1s: tV_k_num(
            line2, [lambda x2s, x1=x1: f(np.stack([np.full_like(x2s, x1), x2s], axis=-1))
                    for x1 in np.atleast_1d(x1s)], y2, n=n, x_max=x_max)
        out[i] = tV_k_num(line1, inner, y1, n=n, x_max=x_max)
    return out if np.asarray(points).ndim == 2 else float(out[0])
