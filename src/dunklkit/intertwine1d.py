"""The intertwining operator on the line and on axis products, its dual,
their inverses, and the representing-distribution pairings.

The forward operator averages against a beta-type density on (-|x|, |x|)
whose endpoint behavior Gauss-Jacobi nodes absorb exactly.  The dual
operator integrates over {|t| >= |y|}; t = |y| cosh(s) moves the inner
endpoint to s = 0, where a second Jacobi rule absorbs the power of s.  On
an axis product both take the tensor product of their rules per axis.
Inverses come in three flavors, all built from pieces that live in other
modules, so their pairwise agreement is a real cross-check.
"""

from __future__ import annotations

import itertools
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
from .polyexact import OperatorConstants, operator_prefactor
from .rootsys import (RootSystem, _functions, _gauss_rule, _half_line_rule, _points, _shaped, _stacked, _tensor_rule,
                      _values)
from .transform import (
    TransformPlan,
    _axis_gammas,
    _refuse_growth,
    _refuse_scaled_roots,
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


def _plan(rs: RootSystem, plan: TransformPlan) -> TransformPlan:
    """The plan a route of rs runs on: rs's default line plan, or plan once it is checked to be rs's."""
    if plan is None:
        return default_line_plan(rs)
    _axis_gammas(rs, plan)
    return plan


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
        mu_density(self.rs, self.x, 0.0)  # refuses what the density refuses

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
    pts, shape = _points(y, 1, float)
    yy = pts[:, 0] * (1.0 if x > 0 else -1.0)
    inside = np.abs(yy) < a
    out = np.where(np.isnan(yy) | math.isnan(a), np.nan, 0.0)
    c = mass_constant(g) * a ** (-2.0 * g)
    yi = yy[inside]
    out[inside] = c * (a - yi) ** (g - 1.0) * (a + yi) ** g
    return _shaped(out, shape, None)


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

    f is taken by the call rule (rootsys._values): each function is called
    once, on every point times every node, and averaged as its values come.
    At x = 0 the measure is the point mass at 0, and the result is f(0), read
    from that call at the last node.
    """
    gammas = _axis_gammas(rs)
    d = len(gammas)
    pts, shape = _points(x, d, float)
    # an axis with multiplicity 0 keeps its coordinate; the last node is positive on every axis
    t, w = _tensor_rule([mu_quadrature(g, n) if g else (np.ones(1), np.ones(1)) for g in gammas])
    args = pts[:, None, :] * t[None, :, :]

    def average(vals):
        vals = vals.reshape(vals.shape[:-1] + args.shape[:2])
        return np.where(pts.any(axis=1), vals @ w, vals[..., -1])
    return _shaped(_values(f, args.reshape(-1) if d == 1 else args.reshape(-1, d), "V_k_num", average), shape, f)


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
        pts, shape = _points(x, 1, float)
        xx = pts[:, 0]
        out = np.where(np.isnan(xx) | math.isnan(self.y), np.nan, 0.0)
        ok = np.isfinite(xx) & (np.abs(xx) > abs(self.y))
        a, sy = np.abs(xx[ok]), np.sign(xx[ok]) * self.y
        out[ok] = c * (a - sy) ** (g - 1.0) * (a + sy) ** g
        # the density tends to c |x|^(2 gamma - 1): 0, c or inf as gamma <, = or > 1/2
        out[np.isinf(xx) & math.isfinite(self.y)] = c * math.inf ** (2.0 * g - 1.0)
        return _shaped(out, shape, None)

    @property
    def support(self):
        return abs(self.y)


def _dual_rule(g, u, cutoff, n):
    """The f-independent rule of the dual measure less its factor
    mass_constant(g), on one axis at the coordinates u, |u| < cutoff: nodes
    and weights (u.size, 2n), or the point mass (u.size, 1) at multiplicity 0.

    At u != 0, t = sigma' |u| cosh(s) turns each half-line {sigma' t >= |u|}
    into a power of s, which the Jacobi rule absorbs, times a smooth factor:
    n nodes on the side of u, then n on the other.  At u = 0 it is the
    |t|^(2 gamma - 1) rule on [0, cutoff], mirrored about 0.
    """
    if g == 0:
        return u[:, None], np.ones((u.size, 1))
    zero = u == 0.0
    a = np.where(zero, cutoff / 2.0, np.abs(u))[:, None]  # rows at u = 0 are replaced below
    S = np.arccosh(cutoff / a)
    (t0, w0), (t1, w1) = (_half_line_rule(n, 2.0 * g - sign, 1.0) for sign in (1.0, -1.0))
    h = S * (np.concatenate([t0, t1]) / 2.0)  # s/2 > 0, as S > 0 and t > 0
    sh, ch, side = np.sinh(h), np.cosh(h), np.repeat([1.0, -1.0], n)
    nodes = side * u[:, None] * np.cosh(2.0 * h)  # +-u cosh(s)
    # 2^(2 gamma - p) S^(p + 1) (sinh(h)/h)^p cosh(h)^(4 gamma - p) with p = 2 gamma -+ 1 is
    # S^(2 gamma) (sinh(s)/s)^(2 gamma - 1) times 2 cosh(h)^2, or (2/t^2) sinh(h)^2 as S/h = 2/t
    factor = np.concatenate([2.0 * w0, 2.0 * w1 / t1 ** 2]) * np.where(side > 0, ch, sh) ** 2
    weights = (a * S) ** (2.0 * g) * factor * (sh * ch / h) ** (2.0 * g - 1.0)
    if zero.any():
        x, w = _half_line_rule(n, 2.0 * g - 1.0, cutoff)
        nodes[zero], weights[zero] = np.concatenate([x, -x]), np.concatenate([w, w])
    return nodes, weights


@lru_cache(maxsize=16)
def _kept_dual_rule(g, u: bytes, cutoff, n):
    """_dual_rule at the coordinates whose float64 bytes are u, read-only;
    the 16 most recently used rules are kept."""
    rule = _dual_rule(g, np.frombuffer(u), cutoff, n)
    for part in rule:
        part.flags.writeable = False
    return rule


def _cutoff(gammas, f, x_max):
    """Where the dual quadrature of f stops on every axis of positive
    multiplicity: the radius of an f whose decay is declared compact, else
    x_max once f is negligible there.  f is called at the points of
    {-x_max, 0, x_max} on those axes (0 on the others) with a coordinate at
    +-x_max; each axis scales its largest |f| by the weight's mass to x_max.
    """
    _refuse_growth(f, "the dual operator")
    decay = getattr(f, "decay", None)
    if decay is not None and decay.kind == "compact":
        return decay.radius
    probe = np.array([p for p in itertools.product(*[(-x_max, 0.0, x_max) if g else (0.0,) for g in gammas])
                      if x_max in map(abs, p)])
    tails = np.abs(_values(f, probe[:, 0] if len(gammas) == 1 else probe, "tV_k_num")).reshape(-1, len(probe))
    for j, g in enumerate(gammas):
        if g:
            tail = float(np.max(tails[:, np.abs(probe[:, j]) == x_max]))
            residual = tail * mass_constant(g) * x_max ** (2.0 * g + 1.0)
            if not residual <= 1e-5:  # a NaN tail is refused too
                raise AccuracyError("input decays too slowly for the truncated dual quadrature",
                                    residual=residual)
    return x_max


_NODE_BUDGET = 1 << 14  # nodes f sees at once; one point's rule has (2n)^d on d axes


def tV_k_num(rs: RootSystem, f, y, n: int = 120, x_max: float = 14.0):
    """Apply the dual intertwining operator of an axis product rs by
    quadrature, over the tensor product of one rule per axis.

    A NaN point gives NaN.  An axis of multiplicity 0 keeps its coordinate;
    on the others the integral runs over {|t| >= |y_j|} up to the reach of
    f, beyond which a point, infinite included, gives 0: the radius of a
    function whose decay is declared compact (a SampledFunction or a
    SmoothBump), else x_max, where f must be negligible, which is verified.

    The functions of f (by rootsys._values) share the f-independent rule,
    taken per cutoff on the points in batches of at most _NODE_BUDGET nodes;
    each is called once per batch and summed as its values come.  Each axis
    rule of a batch is kept across calls (_kept_dual_rule) without the mass
    constants, which multiply the sums once per call.
    """
    gammas = _axis_gammas(rs)
    _refuse_scaled_roots(rs)
    d = len(gammas)
    if not 0.0 < x_max < math.inf:
        raise InvalidArgumentError(f"x_max must be finite and positive, got {x_max}")
    pts, shape = _points(y, d, float)
    fs, points = _functions(f), pts[:, 0] if d == 1 else pts
    if not any(gammas):
        return _shaped(_values(f, points, "tV_k_num"), shape, f)
    nan = np.isnan(pts).any(axis=1)
    cutoffs = [_cutoff(gammas, h, x_max) for h in fs]
    mass = math.prod(mass_constant(g) for g in gammas if g)
    # an n below 1 reaches the Gauss rule, which refuses it by name
    step = max(1, _NODE_BUDGET // max(1, math.prod(2 * n if g else 1 for g in gammas)))
    out = {}
    for cutoff in set(cutoffs):
        group = [i for i, c in enumerate(cutoffs) if c == cutoff]
        live = ~nan & np.all(np.abs(pts[:, np.array(gammas) > 0]) < cutoff, axis=1)
        rows = pts[live]
        sums = []
        for lo in range(0, len(rows), step):
            rules = [_kept_dual_rule(g, rows[lo:lo + step, j].tobytes(), cutoff, n) for j, g in enumerate(gammas)]
            nodes, weights = _tensor_rule(rules) if d > 1 else rules[0]
            args = nodes.reshape(-1, d) if d > 1 else nodes.reshape(-1)
            sums.append(_values([fs[i] for i in group], args, "tV_k_num",
                                lambda v: np.sum(weights * v.reshape(v.shape[:-1] + weights.shape), axis=-1)))
        # with no live point, one call on the points themselves gives the leading axes
        vals = np.concatenate(sums, axis=-1) if sums else _values([fs[i] for i in group], points, "tV_k_num")[..., :0]
        full = np.where(nan, np.nan, np.zeros(vals.shape[:-1] + (len(pts),)))  # no cutoff holds a NaN point
        full[..., live] = mass * vals
        out.update(zip(group, full))
    return _shaped(_stacked([out[i] for i in range(len(fs))], "tV_k_num"), shape, f)


def dual_via_transform(rs: RootSystem, f, y, plan: TransformPlan = None):
    """Independent route to the dual operator of f, one function or a sequence: classical
    inverse Fourier of the Dunkl transform.  A cross-check, not in the inverse paths."""
    plan = _plan(rs, plan)
    ys, shape = _points(y, 1, float)
    grid = plain_line_grid(plan.freq_radius + 2.0, 2 * len(plan.space.nodes))
    hvals = dunkl_transform_many(rs, f, grid.nodes, plan)
    phase = np.exp(1j * np.outer(grid.nodes, ys[:, 0]))
    out = ((grid.weights * hvals) @ phase) / (2.0 * math.pi)
    return _shaped(np.real(out), shape, None)


def dual_inverse_via_transform(rs: RootSystem, f, x, plan: TransformPlan = None):
    """Independent route to the inverse dual operator of f, one function or a
    sequence: Dunkl inverse of the classical Fourier transform."""
    plan = _plan(rs, plan)
    xs, shape = _points(x, 1, float)
    hvals = classical_fourier_many(f, plan.freq.nodes, plan)
    return _shaped(np.real(dunkl_inverse_many(rs, hvals, xs, plan)), shape, None)


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
    _refuse_scaled_roots(rs)
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
    prefactor times (-1)^gamma times the 2 gamma-th power of rs's Dunkl operator."""
    order, c = _signed_prefactor(rs)
    return f.dunkl_power(rs, order).scale(c)


@lru_cache(maxsize=None)
def _dual_basis(rs: RootSystem, degree: int) -> tuple:
    """r_0, ..., r_degree, where tV_k(x^m e^(-x^2/2)) = c r_m e^(-x^2/2).

    tV_k T = d/dx tV_k, and T(x^(m-1) G) = (b x^(m-2) - x^m) G for the
    Gaussian G, with T x^n = b x^(n-1), b = n + 2 gamma [n odd] at n = m - 1.
    So r_0 = 1, r_1 = x and r_m G = b r_(m-2) G - (r_(m-1) G)'.
    """
    if degree < 2:
        return (PolyGauss.create([1]), PolyGauss.monomial(1))[: degree + 1]
    r = _dual_basis(rs, degree - 1)
    b = degree - 1 + (2 * rs.gamma if degree % 2 == 0 else 0)
    return r + (r[-2].scale(b) + r[-1].derivative().scale(-1),)


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
    whose coefficients are exact at every rational gamma.  tV_k is defined
    by int V_k p f |x|^(2 gamma) dx = int p tV_k f dx for every polynomial
    p, with tV_k_num's normalization; r is built from tV_k T = d/dx tV_k
    instead, as sum_j a_j r_j for q = sum_j a_j x^j (_dual_basis).
    """
    line_gamma(rs)
    _refuse_scaled_roots(rs)
    if not isinstance(f, PolyGauss):
        raise UnsupportedCaseError("the closed-form dual operator takes a PolyGauss")
    terms = (r.scale(a) for r, a in zip(_dual_basis(rs, f.degree), f.coeffs))
    return _dual_constant(rs.gamma), sum(terms, PolyGauss.create([0]))


# ---------------------------------------------------------------------------
# inverse paths

def _inverse_entry(rs: RootSystem, f, x, plan, route):
    """The entry rule of the multiplier inverse paths: integrable input
    only, refused before any sampling, the line's default plan unless one
    is given, and the identity at gamma = 0.  route(plan, fs, xs) does the
    rest, one row per function."""
    g = line_gamma(rs)
    fs = _functions(f)
    _refuse_growth(fs, "an inverse path")
    plan = _plan(rs, plan)
    pts, shape = _points(x, 1, float)
    xs = pts[:, 0]
    out = _values(fs, xs, "an inverse path") if g == 0 else route(plan, fs, xs)
    return _shaped(out, shape, f)


def inv_V_via_P(rs: RootSystem, f, x, plan: TransformPlan = None):
    """Inverse of the intertwining operator as multiplier after dual:
    first apply the dual operator, then the Fourier-multiplier form.

    The multiplier takes the duals of every function as one function, one
    tV_k_num call, so they share one dual rule and one contraction.
    """
    def route(plan, fs, xs):
        return np.real(multiplier_P_many(rs, lambda p: tV_k_num(rs, fs, p), xs, plan))
    return _inverse_entry(rs, f, x, plan, route)


def inv_tV_via_VkP(rs: RootSystem, f, x, plan: TransformPlan = None):
    """Inverse of the dual operator: apply the multiplier form first, then
    average over the intertwining measure.  V_k_num averages the multiplier
    images of every function, taken in one contraction, as one function."""
    def route(plan, fs, xs):
        return V_k_num(rs, lambda p: np.real(multiplier_P_many(rs, fs, p, plan)), xs)
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
    the dual quadrature tV_k_num, in one pass for all of them.
    """
    fs = _functions(f)
    if not all(isinstance(h, (PolyGauss, SmoothBump)) for h in fs):
        raise UnsupportedCaseError(
            "this path needs a function family closed under the Dunkl operator"
        )
    pts, shape = _points(x, 1, float)
    xs = pts[:, 0]
    out = np.empty((len(fs),) + xs.shape)
    bumps = [i for i, h in enumerate(fs) if isinstance(h, SmoothBump)]
    for i, h in enumerate(fs):
        if isinstance(h, PolyGauss):
            out[i] = _inverse_of_gauss(rs, h)(xs)
    if bumps:
        # a bump's image is a bump, whose declared support [-1, 1] fixes its cutoff
        out[bumps] = tV_k_num(rs, [local_Q(rs, fs[i]) for i in bumps], xs)
    return _shaped(out, shape, f)


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
    """Pairing with the representing distribution of the inverse dual operator: integrate
    the multiplier image of f over the averaging measure at x, local_P's in one V_k_num
    call where every function is a PolyGauss or a SmoothBump and gamma a positive integer."""
    if all(isinstance(h, (PolyGauss, SmoothBump)) for h in _functions(f)) and _positive_integer(rs):
        return V_k_num(rs, local_P(rs, f) if callable(f) else [local_P(rs, h) for h in f], x)
    return inv_tV_via_VkP(rs, f, x, plan=plan)


# ---------------------------------------------------------------------------
# tensor extension over product systems

def V_k_num_product(rs: RootSystem, f, points, n: int = 48):
    """V_k_num on a product system, with 48 nodes per axis by default."""
    return V_k_num(rs, f, points, n)


def tV_k_num_product(rs: RootSystem, f, points, n: int = 80, x_max: float = 14.0):
    """tV_k_num on a product system, with 80 nodes per half-line by default."""
    return tV_k_num(rs, f, points, n, x_max)
