"""Quadrature grids and the Dunkl transform on the line and on products.

Weighted integrals absorb the weight into Gauss-Jacobi nodes split at the
origin, so non-integer exponents cost no accuracy.  Transforms over product
systems contract one axis at a time; nothing here attempts non-product
systems, which only the exact polynomial path supports.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AccuracyWarning, InvalidArgumentError, UnsupportedCaseError
from .kernel import _SERIES_RADIUS, bessel_j_normalized
from .rootsys import (RootSystem, _functions, _gauss_rule, _half_line_rule, _paired, _points, _shaped,
                      _tensor_rule, mehta_constant)


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes and weights of a quadrature rule; axes holds the line grids of a
    tensor grid."""

    nodes: np.ndarray
    weights: np.ndarray
    axes: Optional[tuple] = None


def weighted_line_grid(gamma, radius: float = 10.0, n: int = 192) -> QuadratureGrid:
    """Grid absorbing |x|^(2 gamma) on [-radius, radius], split at the origin.

    On each half-line the substitution x = radius (t+1)/2 turns the weight
    into (1+t)^(2 gamma), which Gauss-Jacobi nodes handle exactly.
    """
    g = float(gamma)
    if g < 0:
        raise InvalidArgumentError("gamma must be nonnegative")
    if n < 2 or not 0.0 < radius < math.inf:
        raise InvalidArgumentError("need n >= 2 and a finite radius > 0")
    x_pos, w_pos = _half_line_rule(n, 2.0 * g, radius)
    nodes = np.concatenate([-x_pos[::-1], x_pos])
    weights = np.concatenate([w_pos[::-1], w_pos])
    return QuadratureGrid(nodes, weights)


def plain_line_grid(radius: float = 10.0, n: int = 384) -> QuadratureGrid:
    """Plain Gauss-Legendre grid on [-radius, radius]."""
    if not 0.0 < radius < math.inf:
        raise InvalidArgumentError("need a finite radius > 0")
    t, w = _gauss_rule("jacobi", n)
    return QuadratureGrid(radius * t, radius * w)


def tensor_grid(axes) -> QuadratureGrid:
    """Tensor product of one-dimensional grids."""
    axes = tuple(axes)
    nodes, weights = _tensor_rule([(g.nodes, g.weights) for g in axes])
    return QuadratureGrid(nodes, weights, axes=axes)


def weighted_grid(rs: RootSystem, radius: float = 10.0, n: int = 192) -> QuadratureGrid:
    """Grid absorbing the full reflection weight of an axis-product system
    with unit roots; a scaled root is refused by _refuse_scaled_roots."""
    profile = rs.axis_profile()
    if profile is None:
        raise UnsupportedCaseError(
            "weighted grids exist only for products of one-dimensional factors"
        )
    _refuse_scaled_roots(rs)
    axes = [weighted_line_grid(k, radius, n) for _, k in profile]
    if rs.dimension == 1:
        return axes[0]
    return tensor_grid(axes)


def _refuse_scaled_roots(rs: RootSystem):
    """Refuse an axis product (whose profile the caller has read) with a
    root of length other than 1.

    Such a root scales the weight by |alpha|^(2k).  The weighted grids, the
    dual operator and the local multiplier forms leave that factor out, so
    they would return wrong values rather than fail.
    """
    scales = [str(scale) for scale, _ in rs.axis_profile() if scale not in (None, 1)]
    if scales:
        raise UnsupportedCaseError(
            f"roots of length {', '.join(scales)} on their axes are not supported here; "
            "the numeric layers take unit roots, so rescale each root to length 1"
        )


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
        if not 0.0 < self.radius < math.inf:
            raise InvalidArgumentError("decay radius must be finite and positive")

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


def _refuse_growth(f, op: str):
    """Refuse each function of f whose declared decay is not integrable, before any is sampled."""
    for h in _functions(f):
        decay = getattr(h, "decay", None)
        if decay is not None and not decay.integrable:
            raise InvalidArgumentError(f"{op} needs schwartz or compactly supported input, got {decay.kind}")


def _samples(f, nodes, op: str):
    """The values at nodes of f, (N,), or of a list or tuple of k functions, (k, N)."""
    _refuse_growth(f, op)
    return np.asarray(f(nodes)) if callable(f) else np.array([h(nodes) for h in f])


def _require_integrable(f: SampledFunction, op: str, dimension: int):
    if not isinstance(f, SampledFunction):
        raise InvalidArgumentError(f"{op} takes one function, a SampledFunction, got {f!r}")
    _refuse_growth(f, op)
    check_decay(f, dimension)


def _one_function(f, op: str):
    """Refuse a list or tuple of functions where op takes one, before anything runs."""
    if not callable(f):
        raise InvalidArgumentError(f"{op} takes one function, got {f!r}")


def _one_value(op: str, value):
    """The value of the scalar form op, from its _many form: refused unless
    one point gave it, which the return rule makes a Python scalar."""
    if isinstance(value, np.ndarray):
        raise InvalidArgumentError(f"{op} takes one point; {op}_many takes an array of points")
    return value


# A schwartz function larger than this on its declared radius draws a warning.
_DECAY_TOL = 1e-8


def check_decay(f: SampledFunction, dimension: int = 1) -> float:
    """Largest |f| sampled on the sphere of its declared radius in R^dimension:
    +-r on the line, else 16 points on its circle in every coordinate plane."""
    r = f.decay.radius
    theta = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    circle = r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    pts = np.array([-r, r]) if dimension == 1 else np.concatenate(
        [circle @ np.eye(dimension)[list(p)] for p in itertools.combinations(range(dimension), 2)])
    worst = float(np.max(np.abs(f(pts))))
    if f.decay.kind == "compact" and worst > 0:
        warnings.warn(
            f"function {f.name or '<anon>'} is nonzero on its declared support boundary",
            AccuracyWarning,
        )
    elif f.decay.kind == "schwartz" and worst > _DECAY_TOL:
        warnings.warn(
            f"function {f.name or '<anon>'} decays slower than declared "
            f"(|f| = {worst:.2e} at radius {r})",
            AccuracyWarning,
        )
    return worst


# ---------------------------------------------------------------------------
# plans and constants

# A plan keeps the kernel halves of this many target sets besides its own grids, the
# most recently used: a check reuses a target set (its quadrature points, its samples).
_TARGET_KERNELS = 16
_PLAN_GRIDS = ("space", "space_plain", "freq")
# Half-width of every plan's space grids.
_SPACE_RADIUS = 10.0


def _kernel_halves(gamma, x, mags):
    """The real halves E = j_(gamma-1/2)(x |y|), O = x |y| j_(gamma+1/2)(x |y|) / (2 gamma + 1)
    of the line kernel at x > 0 (rows) and |y| (columns), cos and sin at gamma 0:
    K(+-x, side y) = E +- side sgn(y) O for side -1j or 1j."""
    u = np.multiply.outer(x, mags)
    with np.errstate(invalid="ignore"):
        if gamma == 0:
            return np.cos(u), np.sin(u)
        return bessel_j_normalized(gamma - 0.5, u), u / (2.0 * gamma + 1.0) * bessel_j_normalized(gamma + 0.5, u)


@dataclass(frozen=True, eq=False)
class TransformPlan:
    """Grids shared by a family of transform calls.

    Every grid axis is mirrored about 0, so the plan keeps the kernels its
    transforms contract with as real even and odd halves over the positive
    nodes; ``axis_kernel`` builds each on first use.
    """

    rs: RootSystem
    space: QuadratureGrid
    space_plain: QuadratureGrid
    freq: QuadratureGrid
    freq_radius: float
    kernels: dict = field(default_factory=dict, compare=False, repr=False)

    def axis_nodes(self, grid: str, j: int) -> np.ndarray:
        """Nodes of axis j of the plan grid named grid."""
        g = getattr(self, grid)
        return g.nodes if g.axes is None else g.axes[j].nodes

    def axis_kernel(self, grid: str, j: int, gamma, targets):
        """(E, O, back, sign): the _kernel_halves on the positive nodes of axis j
        of a plan grid and the distinct |y| of the targets, the index of each
        |y| and sgn y: K(+-x, side y) = E[:, back] +- side sign O[:, back].
        Halves on an axis of a plan grid live as long as the plan, and targets whose
        distinct |y| are the positive nodes of another grid's axis take its pair; of
        the rest the _TARGET_KERNELS most recently used are kept.  All are read-only."""
        targets = np.ascontiguousarray(np.atleast_1d(targets), dtype=float)
        key = (grid, j, gamma, targets.tobytes())
        halves = built = self.kernels.pop(key, None)
        if built is None:
            mags, back = np.unique(np.abs(targets), return_inverse=True)
            grids = [x for x in (self.axis_nodes(g, j) for g in _PLAN_GRIDS)
                     if x.tobytes() != key[3] and np.array_equal(np.split(x, 2)[1], mags)]
            pair = (self.axis_kernel(grid, j, gamma, grids[0])[:2] if grids
                    else _kernel_halves(gamma, np.split(self.axis_nodes(grid, j), 2)[1], mags))
            halves = pair + (back, np.sign(targets))
            for part in halves:
                part.flags.writeable = False
        self.kernels[key] = halves
        if built is None:
            own = {(i, self.axis_nodes(g, i).tobytes()) for g in _PLAN_GRIDS for i in range(self.rs.dimension)}
            for stale in [k for k in self.kernels if (k[1], k[3]) not in own][:-_TARGET_KERNELS]:
                del self.kernels[stale]
        return halves


def make_plan(rs: RootSystem, grid_n: Optional[int] = None, freq_radius: float = 8.0) -> TransformPlan:
    """Weighted and plain space grids on [-10, 10] per axis, with grid_n and
    2 grid_n nodes, and a weighted frequency grid reaching 2 beyond freq_radius."""
    d = rs.dimension
    if grid_n is None:
        grid_n = 192 if d == 1 else 64
    space = weighted_grid(rs, _SPACE_RADIUS, grid_n)
    plain = plain_line_grid(_SPACE_RADIUS, 2 * grid_n)
    space_plain = plain if d == 1 else tensor_grid([plain] * d)
    freq = weighted_grid(rs, freq_radius + 2.0, grid_n)
    return TransformPlan(rs, space, space_plain, freq, freq_radius)


@functools.lru_cache(maxsize=None)
def _float_gammas(rs: RootSystem) -> tuple:
    """rs's axis multiplicities as floats, once per system, as systems are interned."""
    profile = rs.axis_profile()
    if profile is None:
        raise UnsupportedCaseError(
            "numeric transforms exist only for products of one-dimensional factors"
        )
    return tuple(float(k) for _, k in profile)


def _axis_gammas(rs: RootSystem, plan: TransformPlan = None) -> tuple:
    """The multiplicity on each coordinate axis, as floats; a plan must be built for rs itself.

    With line_gamma, this is where the numeric layers leave the exact
    multiplicities of a RootSystem.
    """
    if not isinstance(rs, RootSystem):
        raise InvalidArgumentError(
            f"expected a RootSystem, got {rs!r}; a multiplicity k on the line is rank_one(k)"
        )
    gammas = _float_gammas(rs)
    if plan is not None and plan.rs is not rs:
        raise InvalidArgumentError("the plan was built for another root system")
    return gammas


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

def _fold(v, side, E, O, back, sign):
    """sum over x of v(x) K(x, side y) along the first axis of v, a plan axis
    mirrored about 0, one row per target of the axis_kernel halves: v(x) + v(-x)
    against E and v(x) - v(-x) against O on x > 0; a complex v goes as real pairs."""
    flat = np.ascontiguousarray(v).reshape(len(v), -1)
    pos, neg = flat[len(v) // 2:], flat[len(v) // 2 - 1::-1]
    even, odd = pos + neg, pos - neg
    if flat.dtype.kind == "c":
        even, odd = (E.T @ even.view(float)).view(complex), (O.T @ odd.view(float)).view(complex)
        out = even[back] + (side * sign)[:, None] * odd[back]
    else:
        out = np.empty((len(back), flat.shape[1]), complex)
        out.real, out.imag = (E.T @ even)[back], (O.T @ odd)[back] * (side.imag * sign)[:, None]
    return out.reshape(back.shape + v.shape[1:])


def _columns(E, O, back, sign, side):
    """The axis_kernel halves target by target: (A, B) with K(+-x, side y) = A +- i B in column y."""
    return E[:, back], side.imag * sign * O[:, back]


def _contract(plan: TransformPlan, grid: str, gammas, fvals, ys, side: complex, base=None):
    """sum over a plan grid of w f(x) prod_j K(x_j, side y_j), one axis at a time.

    fvals holds f on the grid along its last axis; a leading function axis
    stays in front of the points.  Each axis is folded into even and odd
    parts on its positive nodes, so K is never a complex matrix: every axis
    in turn onto a plan tensor grid (sum factorization), else the first axis
    onto the points and the rest column by column.  gamma 0 gives the plain
    Fourier kernel exp(side x y).
    base, points broadcast against ys, multiplies the kernel at each target
    by prod_j K(x_j, i base_j) of its base point; one base point multiplies f.
    """
    d = len(gammas)
    pts, shape = _points(ys, d, float)
    factors = None
    if base is not None:  # K(+-x_j, i base_j) = a +- i b, on the base points as given
        pb = _points(base, d, float)
        _, pts, shape = _paired(pb, (pts, shape))
        kb = [_columns(*plan.axis_kernel(grid, j, gam, pb[0][:, j]), 1j) for j, gam in enumerate(gammas)]
        if len(pb[0]) == 1:  # one base point multiplies f, mirrored onto the whole axis
            full = [np.concatenate([(a - 1j * b)[::-1, 0], a[:, 0] + 1j * b[:, 0]]) for a, b in kb]
            fvals = fvals * functools.reduce(np.multiply.outer, full).reshape(-1)
        else:  # one column per pair, that of its base point
            pair = np.broadcast_to(np.arange(len(pb[0])).reshape(pb[1]), shape).reshape(-1)
            factors = [(a[:, pair], b[:, pair]) for a, b in kb]
    fw = getattr(plan, grid).weights * fvals
    lead = fw.shape[:-1]  # the function axis, which trails the grid axes of fw below
    fw = fw.reshape(-1, fw.shape[-1]).T.reshape([len(plan.axis_nodes(grid, j)) for j in range(d)] + [-1])
    tensor = d > 1 and factors is None and next(
        (g for g in _PLAN_GRIDS if np.array_equal(pts, getattr(plan, g).nodes)), None)
    halves = [] if tensor else [plan.axis_kernel(grid, j, gam, pts[:, j]) for j, gam in enumerate(gammas)]
    if tensor:  # each folded axis goes behind the others, in front of the function axis
        for j, gam in enumerate(gammas):
            fw = np.moveaxis(_fold(fw, side, *plan.axis_kernel(grid, j, gam, plan.axis_nodes(tensor, j))), 0, -2)
        out, cols = fw, []
    elif factors is None:
        out, cols = _fold(fw, side, *halves[0]), [_columns(*h, side) for h in halves[1:]]
    else:  # the columns times the factors; the first axis folds them as one column per point
        cols = [_columns(*h, side) for h in halves]
        cols = [(a * fa - b * fb, a * fb + b * fa) for (a, b), (fa, fb) in zip(cols, factors)]
        out, cols = _fold(fw, 1j, *cols[0], np.arange(len(pts)), np.ones(len(pts))), cols[1:]
    for a, b in cols:
        h = out.shape[1] // 2
        pos, neg = out[:, h:], out[:, h - 1::-1]
        out = np.einsum("ma...,am->m...", pos + neg, a) + 1j * np.einsum("ma...,am->m...", pos - neg, b)
    return _shaped(out.reshape(len(pts), -1).T.reshape(lead + (len(pts),)), shape, None)


def dunkl_transform_many(rs: RootSystem, f, ys, plan: TransformPlan):
    """Weighted integral of f against K(x, -i y) at the points ys.  f is one function,
    or a list or tuple of k (rootsys._functions), which add a leading axis of length
    k; each is sampled once on the plan's space grid, and all go through one contraction,
    which holds k times the temporaries of one function."""
    fvals = _samples(f, plan.space.nodes, "dunkl_transform_many")
    return _contract(plan, "space", _axis_gammas(rs, plan), fvals, ys, -1j)


def dunkl_transform(rs: RootSystem, f: SampledFunction, y, plan: TransformPlan) -> complex:
    """Weighted integral of f against K(x, -i y) at the one point y."""
    _require_integrable(f, "dunkl_transform", rs.dimension)
    return _one_value("dunkl_transform", dunkl_transform_many(rs, f, y, plan))


def dunkl_inverse_many(rs: RootSystem, hvals_on_freq, xs, plan: TransformPlan, base=None):
    """Inverse transform at xs of values on the frequency nodes, (N,) or (k, N) for k
    functions, times K(t, i base) for base points broadcast against xs: translation by base."""
    return inverse_constant(rs) * _contract(plan, "freq", _axis_gammas(rs, plan), hvals_on_freq, xs, 1j, base)


def dunkl_inverse(rs: RootSystem, h: SampledFunction, x, plan: TransformPlan) -> complex:
    """Inverse transform at the one point x; h must decay (schwartz or compact)."""
    _require_integrable(h, "dunkl_inverse", rs.dimension)
    return _one_value("dunkl_inverse", dunkl_inverse_many(rs, np.asarray(h.evaluator(plan.freq.nodes)), x, plan))


def dunkl_roundtrip_many(rs: RootSystem, f, xs, plan: TransformPlan):
    """Forward transform sampled on the frequency grid, then inverted at xs."""
    hvals = dunkl_transform_many(rs, f, plan.freq.nodes, plan)
    return dunkl_inverse_many(rs, hvals, xs, plan)


def classical_fourier_many(f, ys, plan: TransformPlan):
    """Plain Fourier integral with kernel exp(-i <x, y>) and no prefactor at the points
    ys, on the plan's plain space grid; f is taken as by dunkl_transform_many."""
    fvals = _samples(f, plan.space_plain.nodes, "classical_fourier_many")
    return _contract(plan, "space_plain", [0.0] * plan.rs.dimension, fvals, ys, -1j)


def classical_fourier(f: SampledFunction, y, plan: TransformPlan) -> complex:
    """Plain Fourier integral with kernel exp(-i <x, y>) and no prefactor, at the one point y."""
    _require_integrable(f, "classical_fourier", plan.rs.dimension)
    return _one_value("classical_fourier", classical_fourier_many(f, y, plan))


def fourier_bessel(profile, lam, alpha: float, radius: float = 1.0, n: int = 128):
    """Bessel transform of a radial profile at each lam (a float for a scalar).

    Integrates profile(r) j_alpha(lam r) r^(2 alpha + 1) / (2^alpha Gamma(alpha+1))
    over [0, radius], with the power of r absorbed into n Jacobi nodes.  At
    lam = 0 this is the normalized moment integral; at alpha = gamma - 1/2,
    times 2^(gamma+1/2) Gamma(gamma+1/2), the line transform of an even profile.
    lam is real, of any shape (complex lam is an InvalidArgumentError); each
    distinct |lam| is summed once, bitwise as alone, and gathered back.  Up
    to |lam| radius = 4 that is j_alpha's series with its two sums swapped:
    the node moments of (r/radius)^(2m) times (-(lam radius)^2/4)^m / (m!
    (alpha+1)_m), to a tail below 1e-18 of sum w|f| at 4.  Beyond, it is
    one real Bessel row per |lam|; NaN and infinite lam give NaN.  Against
    mpmath (bump at radius 1, n = 160; exp(-r^2/2) at 9, n = 200; alpha in
    [-1/2, 7/2]; |lam| radius <= 6) it is within 5e-15 (measured 1.0e-15) of its value at 0.
    """
    if not alpha >= -0.5:
        raise InvalidArgumentError("alpha must be >= -1/2")
    if n < 2 or not 0.0 < radius < math.inf:
        raise InvalidArgumentError("need n >= 2 and a finite radius > 0")
    if np.iscomplexobj(lam):
        raise InvalidArgumentError("lam must be real")
    r, wts = _half_line_rule(n, 2.0 * alpha + 1.0, radius)
    fvals = np.asarray(profile(r))
    # j_alpha is even and |lam r| = |lam| r, so one sum per distinct |lam| serves every lam
    mags, back = np.unique(np.abs(lam), return_inverse=True)
    near = mags * radius <= _SERIES_RADIUS
    sums = np.empty(mags.shape)
    coef = [1.0]  # (-1/4)^m / (m! (alpha+1)_m); its term at |lam| radius = 4 is at most 16^m |coef|
    while abs(coef[-1]) * 16.0 ** (len(coef) - 1) > 1e-18:
        coef.append(coef[-1] * -0.25 / (len(coef) * (alpha + len(coef))))
    moments = np.sum(wts * fvals * (r / radius) ** (2 * np.arange(len(coef)))[:, None], axis=-1)
    sums[near] = np.sum(np.multiply(coef, moments) * (mags[near, None] * radius) ** (2 * np.arange(len(coef))), axis=-1)
    if not np.all(near):
        sums[~near] = np.sum(wts * (fvals * bessel_j_normalized(alpha, np.multiply.outer(mags[~near], r))), axis=-1)
    norm = 2.0**alpha * math.gamma(alpha + 1.0)
    out = (sums / norm)[back.reshape(np.shape(lam))]
    return float(out) if np.ndim(lam) == 0 else out


def multiplier_P_many(rs: RootSystem, f, xs, plan: TransformPlan):
    """Weight-multiplier operator: conjugate multiplication by the weight with the plain
    Fourier transform, times the inversion scalar; f is taken as by dunkl_transform_many."""
    d = len(_axis_gammas(rs, plan))
    hvals = classical_fourier_many(f, plan.freq.nodes, plan)
    pref = p_multiplier_constant(rs) / (2.0 * math.pi) ** d
    return pref * _contract(plan, "freq", [0.0] * d, hvals, xs, 1j)


def multiplier_P(rs: RootSystem, f: SampledFunction, x, plan: TransformPlan) -> float:
    """multiplier_P_many at the one point x, real."""
    _require_integrable(f, "multiplier_P", rs.dimension)
    val = _one_value("multiplier_P", multiplier_P_many(rs, f, x, plan))
    if abs(val.imag) > 1e-7 * max(1.0, abs(val.real)):
        warnings.warn("multiplier_P produced a significant imaginary part", AccuracyWarning)
    return float(val.real)
