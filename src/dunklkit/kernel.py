"""The Dunkl kernel: closed form on the line, moment series in general.

The one-dimensional kernel is a two-term combination of normalized Bessel
functions.  The general kernel is the generating series of intertwined powers
of a linear form, run by Dunkl's Euler recursion with a tail bound per point.
Second arguments are real or purely imaginary vectors; the one-dimensional
closed form also accepts general complex scalars of moderate size through
the Bessel series.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, InvalidArgumentError, UnsupportedCaseError
from .polyexact import _euler_inverse
from .report import VerificationReport, worst
from .rootsys import RootSystem, _paired, _points, _shaped

_SERIES_RADIUS = 4.0
# Gamma(alpha + 1) in the Miller and Hankel branches overflows double precision past alpha = 170.6
_MAX_ORDER = 170.0
_COMPLEX_RADIUS = 30.0
_HANKEL_TERMS = 20
# the moment series of kernel_series: terms summed at most, and the tail bound it certifies
_TRUNCATION = 40
_TOLERANCE = 1e-12


def _bessel_series(alpha: float, half: np.ndarray, sign: float) -> np.ndarray:
    """sum_n w^n / (n! (alpha+1)_n), w = sign half^2: j_alpha(u) is sign = -1,
    half = u/2, and j_alpha(iy) is sign = 1, half = y/2.

    Each term takes half twice, so the rounding of half^2 does not compound.
    The sum stops once every term is below 1e-18 of max(1, smallest |partial
    sum|), so each point is summed at least as far as it would be alone; a sum
    that overflowed to inf (sign = 1) is done.  Sums whose sizes differ by
    many orders may not meet that within 1000 terms; then the batch is done
    if each term is below 1e-18 of max(1, its own partial sum), and otherwise
    it is an AccuracyError.
    """
    term = np.ones_like(half)
    total = np.ones_like(half)
    if half.size == 0:
        return total
    k = int(np.argmax(np.abs(half)))
    for n in range(1, 1001):
        term *= half
        term *= half
        term /= sign * (n * n + n * alpha)
        total += term
        if abs(term.flat[k]) > 1e-18 * max(1.0, abs(total.flat[k])):
            continue  # the batch test cannot pass while its largest |w| fails alone
        largest = np.max(np.abs(term), where=np.isfinite(total), initial=0.0)
        if largest <= 1e-18 * max(1.0, np.min(np.abs(total))):
            return total
    if np.all((np.abs(term) <= 1e-18 * np.maximum(1.0, np.abs(total))) | ~np.isfinite(total)):
        return total
    raise AccuracyError("Bessel series did not converge", residual=float(np.max(np.abs(term))))


def _half_integer_j(alpha: float, x: np.ndarray) -> np.ndarray:
    """j_alpha(x) for alpha + 1/2 a nonnegative integer and x > max(0, alpha + 1) (DLMF 10.49).

    cos x and sin x / x, then upward by j_{nu+1} = 4 nu (nu+1) / x^2 (j_nu - j_{nu-1}),
    which is stable for x > nu.
    """
    prev, cur = np.cos(x), np.sin(x) / x
    inv_sq = 4.0 / (x * x)
    for nu in np.arange(0.5, alpha - 0.5):
        prev, cur = cur, nu * (nu + 1.0) * inv_sq * (cur - prev)
    return cur if alpha > 0 else prev


def _miller_j(alpha: float, x: np.ndarray) -> np.ndarray:
    """j_alpha(x) for x > 0 by Miller's backward recurrence (DLMF 3.6(iii)).

    J_{nu-1} = (2 nu / x) J_nu - J_{nu+1} runs down over nu = mu + k,
    mu = alpha - floor(alpha), from a seed at k = max(x, alpha) + 20 + 6 x^(1/3),
    and (x/2)^mu = sum_k (mu+2k) Gamma(mu+k) / k! J_{mu+2k}(x) fixes the scale.
    Each point starts at its own k, so its value does not depend on the batch.
    """
    n = math.floor(alpha)
    mu = alpha - n
    order = np.argsort(-x)
    xs = x[order]
    two_over = 2.0 / xs
    starts = np.ceil(np.maximum(xs, alpha) + 20.0 + 6.0 * np.cbrt(xs)).astype(int)
    top = int(starts[0])
    active = np.searchsorted(-starts, -np.arange(top + 2), side="right")  # points with start >= k
    coef, ratio = [math.gamma(mu + 1.0)], math.gamma(mu + 1.0)  # ratio = Gamma(mu+j) / j!
    for j in range(1, top // 2 + 1):
        coef.append((mu + 2 * j) * ratio)
        ratio *= (mu + j) / (j + 1)
    lo, hi, total = np.zeros_like(xs), np.zeros_like(xs), np.zeros_like(xs)  # J_{mu+k}, J_{mu+k+1}
    for k in range(top, -1, -1):
        m = active[k]
        lo[active[k + 1]:m] = 1e-200
        if k % 2 == 0:
            total[:m] += coef[k // 2] * lo[:m]
        if k == n:
            at_alpha = lo.copy()
        if k:
            hi[:m] = ((mu + k) * two_over[:m]) * lo[:m] - hi[:m]
            lo, hi = hi, lo
    if n < 0:
        at_alpha = (mu * two_over) * lo - hi
    out = np.empty_like(xs)
    out[order] = math.gamma(alpha + 1.0) * two_over**n * at_alpha / total
    return out


def _hankel_coefficients(alpha: float) -> list:
    """a_k(alpha) = (4 alpha^2 - 1^2) (4 alpha^2 - 3^2) ... (4 alpha^2 - (2k-1)^2) / (k! 8^k)."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (4.0 * alpha * alpha - (2 * k - 1) ** 2) / (8.0 * k))
    return a


def _hankel_j(alpha: float, x: np.ndarray) -> np.ndarray:
    """j_alpha(x) for large x > 0 from Hankel's expansion (DLMF 10.17.3):
    J_alpha = sqrt(2 / (pi x)) (P cos w - Q sin w), w = x - (alpha/2 + 1/4) pi."""
    a = _hankel_coefficients(alpha)
    inv = 1.0 / x
    inv_sq = inv * inv
    p, q = np.zeros_like(x), np.zeros_like(x)
    for k in range(_HANKEL_TERMS - 2, -1, -2):
        sign = -1.0 if k % 4 else 1.0
        p = p * inv_sq + sign * a[k]
        q = q * inv_sq + sign * a[k + 1]
    phase = (0.5 * alpha + 0.25) * math.pi
    c, s = np.cos(x), np.sin(x)
    cos_w = c * math.cos(phase) + s * math.sin(phase)
    sin_w = s * math.cos(phase) - c * math.sin(phase)
    scale = math.gamma(alpha + 1.0) * (2.0 * inv) ** alpha * np.sqrt(2.0 * inv / math.pi)
    return scale * (p * cos_w - q * inv * sin_w)


def _hankel_i(alpha: float, y: np.ndarray) -> np.ndarray:
    """j_alpha(iy) for large y > 0 from e^-y I_alpha(y) ~ (2 pi y)^(-1/2)
    sum_k (-1)^k a_k / y^k (DLMF 10.40.1); e^y as e^(y/2) twice, so the result
    is inf only where j_alpha(iy) itself overflows."""
    a = _hankel_coefficients(alpha)
    inv = 1.0 / y
    total = np.zeros_like(y)
    for k in range(_HANKEL_TERMS - 1, -1, -1):
        total = total * inv + (-a[k] if k % 2 else a[k])
    half = np.exp(y / 2.0)
    scale = math.gamma(alpha + 1.0) * (2.0 * inv) ** alpha / np.sqrt(2.0 * math.pi * y)
    return (scale * total * half) * half


def _real_j(alpha: float, x: np.ndarray) -> np.ndarray:
    """j_alpha(x) for finite x >= 0, each branch on its own points."""
    vals = np.empty_like(x)
    cut = max(4.0, alpha + 1.0) if alpha > 0 else 0.0
    elementary = (x > cut) & float(alpha + 0.5).is_integer()
    near = (x <= _SERIES_RADIUS) & ~elementary
    far = (x >= 22.0 + alpha * alpha / 8.0) & ~elementary
    # j_alpha(x) = 2^a Gamma(a+1) J_a(x) / x^a
    for mask, branch in (
        (elementary, _half_integer_j),
        (near, lambda a, v: _bessel_series(a, v / 2.0, -1.0)),
        (~(elementary | near | far), _miller_j),
        (far, _hankel_j),
    ):
        if np.any(mask):
            vals[mask] = branch(alpha, x[mask])
    return vals


def bessel_j_normalized(alpha: float, u):
    """j_alpha(u) = Gamma(alpha+1) sum (-1)^n (u/2)^(2n) / (n! Gamma(n+alpha+1)).

    Normalized so j_alpha(0) = 1.  Even in u.  Real and purely imaginary
    arguments are supported at any magnitude and are evaluated in real
    arithmetic on |Re u| and |Im u|.  Real u of a half-integer order beyond
    max(4, alpha + 1) (every u for alpha = -1/2) takes cos, sin and the upward
    recurrence; other real u take the power series up to |u| = 4, Miller's
    backward recurrence below 22 + alpha^2 / 8 and Hankel's expansion from
    there.  Imaginary u take the power series, whose terms are all positive,
    below 22 + alpha^2 / 2 and the large-argument expansion of I_alpha from
    there, which is inf past the overflow of double precision.  General complex
    arguments take the complex series, only while it is numerically safe
    (|u| <= 30).  Entries that are not finite give NaN.  Orders run from
    -1/2 to 170; any other order is an InvalidArgumentError.

    A u of real dtype is never made complex: it gives a float array, or a
    float for a scalar, bitwise equal to the real part of the complex-dtype
    evaluation.  Complex u gives a complex array, or a complex for a scalar.
    """
    if not -0.5 <= alpha <= _MAX_ORDER:
        raise InvalidArgumentError(f"order must lie in [-1/2, {_MAX_ORDER:g}]")
    arr = np.asarray(u)
    if arr.dtype.kind in "biuf":
        x = np.atleast_1d(np.abs(arr.astype(float, copy=False)))
        finite = np.isfinite(x)
        if finite.all():  # no masked copy: a kernel matrix's grid is all finite
            out = _real_j(alpha, x)
        else:
            out = np.full(x.shape, np.nan)
            out[finite] = _real_j(alpha, x[finite])
        return float(out[0]) if arr.ndim == 0 else out
    arr = np.asarray(arr, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty(arr.shape, dtype=complex)

    re, im = np.abs(arr.real), np.abs(arr.imag)
    scale = np.maximum(1.0, np.abs(arr))
    finite = np.isfinite(arr)
    out[~finite] = np.nan
    is_real = finite & (im <= 1e-14 * scale)
    is_imag = finite & ~is_real & (re <= 1e-14 * scale)
    del scale  # the branches below hold their own temporaries

    if np.any(is_imag):
        y = im[is_imag]
        vals = np.empty_like(y)
        far = y >= 22.0 + alpha * alpha / 2.0
        with np.errstate(over="ignore"):  # inf past the overflow is the documented value
            for mask, branch in ((~far, lambda a, v: _bessel_series(a, v / 2.0, 1.0)), (far, _hankel_i)):
                if np.any(mask):
                    vals[mask] = branch(alpha, y[mask])
        out[is_imag] = vals
    if np.any(is_real):
        out[is_real] = _real_j(alpha, re[is_real])

    m_gen = finite & ~is_real & ~is_imag
    if np.any(m_gen):
        if np.max(np.abs(arr[m_gen])) > _COMPLEX_RADIUS:
            raise InvalidArgumentError(
                "general complex argument outside the supported range "
                f"|u| <= {_COMPLEX_RADIUS}"
            )
        out[m_gen] = _bessel_series(alpha, arr[m_gen] / 2.0, -1.0)

    return complex(out[0]) if scalar else out


def kernel_1d(gamma, z, t):
    """The rank-one kernel via its Bessel closed form.

    Arguments may be scalars or broadcastable arrays; real or purely imaginary
    values cover the transform-side uses, and modest general complex values
    are handled by the series.  gamma = 0 degenerates to exp(z t).  Finite
    arguments whose kernel overflows double precision (real z t beyond about
    700) raise AccuracyError instead of returning inf or nan; NaN arguments
    give NaN.
    """
    g = float(gamma)
    if g < 0:
        raise InvalidArgumentError("gamma must be nonnegative")
    zz = np.asarray(z, dtype=complex)
    tt = np.asarray(t, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if g == 0.0:
            val = np.exp(zz * tt)
        else:
            u = 1j * zz * tt
            val = zz * tt / (2.0 * g + 1.0) * bessel_j_normalized(g + 0.5, u) + bessel_j_normalized(g - 0.5, u)
    return _finite_or_raise("kernel_1d", val, zz, tt)


def _finite_or_raise(name: str, val, zz, tt):
    """val, a complex for scalar arguments; AccuracyError where finite z and t gave inf or nan."""
    overflow = ~np.isfinite(val) & np.isfinite(zz) & np.isfinite(tt)
    if np.any(overflow):
        raise AccuracyError(
            f"{name} overflows double precision for finite arguments; "
            "|z t| must stay below about 700",
            residual=float(np.max(np.abs(zz * tt)[overflow])),
        )
    if zz.ndim == 0 and tt.ndim == 0:
        return complex(val)
    return val


def kernel_1d_dz(gamma, z, t):
    """Derivative of kernel_1d in its first argument, via j' identities.

    Overflow raises AccuracyError and NaN arguments give NaN, as in kernel_1d.
    """
    g = float(gamma)
    zz = np.asarray(z, dtype=complex)
    tt = np.asarray(t, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if g == 0.0:
            val = tt * np.exp(zz * tt)
        else:
            u = 1j * zz * tt
            ja = bessel_j_normalized(g + 0.5, u)
            jb = bessel_j_normalized(g + 1.5, u)
            # d/du j_a(u) = -u j_{a+1}(u) / (2(a+1))
            term1 = (1j * tt) * (-u * ja / (2.0 * g + 1.0))
            term2 = (tt / (2.0 * g + 1.0)) * ja
            term3 = (zz * tt / (2.0 * g + 1.0)) * (1j * tt) * (-u * jb / (2.0 * g + 3.0))
            val = term1 + term2 + term3
    return _finite_or_raise("kernel_1d_dz", val, zz, tt)


def kernel_value(rs: RootSystem, x, z):
    """K(x, z) for points x and real or purely imaginary vectors z, complex.

    x and z broadcast against each other as points (README, Points and
    functions).  Product systems factor into one-dimensional kernels (the
    reflection part of each factor only sees its own coordinate), one
    kernel_1d call per axis over the whole batch; anything else goes
    through one kernel_series call over the whole batch.
    """
    d = rs.dimension
    xs, zs, shape = _paired(_points(x, d, complex), _points(z, d, complex))
    profile = rs.axis_profile()
    if profile is not None:
        out = kernel_1d(profile[0][1], xs[:, 0], zs[:, 0])
        for j in range(1, d):
            out = out * kernel_1d(profile[j][1], xs[:, j], zs[:, j])
    else:
        out = kernel_series(rs, xs, zs)
    return _shaped(np.reshape(out, -1), shape, None)


def _series_radius() -> float:
    """The largest |x||z| that kernel_series certifies, about 8.18: where its last tail bound is _TOLERANCE."""
    n, r = _TRUNCATION + 1, 0.0
    for _ in range(20):
        r = (_TOLERANCE * float(math.factorial(n)) * (1.0 - r / (n + 1))) ** (1.0 / n)
    return r


def kernel_series(rs: RootSystem, x, z):
    """K(x, z) = sum_n V(<., z>^n / n!)(x) for real x and real or purely
    imaginary z (z = i v takes v's terms times i^n); complex, batched as
    points (README, Points and functions), so one point gives a complex.

    The terms run Dunkl's Euler recursion on the orbit vector
    Q_n = (q_n(w x)) over w in rs.group(): Q_n = U_n diag(<w x, v>) Q_(n-1),
    U_n the float copy of polyexact._euler_inverse(rs, n), O(|W|^2) per term
    and point.  Each point stops at the first n whose tail bound
    r^(n+1) / ((n+1)! (1 - r/(n+2))), r = |x||z|, is at most 1e-12, as it
    would alone, so each row of a batch is bitwise the one-point call.  A
    point whose bound stays above 1e-12 after 40 terms raises an accuracy
    error before any term is summed, rather than an uncertified value.
    """
    d = rs.dimension
    xs, zs, shape = _paired(_points(x, d, complex), _points(z, d, complex))
    if np.any(np.max(np.abs(xs.imag), axis=-1) > 1e-14 * np.maximum(1.0, np.max(np.abs(xs), axis=-1))):
        raise UnsupportedCaseError("series path needs a real first argument")
    scale = 1e-14 * np.maximum(1.0, np.max(np.abs(zs), axis=-1))
    real = np.max(np.abs(zs.imag), axis=-1) <= scale
    if not np.all(real | (np.max(np.abs(zs.real), axis=-1) <= scale)):
        raise UnsupportedCaseError("series path supports real or purely imaginary second arguments")
    xs, vs = xs.real, np.where(real[:, None], zs.real, zs.imag)
    r = np.linalg.norm(xs, axis=-1) * np.linalg.norm(vs, axis=-1)
    stop = np.zeros(len(r), dtype=int)
    for n in range(1, _TRUNCATION + 1):
        pending = np.flatnonzero((stop == 0) & (r < n + 2))
        tail = r[pending] ** (n + 1) / (float(math.factorial(n + 1)) * (1.0 - r[pending] / (n + 2)))
        stop[pending[tail <= _TOLERANCE]] = n
    if np.any(stop == 0):
        r = float(np.max(r[stop == 0]))
        tail = float("inf") if r >= _TRUNCATION + 2 else r ** (_TRUNCATION + 1) / math.factorial(_TRUNCATION + 1)
        raise AccuracyError(
            f"kernel series truncation tail exceeds {_TOLERANCE:g} after {_TRUNCATION} terms; "
            "shrink the arguments",
            residual=tail,
        )
    group = rs.group()
    elements = np.array(group.elements, dtype=float)
    # <w x, v> per point and group element; every sum runs in a fixed order, so rows do not mix
    wx = sum(elements[:, :, j] * xs[:, None, j : j + 1] for j in range(d))
    proj = sum(wx[:, :, i] * vs[:, None, i] for i in range(d))
    q = np.ones_like(proj)
    total = np.ones(len(xs), dtype=complex)
    factor = np.where(real, 1.0 + 0j, 1j)
    phase = factor
    for n in range(1, int(np.max(stop, initial=0)) + 1):
        u = np.array(_euler_inverse(rs, n), dtype=float)
        weighted = proj * q  # diag(<w x, v>) Q_(n-1), then U_n times it column by column
        q = sum(u[:, v] * weighted[:, v : v + 1] for v in range(len(u)))
        live = n <= stop
        total[live] += phase[live] * q[live, group.identity]
        phase = phase * factor
    return _shaped(total, shape, None)


def check_bounds(rs: RootSystem, samples) -> VerificationReport:
    """Boundedness and invariance checks on a sample set of real pairs (x, y).

    The samples, an (m, 2, d) array or m pairs, are read as one array and
    split into (m, d) points X and Y, and each kernel is evaluated in one
    batch: K(X, iY), K(X, Y) and K(0, Y) once, K(Xw^T, Yw^T) once per group
    element other than the identity.  Violations are reported as residuals, not
    exceptions: each check carries the largest observed excess over its
    bound, and a NaN kernel value makes that residual NaN.  Each bound is
    met within the series tolerance 1e-12, group invariance within 1e-11.
    An empty sample set is an InvalidArgumentError: no check passes on no evidence.
    """
    tol = _TOLERANCE
    pts, shape = _points(samples, rs.dimension, float)
    if not pts.size:
        raise InvalidArgumentError("check_bounds needs at least one sample pair (x, y)")
    if shape[1:] != (2,):
        raise InvalidArgumentError(f"samples are pairs (x, y) of points, not points of shape {shape}")
    X, Y = pts[0::2].copy(), pts[1::2].copy()
    report = VerificationReport(suite="kernel-bounds", env={"samples": shape[0], "tol": tol})

    # K(ix, y) = K(x, iy), and only the second form has a series path
    k_imag = kernel_value(rs, X, 1j * Y)
    k_real = kernel_value(rs, X, Y)
    bound = np.exp(np.linalg.norm(X, axis=-1) * np.linalg.norm(Y, axis=-1))
    at_zero = np.abs(kernel_value(rs, np.zeros_like(X), Y) - 1.0)
    group = rs.group()
    invariance = np.array([
        np.abs(kernel_value(rs, X @ w.T, Y @ w.T) - k_real)
        for i, w in enumerate(np.array(group.elements, dtype=float)) if i != group.identity
    ])

    report.add(
        "unit-bound-imaginary", "|K(ix, y)| <= 1 for real x, y", worst(np.abs(k_imag) - 1.0), tol
    )
    report.add(
        "exponential-bound-real",
        "|K(x, y)| <= exp(|x||y|) for real x, y",
        worst(np.abs(k_real) / bound - 1.0),
        tol,
    )
    if rs.axis_profile() is not None:
        sharp = np.exp(np.sum(np.abs(X * Y), axis=-1))
        report.add(
            "sharp-exponential-bound",
            "|K(x, y)| <= exp(max over the group of <wx, y>)",
            worst(np.abs(k_real) / sharp - 1.0),
            tol,
        )
    report.add("value-at-zero", "K(0, y) = 1", worst(at_zero), tol)
    report.add(
        "group-invariance",
        "K(wx, wy) = K(x, y) for group elements w",
        worst(invariance),
        10 * tol,
    )
    return report
