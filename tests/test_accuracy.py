"""Each quadrature primitive against mpmath at 30 digits, with the bound its
docstring states."""

import math
from functools import lru_cache

import numpy as np
import pytest

from dunklkit.functions import standard_bump
from dunklkit.rootsys import _gauss_rule
from dunklkit.transform import fourier_bessel

# (profile, support radius, nodes): the bump as BumpProfile integrates it, and
# the Gaussian as radial-profile-consistency does
PROFILES = {
    "bump": (standard_bump(), 1.0, 160),
    "gaussian": (lambda r: np.exp(-0.5 * np.asarray(r) ** 2), 9.0, 200),
}
# |lam| radius on both sides of the series radius 4, where the rows change method
SCALED_LAMS = (0.0, 0.3, 2.0, 3.99, 4.01, 6.0)


@lru_cache(maxsize=None)
def _fourier_bessel_reference(profile: str, alpha: float, lam: float) -> float:
    """The integral fourier_bessel approximates, by mpmath.quad at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    radius = PROFILES[profile][1]
    with mpmath.workdps(30):
        a, lam = mpmath.mpf(alpha), mpmath.mpf(lam)
        if profile == "bump":
            f = lambda r: mpmath.exp(-1 / (1 - r * r)) if r < 1 else mpmath.mpf(0)
        else:
            f = lambda r: mpmath.exp(-r * r / 2)
        # j_alpha(lam r) = 0F1(; alpha + 1; -(lam r)^2 / 4), normalized to 1 at 0
        j = lambda r: mpmath.hyp0f1(a + 1, -((lam * r) ** 2) / 4)
        total = mpmath.quad(lambda r: f(r) * j(r) * r ** (2 * a + 1), [0, radius])
        return float(total / (2**a * mpmath.gamma(a + 1)))


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 11 / 6, 3.5])
@pytest.mark.parametrize("profile", PROFILES)
def test_fourier_bessel_matches_mpmath(profile, alpha):
    # measured worst 1.0e-15 of the value at 0 (gaussian, alpha = 11/6)
    fn, radius, n = PROFILES[profile]
    lams = np.array(SCALED_LAMS) / radius
    got = fourier_bessel(fn, lams, alpha, radius=radius, n=n)
    ref = np.array([_fourier_bessel_reference(profile, alpha, lam) for lam in lams])
    assert np.max(np.abs(got - ref)) <= 5e-15 * abs(ref[0])
    # NaN and infinite frequencies give NaN, inside a batch as alone
    edge = fourier_bessel(fn, np.array([np.nan, np.inf, -np.inf, lams[1]]), alpha, radius=radius, n=n)
    assert np.isnan(edge[:3]).all() and edge[3] == got[1]
    assert all(math.isnan(fourier_bessel(fn, v, alpha, radius=radius, n=n)) for v in (np.nan, np.inf, -np.inf))


@lru_cache(maxsize=None)
def _legendre_reference(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1] from mpmath at 30 digits,
    whose rule of degree m has 3 2^(m-1) nodes."""
    mpmath = pytest.importorskip("mpmath")
    from mpmath.calculus.quadrature import GaussLegendre

    degree = {96: 6, 192: 7}[n]
    with mpmath.workdps(30):
        pairs = sorted((float(x), float(w)) for x, w in GaussLegendre(mpmath.mp).calc_nodes(degree, mpmath.mp.prec))
    return np.array(pairs).T


@lru_cache(maxsize=None)
def _jacobi_reference(n: int, a: float, b: float):
    """Roots of mpmath's Jacobi polynomial P_n^(a, b), refined at 30 digits from
    the float nodes, and the Christoffel weights
    2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n! (1 - t^2) P_n'(t)^2)."""
    mpmath = pytest.importorskip("mpmath")
    start, _ = _gauss_rule("jacobi", n, a, b)
    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        roots = [mpmath.findroot(lambda t: mpmath.jacobi(n, a, b, t), mpmath.mpf(t)) for t in start]
        scale = (2 ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
                 / (mpmath.gamma(n + a + b + 1) * mpmath.factorial(n)))
        slope = [(n + a + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, t) for t in roots]
        weights = [scale / ((1 - t * t) * s * s) for t, s in zip(roots, slope)]
    return np.array([float(t) for t in roots]), np.array([float(w) for w in weights])


@pytest.mark.parametrize("kind, n, a, b", [
    ("legendre", 96, 0.0, 0.0), ("legendre", 192, 0.0, 0.0),
    ("jacobi", 48, 0.0, 2.0), ("jacobi", 48, 0.0, 14 / 3), ("jacobi", 48, 4 / 3, 7 / 3),
])
def test_gauss_rule_matches_mpmath(kind, n, a, b):
    # measured worst: nodes 1.1e-16 absolute, weights 3.5e-14 (Legendre, n = 192)
    # and 7.9e-14 (Jacobi (4/3, 7/3)) relative
    ref_t, ref_w = _legendre_reference(n) if kind == "legendre" else _jacobi_reference(n, a, b)
    t, w = _gauss_rule("jacobi", n, a, b)
    assert np.all(np.diff(ref_t) > 0)  # n distinct roots, none found twice
    assert np.max(np.abs(t - ref_t)) <= 1e-15
    assert np.max(np.abs(w - ref_w) / ref_w) <= 2e-13
    if a == b:  # a symmetric weight gives a rule mirrored about 0 exactly
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
