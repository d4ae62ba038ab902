"""Each quadrature primitive against mpmath at 30 digits, with the bound its
docstring states."""

import math
from functools import lru_cache

import numpy as np
import pytest

from dunklkit.functions import standard_bump
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
