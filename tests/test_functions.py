"""The closed families against hand-written coefficient recursions.

The reference functions below act on coefficient lists directly, each by its
own formula: the derivative of p e^(-x^2/2) and of the bump, the Dunkl
operator through the odd quotient (p(x) - p(-x)) / x, and the bump sum
through lifting p u^(-m) to a larger m.  The families reach the same
coefficients through RationalPoly and polyexact.dunkl_apply.
"""

import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest

from dunklkit.convolution import BumpProfile
from dunklkit.functions import PolyGauss, SmoothBump, gaussian, standard_bump
from dunklkit.rootsys import rank_one


def _trim(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _add(a, b):
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=Fraction(0)))


def _odd_quotient(coeffs):
    # (p(x) - p(-x)) / x: twice the odd coefficients, shifted down one degree
    shifted = [Fraction(0)] * max(1, len(coeffs) - 1)
    for i, c in enumerate(coeffs):
        if i % 2 == 1:
            shifted[i - 1] += 2 * c
    return shifted


def _gauss_derivative(coeffs):
    # (p e^(-x^2/2))' = (p' - x p) e^(-x^2/2)
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        if i >= 1:
            out[i - 1] += i * c
        out[i + 1] -= c
    return _trim(out)


def _gauss_dunkl(coeffs, gamma):
    return _add(_gauss_derivative(coeffs), [gamma * c for c in _odd_quotient(coeffs)])


def _lift(coeffs, m, to):
    # p u^(-m) = p (1 - x^2)^(to - m) u^(-to)
    for _ in range(to - m):
        c = [Fraction(0)] * (len(coeffs) + 2)
        for i, ci in enumerate(coeffs):
            c[i] += ci
            c[i + 2] -= ci
        coeffs = _trim(c)
    return coeffs


def _bump_derivative(coeffs, m):
    # p_new = p' u^2 + 2 m x p u - 2 x p with u = 1 - x^2, m_new = m + 2
    out = [Fraction(0)] * (len(coeffs) + 3)
    for i, c in enumerate(coeffs):
        if i >= 1:
            out[i - 1] += i * c
            out[i + 1] -= 2 * i * c
            out[i + 3] += i * c
        out[i + 1] += 2 * m * c
        out[i + 3] -= 2 * m * c
        out[i + 1] -= 2 * c
    return _trim(out)


def _bump_dunkl(coeffs, m, gamma):
    odd = _lift(_trim(_odd_quotient(coeffs)), m, m + 2)
    return _add(_bump_derivative(coeffs, m), [gamma * c for c in odd])


GAMMAS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)]
POLYS = [
    [1],
    [0, 1],
    [2, -1, 3],
    [1, 0, 0, -2],
    [Fraction(1, 3), 1, 0, 2, -1, 5],
    [0, 0, 0, 0, 0, 0, 1],
    [1, -2, Fraction(1, 5), 3, 0, -1, Fraction(7, 2)],
]
EXPECTED = [tuple(Fraction(c) for c in _trim(p)) for p in POLYS]


@pytest.mark.parametrize("p", range(len(POLYS)))
@pytest.mark.parametrize("gamma", GAMMAS, ids=str)
def test_gauss_steps_match_the_coefficient_recursions(p, gamma):
    f = PolyGauss.create(POLYS[p])
    assert f.coeffs == EXPECTED[p]
    assert f.derivative().coeffs == _gauss_derivative(f.coeffs)
    assert f.dunkl(rank_one(gamma)).coeffs == _gauss_dunkl(f.coeffs, gamma)
    for q in POLYS:
        assert (f + PolyGauss.create(q)).coeffs == _add(f.coeffs, PolyGauss.create(q).coeffs)


@pytest.mark.parametrize("m", [0, 2, 4])
@pytest.mark.parametrize("p", range(len(POLYS)))
@pytest.mark.parametrize("gamma", GAMMAS, ids=str)
def test_bump_steps_match_the_coefficient_recursions(m, p, gamma):
    f = SmoothBump.create(POLYS[p], m)
    assert (f.derivative().coeffs, f.derivative().m) == (_bump_derivative(f.coeffs, m), m + 2)
    assert (f.dunkl(rank_one(gamma)).coeffs, f.dunkl(rank_one(gamma)).m) == (_bump_dunkl(f.coeffs, m, gamma), m + 2)
    for k in (0, 2, 4):
        g = SmoothBump.create(POLYS[-1 - p], k)
        top = max(m, k)
        assert ((f + g).coeffs, (f + g).m) == (_add(_lift(f.coeffs, m, top), _lift(g.coeffs, k, top)), top)


def test_a_sum_that_cancels_is_the_zero_member():
    f = PolyGauss.create([1, 2, 3])
    assert (f + f.scale(-1)).coeffs == (0,)
    assert f.scale(0) == PolyGauss.create([0])
    bump = SmoothBump.create([0, 1], 2)
    assert (bump + bump.scale(-1)) == SmoothBump.create([0], 2)


def test_dunkl_power_names_its_multiplicity_by_the_line():
    f = PolyGauss.monomial(3)
    power = f.dunkl_power(rank_one(2), 4)
    ref = f.coeffs
    for _ in range(4):
        ref = _gauss_dunkl(ref, Fraction(2))
    assert power.coeffs == ref


def test_a_family_member_is_nan_at_nan_and_zero_at_infinity():
    xs = np.array([math.nan, -math.inf, math.inf, 0.3])
    for f in (gaussian(), PolyGauss.monomial(3), standard_bump(), standard_bump().dunkl(rank_one(1)),
              BumpProfile.create(rank_one(1), 0.5)):
        with np.errstate(all="raise"):
            out = f(xs)
        assert math.isnan(out[0])
        np.testing.assert_array_equal(out[1:3], 0.0)
        assert np.isfinite(out[3]) and out[3] != 0.0
        assert math.isnan(f(math.nan))
