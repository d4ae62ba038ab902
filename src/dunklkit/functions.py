"""Closed function families for the one-dimensional numeric checks.

PolyGauss (polynomial times Gaussian) is closed under differentiation,
reflection, and the one-dimensional Dunkl operator, so repeated applications
stay exact in the coefficients.  SmoothBump wraps the standard compactly
supported mollifier profile with an exact derivative recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence, Union

import numpy as np

from .errors import InvalidArgumentError
from .transform import DecayClass

Number = Union[int, Fraction, float]


def _trim(coeffs):
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _add(a, b) -> tuple:
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=Fraction(0)))


def _odd_quotient(coeffs) -> list:
    """Coefficients of (p(x) - p(-x)) / x: the odd part of p is divisible by
    x, so the quotient is an exact coefficient shift and no pole appears."""
    shifted = [Fraction(0)] * max(1, len(coeffs) - 1)
    for i, c in enumerate(coeffs):
        if i % 2 == 1:
            shifted[i - 1] += 2 * c
    return shifted


class _PolyFamily:
    """What both families share: a polynomial factor p with exact
    coefficients, kept in the field coeffs of each dataclass."""

    def _p(self, x: np.ndarray) -> np.ndarray:
        p = np.zeros_like(x)
        for c in reversed(self.coeffs):
            p = p * x + float(c)
        return p

    def scale(self, c: Number):
        c = Fraction(c)
        return replace(self, coeffs=_trim(ci * c for ci in self.coeffs))

    def reflect(self):
        return replace(self, coeffs=_trim(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def dunkl_power(self, gamma: Number, m: int):
        f = self
        for _ in range(m):
            f = f.dunkl(gamma)
        return f


@dataclass(frozen=True)
class PolyGauss(_PolyFamily):
    """p(x) exp(-x^2 / 2) with coefficients kept as exact Fractions."""

    coeffs: tuple

    @staticmethod
    def create(coeffs: Sequence[Number]) -> "PolyGauss":
        return PolyGauss(_trim(Fraction(c) for c in coeffs))

    @staticmethod
    def monomial(n: int) -> "PolyGauss":
        if n < 0:
            raise InvalidArgumentError("degree must be nonnegative")
        return PolyGauss(_trim([Fraction(0)] * n + [Fraction(1)]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        far = np.isinf(x)
        if np.any(far):  # the limit 0 at +-inf, where p(x) exp(-x^2/2) would be inf * 0
            return np.where(far, 0.0, self(np.where(far, 0.0, x)))[()]
        return self._p(x) * np.exp(-(x * x) / 2.0)

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        return PolyGauss(_add(self.coeffs, other.coeffs))

    def derivative(self) -> "PolyGauss":
        # (p e^{-x^2/2})' = (p' - x p) e^{-x^2/2}
        n = len(self.coeffs)
        out = [Fraction(0)] * (n + 1)
        for i, c in enumerate(self.coeffs):
            if i >= 1:
                out[i - 1] += i * c
            out[i + 1] -= c
        return PolyGauss(_trim(out))

    def dunkl(self, gamma: Number) -> "PolyGauss":
        """One-dimensional Dunkl operator: f' + gamma (f - f(-x)) / x."""
        g = Fraction(gamma)
        return PolyGauss(_add(self.derivative().coeffs, [g * c for c in _odd_quotient(self.coeffs)]))


def gaussian() -> PolyGauss:
    return PolyGauss.create([1])


@dataclass(frozen=True)
class SmoothBump(_PolyFamily):
    """p(x) (1 - x^2)^(-m) exp(-1 / (1 - x^2)) on (-1, 1), zero outside.

    Differentiation raises m by two and updates p polynomially, so all
    derivatives stay in the family and vanish identically outside [-1, 1],
    which every member declares as its decay.
    """

    coeffs: tuple
    m: int = 0
    decay = DecayClass.compact(1.0)

    @staticmethod
    def create(coeffs: Sequence[Number] = (1,), m: int = 0) -> "SmoothBump":
        if m < 0:
            raise InvalidArgumentError("m must be nonnegative")
        return SmoothBump(_trim(Fraction(c) for c in coeffs), m)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        u = 1.0 - xi * xi
        out[inside] = self._p(xi) * u ** (-self.m) * np.exp(-1.0 / u)
        return out

    def __add__(self, other: "SmoothBump") -> "SmoothBump":
        if self.m != other.m:
            # lift both to the larger m: multiply p by (1-x^2)^(dm)
            m = max(self.m, other.m)
            return self._lift(m) + other._lift(m)
        return SmoothBump(_add(self.coeffs, other.coeffs), self.m)

    def _lift(self, m: int) -> "SmoothBump":
        out = self
        for _ in range(m - self.m):
            c = [Fraction(0)] * (len(out.coeffs) + 2)
            for i, ci in enumerate(out.coeffs):
                c[i] += ci
                c[i + 2] -= ci
            out = SmoothBump(_trim(c), out.m + 1)
        return out

    def derivative(self) -> "SmoothBump":
        # d/dx [p u^{-m} e^{-1/u}] with u = 1 - x^2:
        #   p_new = p' u^2 + 2 m x p u - 2 x p,   m_new = m + 2
        p = list(self.coeffs)
        n = len(p)
        out = [Fraction(0)] * (n + 3)
        for i, c in enumerate(p):
            if i >= 1:
                # p' * (1 - x^2)^2 = p' * (1 - 2 x^2 + x^4)
                out[i - 1] += i * c
                out[i + 1] -= 2 * i * c
                out[i + 3] += i * c
            if self.m:
                # 2 m x p (1 - x^2)
                out[i + 1] += 2 * self.m * c
                out[i + 3] -= 2 * self.m * c
            out[i + 1] -= 2 * c
        return SmoothBump(_trim(out), self.m + 2)

    def dunkl(self, gamma: Number) -> "SmoothBump":
        odd = SmoothBump(_trim(_odd_quotient(self.coeffs)), self.m)._lift(self.m + 2)
        return self.derivative() + odd.scale(gamma)


def standard_bump() -> SmoothBump:
    return SmoothBump.create([1], 0)
