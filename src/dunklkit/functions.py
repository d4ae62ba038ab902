"""Closed function families for the one-dimensional numeric checks.

Each family is p E: a polynomial p with exact coefficients times an even
envelope E, e^(-x^2/2) (PolyGauss) or (1 - x^2)^(-m) e^(-1/(1 - x^2))
(SmoothBump).  Since E is even, d/dx and the line's Dunkl operator T act by
one rule, D(p E) = q E + p E' with q = p' or q = T p, and p E' stays in the
family, so every image is exact in the coefficients.  The polynomial algebra
is RationalPoly's, and T p is polyexact.dunkl_apply on the line's RootSystem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import InvalidArgumentError
from .polyexact import RationalPoly, dunkl_apply
from .rootsys import RootSystem
from .transform import DecayClass

Number = Union[int, Fraction, float]

_X = RationalPoly.variable(1, 0)
_U = 1 - _X**2  # the bump's u = 1 - x^2
_U2 = _U * _U


def _poly(coeffs) -> RationalPoly:
    """The polynomial with these coefficients, lowest degree first."""
    return RationalPoly(1, {(i,): c for i, c in enumerate(coeffs)})


def _coeffs(p: RationalPoly) -> tuple:
    """p's coefficients, lowest degree first, up to its degree; (0,) for p = 0."""
    return tuple(p.terms.get((i,), Fraction(0)) for i in range(max(p.degree(), 0) + 1))


class _PolyFamily:
    """What both families share: p's exact coefficients in the field coeffs,
    and d/dx and T as one rule, _step(q) = q E + p E' written in the family."""

    @property
    def poly(self) -> RationalPoly:
        """p as a RationalPoly in one variable."""
        return _poly(self.coeffs)

    @cached_property
    def _floats(self) -> tuple:
        """p's coefficients as floats, highest degree first, converted once per instance."""
        return tuple(float(c) for c in reversed(self.coeffs))

    def _p(self, x: np.ndarray) -> np.ndarray:
        p = np.zeros_like(x)
        for c in self._floats:
            p = p * x + c
        return p

    def scale(self, c: Number):
        # coefficient by coefficient, so a NaN coefficient scales to NaN
        c = Fraction(c)
        return replace(self, coeffs=tuple(ci * c for ci in self.coeffs) if c else (Fraction(0),))

    def derivative(self):
        return self._step(self.poly.partial(0))

    def dunkl(self, rs: RootSystem):
        """The Dunkl operator of the line rs: T(p E) = (T p) E + p E' for an even E."""
        return self._step(dunkl_apply(rs, 0, self.poly))

    def dunkl_power(self, rs: RootSystem, m: int):
        f = self
        for _ in range(m):
            f = f.dunkl(rs)
        return f


@dataclass(frozen=True)
class PolyGauss(_PolyFamily):
    """p(x) exp(-x^2 / 2) with coefficients kept as exact Fractions."""

    coeffs: tuple

    @staticmethod
    def create(coeffs: Sequence[Number]) -> "PolyGauss":
        return PolyGauss(_coeffs(_poly(map(Fraction, coeffs))))

    @staticmethod
    def monomial(n: int) -> "PolyGauss":
        if n < 0:
            raise InvalidArgumentError("degree must be nonnegative")
        return PolyGauss((Fraction(0),) * n + (Fraction(1),))

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
        return PolyGauss(_coeffs(self.poly + other.poly))

    def _step(self, q: RationalPoly) -> "PolyGauss":
        # E' = -x E
        return PolyGauss(_coeffs(q - _X * self.poly))


def gaussian() -> PolyGauss:
    return PolyGauss.monomial(0)


@dataclass(frozen=True)
class SmoothBump(_PolyFamily):
    """p(x) (1 - x^2)^(-m) exp(-1 / (1 - x^2)) on (-1, 1), zero outside, NaN at NaN.

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
        return SmoothBump(_coeffs(_poly(map(Fraction, coeffs))), m)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.isnan(x), x, 0.0)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        u = 1.0 - xi * xi
        out[inside] = self._p(xi) * u ** (-self.m) * np.exp(-1.0 / u)
        return out

    def __add__(self, other: "SmoothBump") -> "SmoothBump":
        # at the larger m of the two: p u^(-k) = p u^(m - k) u^(-m)
        m = max(self.m, other.m)
        return SmoothBump(_coeffs(self.poly * _U ** (m - self.m) + other.poly * _U ** (m - other.m)), m)

    def _step(self, q: RationalPoly) -> "SmoothBump":
        # E_m' = (2 m u - 2) x E_(m+2), so q E_m + p E_m' = (q u^2 + p (2 m u - 2) x) E_(m+2)
        return SmoothBump(_coeffs(q * _U2 + self.poly * ((2 * self.m * _U - 2) * _X)), self.m + 2)


def standard_bump() -> SmoothBump:
    return SmoothBump((Fraction(1),))
