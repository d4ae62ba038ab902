"""Exact polynomial calculus for Dunkl operators.

Polynomials carry Fraction coefficients, so the transmutation identities can
be asserted with zero residual.  V and V^(-1) are built monomial by monomial
from Dunkl's Euler identity sum_i x_i T_i = n + gamma - S on degree n, so
T_j V = V d_j and V^(-1) V = 1 are consequences to check, not the equations
that built V.  V, V^(-1), the Dunkl operators and the inversion multipliers
P and Q act term by term, from cached exact images of single monomials.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    InternalInvariantError,
    InvalidArgumentError,
    UnsupportedCaseError,
)
from .rootsys import RootSystem, close_group, rational

Exponents = tuple[int, ...]


class RationalPoly:
    """A multivariate polynomial over the rationals.

    Stored as a map from exponent tuples to nonzero Fraction coefficients.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("dimension", "terms")

    def __init__(self, dimension: int, terms=None):
        if dimension < 1:
            raise InvalidArgumentError("dimension must be >= 1")
        clean = {}
        for exps, coeff in (terms or {}).items():
            c = rational(coeff)
            if c == 0:
                continue
            # numpy integers are Integral; a float such as 0.5 is refused, not truncated
            if len(exps) != dimension or not all(isinstance(v, numbers.Integral) and v >= 0 for v in exps):
                raise InvalidArgumentError(f"bad exponent tuple {exps}: {dimension} nonnegative integers needed")
            clean[tuple(int(v) for v in exps)] = c
        self.dimension = dimension
        self.terms = clean

    @classmethod
    def _exact(cls, dimension: int, terms: dict) -> "RationalPoly":
        """A result of exact arithmetic on valid terms: only its zeros are dropped, nothing is re-validated."""
        p = object.__new__(cls)
        p.dimension = dimension
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dimension: int) -> "RationalPoly":
        return RationalPoly(dimension, {})

    @staticmethod
    def constant(dimension: int, value) -> "RationalPoly":
        return RationalPoly(dimension, {(0,) * dimension: rational(value)})

    @staticmethod
    def variable(dimension: int, j: int) -> "RationalPoly":
        if not 0 <= j < dimension:
            raise InvalidArgumentError("variable index out of range")
        e = tuple(1 if i == j else 0 for i in range(dimension))
        return RationalPoly(dimension, {e: Fraction(1)})

    @staticmethod
    def monomial(dimension: int, exponents, coeff=1) -> "RationalPoly":
        return RationalPoly(dimension, {tuple(exponents): rational(coeff)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_components(self) -> dict[int, "RationalPoly"]:
        parts: dict[int, dict] = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {n: RationalPoly(self.dimension, t) for n, t in sorted(parts.items())}

    def __eq__(self, other):
        return (
            isinstance(other, RationalPoly)
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dimension, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            return "RationalPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p) or "1"
            bits.append(f"{c}*{mono}")
        return "RationalPoly(" + " + ".join(bits) + ")"

    # -- arithmetic ----------------------------------------------------------

    def _operand(self, other) -> "RationalPoly":
        """other as a polynomial of this dimension; an int or Fraction is a constant."""
        if isinstance(other, (int, Fraction)):
            return RationalPoly.constant(self.dimension, other)
        if not isinstance(other, RationalPoly):
            raise InvalidArgumentError(f"a polynomial does not combine with {type(other).__name__}")
        if self.dimension != other.dimension:
            raise InvalidArgumentError("dimension mismatch")
        return other

    def _binop(self, other, sign):
        other = self._operand(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + sign * c
        return RationalPoly._exact(self.dimension, terms)

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalPoly._exact(self.dimension, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rational(other)
            return RationalPoly._exact(self.dimension, {e: c * v for e, v in self.terms.items()})
        other = self._operand(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return RationalPoly._exact(self.dimension, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InvalidArgumentError(f"power must be a nonnegative integer, not {n!r}")
        if n < 2:
            return self if n else RationalPoly.constant(self.dimension, 1)
        half = self ** (n // 2)  # floor(log2 n) + popcount(n) - 1 products in all
        return half * half * self if n % 2 else half * half

    # -- calculus ------------------------------------------------------------

    def partial(self, j: int) -> "RationalPoly":
        if not 0 <= j < self.dimension:
            raise InvalidArgumentError("variable index out of range")
        terms = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            ne = e[:j] + (e[j] - 1,) + e[j + 1 :]
            terms[ne] = terms.get(ne, Fraction(0)) + c * e[j]
        return RationalPoly._exact(self.dimension, terms)

    def compose_linear(self, m) -> "RationalPoly":
        """p(M x) for a rational square matrix M given as rows.

        A signed permutation M, as every element of the preset groups,
        relabels and signs each exponent; any other M expands each term in
        powers of the linear forms (M x)_i.
        """
        d = self.dimension
        cols = [[j for j in range(d) if m[i][j] != 0] for i in range(d)]
        if all(len(js) == 1 and abs(m[i][js[0]]) == 1 for i, js in enumerate(cols)):
            terms = {}
            for e, c in self.terms.items():
                f = [0] * d
                for i, p in enumerate(e):
                    f[cols[i][0]] = p
                    c = -c if p % 2 and m[i][cols[i][0]] < 0 else c
                terms[tuple(f)] = c
            return RationalPoly._exact(d, terms)
        forms = [RationalPoly(d, {tuple(int(i == j) for i in range(d)): m[r][j] for j in range(d)}) for r in range(d)]
        powers, out = [[form] for form in forms], RationalPoly.zero(d)  # powers[i][p - 1] = form_i^p
        for e, c in self.terms.items():
            term = RationalPoly.constant(d, c)
            for i, p in enumerate(e):
                while len(powers[i]) < p:
                    powers[i].append(powers[i][-1] * forms[i])
                term = term * powers[i][p - 1] if p else term
            out = out + term
        return out

    def evaluate(self, point) -> Fraction:
        pt = [rational(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for xi, p in zip(pt, e):
                v *= xi**p
            total += v
        return total

    def evaluate_float(self, points) -> np.ndarray:
        """Evaluate at float points of shape (m, d); returns an m-vector."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dimension)
        out = np.zeros(pts.shape[0])
        for e, c in self.terms.items():
            mono = np.ones(pts.shape[0])
            for i, p in enumerate(e):
                if p:
                    mono *= pts[:, i] ** p
            out += float(c) * mono
        return out


def divide_by_linear_form(p: RationalPoly, alpha) -> RationalPoly:
    """Exact quotient p / <alpha, x> for p divisible by the linear form.

    Synthetic division in the first variable alpha touches; a nonzero
    remainder means the caller's divisibility assumption failed and is
    reported as an internal error.
    """
    a = [rational(v) for v in alpha]
    try:
        i = next(idx for idx, v in enumerate(a) if v != 0)
    except StopIteration:
        raise InvalidArgumentError("linear form must be nonzero") from None
    ai = a[i]
    quot: dict = {}
    rem = dict(p.terms)
    while rem:
        m = max(e[i] for e in rem)
        if m == 0:
            raise InternalInvariantError("polynomial is not divisible by the linear form")
        slab = [(e, c) for e, c in rem.items() if e[i] == m]
        for e, c in slab:
            qe = e[:i] + (m - 1,) + e[i + 1 :]
            qc = c / ai
            quot[qe] = quot.get(qe, Fraction(0)) + qc
            for j, aj in enumerate(a):
                if aj == 0:
                    continue
                be = qe[:j] + (qe[j] + 1,) + qe[j + 1 :]
                nv = rem.get(be, Fraction(0)) - qc * aj
                if nv == 0:
                    rem.pop(be, None)
                else:
                    rem[be] = nv
    return RationalPoly(p.dimension, quot)


def dunkl_apply(rs: RootSystem, j: int, p: RationalPoly) -> RationalPoly:
    """The j-th Dunkl operator, summed from the cached images of p's monomials."""
    if not 0 <= j < rs.dimension:
        raise InvalidArgumentError("direction index out of range")
    return _apply_sparse(rs, p, _dunkl_image, j)


@lru_cache(maxsize=None)
def _dunkl_image(rs: RootSystem, j: int, e: Exponents):
    """T_j x^e: partial_j plus k alpha_j (x^e - (s_alpha x)^e) / <alpha, x> per root."""
    p = RationalPoly.monomial(rs.dimension, e)
    out = p.partial(j)
    for alpha, k, s in zip(rs.positive_roots, rs.multiplicities, close_group(rs).reflections):
        if k == 0 or alpha[j] == 0:
            continue
        diff = p - p.compose_linear(s)
        if not diff.is_zero():
            out = out + (k * alpha[j]) * divide_by_linear_form(diff, alpha)
    return tuple(out.terms.items())


def _apply_sparse(rs: RootSystem, p: RationalPoly, image, key) -> RationalPoly:
    """The sum of c * image(rs, key, e) over the nonzero terms c x^e of p.

    ``image`` is a cached map from a monomial's exponents to the nonzero
    (exponents, coefficient) pairs of an operator's exact image of it.
    """
    if p.dimension != rs.dimension:
        raise InvalidArgumentError("polynomial dimension does not match the root system")
    terms: dict = {}
    for e, c in p.terms.items():
        for f, v in image(rs, key, e):
            terms[f] = terms.get(f, 0) + c * v
    return RationalPoly._exact(p.dimension, terms)


def directional_apply(rs: RootSystem, alpha, p: RationalPoly, dunkl: bool) -> RationalPoly:
    """(alpha . D) p where D is either the gradient or the Dunkl gradient."""
    out = RationalPoly.zero(p.dimension)
    for j, aj in enumerate(alpha):
        aj = rational(aj)
        if aj == 0:
            continue
        part = dunkl_apply(rs, j, p) if dunkl else p.partial(j)
        out = out + aj * part
    return out


# ---------------------------------------------------------------------------
# exact linear algebra

def solve_exact(a_rows, b_rows):
    """Solve A X = B exactly for A of full column rank; B holds stacked columns.

    a_rows: m x n rationals, b_rows: m x r.  The rows of [A | B] are scaled to
    integers and eliminated without division, each reduced by its gcd.
    Raises when the system is rank-deficient or inconsistent.  It gives
    _euler_inverse its u_n, and the tests their stacked reference for V.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = []
    for a, b in zip(a_rows, b_rows):
        row = [rational(v) for v in (*a, *b)]
        scale = math.lcm(*(v.denominator for v in row))
        aug.append([v.numerator * (scale // v.denominator) for v in row])
    for col in range(n):
        piv = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if piv is None:
            raise InternalInvariantError("rank-deficient system in exact solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col]
        for i in range(m):
            f = aug[i][col]
            if i != col and f != 0:
                row = [p[col] * a - f * b for a, b in zip(aug[i], p)]
                g = math.gcd(*row) or 1
                aug[i] = [v // g for v in row]
    if any(v != 0 for row in aug[n:] for v in row[n:]):
        raise InternalInvariantError("inconsistent system in exact solve")
    return [[Fraction(v, aug[i][i]) for v in aug[i][n:]] for i in range(n)]


# ---------------------------------------------------------------------------
# the intertwining operator, by Dunkl's Euler-operator recursion

@lru_cache(maxsize=None)
def monomial_basis(dimension: int, degree: int) -> tuple[Exponents, ...]:
    """All exponent tuples of total degree ``degree``, in sorted order."""
    combos = combinations_with_replacement(range(dimension), degree)  # each multiset of variables once
    return tuple(sorted(tuple(combo.count(i) for i in range(dimension)) for combo in combos))


@lru_cache(maxsize=None)
def _euler_inverse(rs: RootSystem, n: int):
    """u_n = (n + gamma - S)^(-1) as the exact matrix of left multiplication on
    Q[W], indexed like rs.group(): S = sum_alpha k_alpha sigma_alpha, w acting
    by q -> q o w^(-1), so sum_i x_i T_i = n + gamma - S on degree n.  S is
    central with eigenvalues in [-gamma, gamma], so this is invertible for n >= 1.
    Row sigma_alpha w of column w of S is the group's table left[alpha][w].
    """
    group = close_group(rs)
    eye = [[int(a == b) for b in range(group.order)] for a in range(group.order)]
    m = [[(n + rs.gamma) * v for v in row] for row in eye]
    for k, left in zip(rs.multiplicities, group.left):
        for col, row in enumerate(left):
            m[row][col] -= k
    return tuple(tuple(row) for row in solve_exact(m, eye))


@lru_cache(maxsize=None)
def _intertwine_column(rs: RootSystem, inverse: bool, e: Exponents):
    """Column x^e of V (or of V^(-1)), as its nonzero terms in sorted order.

    V x^e = u_n sum_i e_i x_i V(x^(e - eps_i)), from T_i V = V d_i and the
    Euler identity on degree n = |e|; V^(-1) x^e = (1/n) sum_i x_i V^(-1)(T_i x^e),
    from d_i V^(-1) = V^(-1) T_i and Euler's identity for d_i, with no solve.
    """
    n = sum(e)
    if n == 0:
        return ((e, Fraction(1)),)
    terms: dict = {}
    for i in range(rs.dimension):
        # x_i times V^(-1) of T_i x^e, or x_i times V of d_i x^e = e_i x^(e - eps_i)
        if inverse:
            lower = _dunkl_image(rs, i, e)
        else:
            lower = ((e[:i] + (e[i] - 1,) + e[i + 1 :], e[i]),) if e[i] else ()
        for f, c in lower:
            for g, v in _intertwine_column(rs, inverse, f):
                h = g[:i] + (g[i] + 1,) + g[i + 1 :]
                terms[h] = terms.get(h, 0) + c * v
    if inverse:
        return tuple(sorted((f, v / n) for f, v in terms.items() if v != 0))
    # u_n q = sum over w of c_w q(w^(-1) x), c_w in column identity of _euler_inverse
    group = close_group(rs)
    q, out = RationalPoly(rs.dimension, terms), {}
    for w, row in zip(group.elements, _euler_inverse(rs, n)):
        for f, v in q.compose_linear(tuple(zip(*w))).terms.items():
            out[f] = out.get(f, 0) + row[group.identity] * v
    return tuple(sorted((f, v) for f, v in out.items() if v != 0))


def _matrix_of_columns(rs: RootSystem, inverse: bool, degree: int):
    basis = monomial_basis(rs.dimension, degree)
    cols = [dict(_intertwine_column(rs, inverse, e)) for e in basis]
    return [[col.get(f, Fraction(0)) for col in cols] for f in basis]


@lru_cache(maxsize=None)
def intertwine_matrix(rs: RootSystem, degree: int):
    """Matrix of the intertwining operator on homogeneous degree ``degree``,
    its columns in the order of monomial_basis."""
    return _matrix_of_columns(rs, False, degree)


@lru_cache(maxsize=None)
def intertwine_matrix_inverse(rs: RootSystem, degree: int):
    """Matrix of V^(-1) on homogeneous degree ``degree``, built like intertwine_matrix."""
    return _matrix_of_columns(rs, True, degree)


def intertwine(rs: RootSystem, p: RationalPoly) -> RationalPoly:
    """Apply the intertwining operator; degree-preserving and exact."""
    return _apply_sparse(rs, p, _intertwine_column, False)


def intertwine_inverse(rs: RootSystem, p: RationalPoly) -> RationalPoly:
    """Apply the inverse of the intertwining operator on polynomials."""
    return _apply_sparse(rs, p, _intertwine_column, True)


# ---------------------------------------------------------------------------
# the scalar in front of the inversion operators

@dataclass(frozen=True)
class OperatorConstants:
    """The scalar pi^d c_k^2 / 2^(2 gamma) kept in symbolic parts.

    value = rational * pi^pi_power * prod Gamma(a)^e * prod base^q.  For
    integer multiplicities on an axis-product system everything collapses into
    ``rational`` and the operators built from it stay exact.
    """

    rational: Fraction
    pi_power: int
    gamma_factors: tuple[tuple[Fraction, int], ...]
    power_factors: tuple[tuple[Fraction, Fraction], ...]

    def as_float(self) -> float:
        value = float(self.rational) * float(np.pi) ** self.pi_power
        for arg, e in self.gamma_factors:
            value *= math.gamma(float(arg)) ** e
        for base, q in self.power_factors:
            value *= float(base) ** float(q)
        return value

    def as_fraction(self) -> Fraction:
        if self.pi_power != 0 or self.gamma_factors or self.power_factors:
            raise UnsupportedCaseError(
                "the operator scalar is rational only for integer multiplicities"
            )
        return self.rational

    @property
    def is_rational(self) -> bool:
        return self.pi_power == 0 and not self.gamma_factors and not self.power_factors


def _gamma_half_squared_inverse(k: Fraction):
    """Pieces of Gamma(k + 1/2)^(-2): (rational, pi_power, gamma_factors)."""
    if k.denominator == 1:
        n = int(k)
        f = Fraction(4**n * math.factorial(n), math.factorial(2 * n))
        return f * f, -1, ()
    return Fraction(1), 0, ((k + Fraction(1, 2), -2),)


@lru_cache(maxsize=None)
def operator_prefactor(rs: RootSystem) -> OperatorConstants:
    """The scalar appearing in both inversion multipliers, built once per system.

    Requires an axis-product system, where the normalization constant has the
    closed Gamma-product form.
    """
    profile = rs.axis_profile()
    if profile is None:
        raise UnsupportedCaseError(
            "closed-form operator scalar needs a product of one-dimensional factors"
        )
    rat = Fraction(1)
    pi_power = rs.dimension
    gammas: list = []
    powers: list = []
    for scale, k in profile:
        g_rat, g_pi, g_fac = _gamma_half_squared_inverse(k)
        rat *= g_rat
        pi_power += g_pi
        gammas.extend(g_fac)
        if scale is not None and scale != 1 and k != 0:
            e = -2 * k
            if e.denominator == 1:
                rat *= (scale * scale) ** int(e)
            else:
                powers.append((scale * scale, e))
    two_gamma = 2 * rs.gamma
    if two_gamma.denominator == 1:
        rat /= Fraction(2) ** int(two_gamma)
    else:
        powers.append((Fraction(2), -two_gamma))
    return OperatorConstants(rat, pi_power, tuple(gammas), tuple(powers))


def _apply_multiplier(rs: RootSystem, p: RationalPoly, dunkl: bool, what: str) -> RationalPoly:
    if not rs.is_integer_case:
        raise UnsupportedCaseError(f"{what} exists only for integer multiplicities")
    operator_prefactor(rs)  # refuses a system off coordinate products, for p = 0 too
    return _apply_sparse(rs, p, _multiplier_image, dunkl)


@lru_cache(maxsize=None)
def _multiplier_image(rs: RootSystem, dunkl: bool, e: Exponents):
    """Scalar times the product over positive roots of (-1)^k (alpha . D)^(2k)
    applied to x^e, D the gradient or (dunkl) the Dunkl gradient."""
    out = RationalPoly.monomial(rs.dimension, e)
    for alpha, k in zip(rs.positive_roots, rs.multiplicities):
        for _ in range(2 * int(k)):
            out = directional_apply(rs, alpha, out, dunkl=dunkl)
    return tuple((out * (operator_prefactor(rs).as_fraction() * (-1) ** int(rs.gamma))).terms.items())


def apply_P_poly(rs: RootSystem, p: RationalPoly) -> RationalPoly:
    """The local form of the first inversion multiplier on polynomials.

    Scalar times the product over positive roots of (-1)^k (alpha . grad)^(2k),
    summed from cached exact images of p's monomials, as V and T_j are.
    Integer multiplicities only; the result is exact.
    """
    return _apply_multiplier(rs, p, False, "the differential form of the inversion multiplier")


def apply_Q_poly(rs: RootSystem, p: RationalPoly) -> RationalPoly:
    """Same scalar and product shape as apply_P_poly with Dunkl gradients."""
    return _apply_multiplier(rs, p, True, "the Dunkl form of the inversion multiplier")
