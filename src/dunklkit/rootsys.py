"""Root systems, reflection groups, and reflection-invariant weights.

Everything here is exact: roots and multiplicities are rational vectors,
reflections are rational matrices, and group closure is computed by a plain
breadth-first product closure.  The closure keeps what its products give:
the reflections, the table of left multiplication by each of them and the
place of the identity, which the exact layer and the kernel series read
instead of multiplying matrices again.  Floating point enters only in
``weight`` and ``mehta_constant``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AccuracyError,
    InvalidArgumentError,
    NotARootSystemError,
    UnsupportedCaseError,
)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

# A reflection closure larger than this is taken as an infinite group.
_MAX_ORDER = 1024


def rational(value) -> Fraction:
    """Parse a rational from an int, Fraction, or 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InvalidArgumentError(f"not a rational: {value!r}")


def _vec(values: Iterable) -> Vector:
    return tuple(rational(v) for v in values)


def dot(x: Sequence, y: Sequence):
    return sum(a * b for a, b in zip(x, y))


def reflect(alpha: Sequence, x: Sequence):
    """Reflection of x in the hyperplane orthogonal to alpha.

    Exact when alpha and x are rational; also accepts float sequences.
    """
    nn = dot(alpha, alpha)
    if nn == 0:
        raise InvalidArgumentError("reflection axis must be nonzero")
    c = 2 * dot(alpha, x) / nn
    return tuple(xi - c * ai for xi, ai in zip(x, alpha))


def reflection_matrix(alpha: Vector) -> Matrix:
    d = len(alpha)
    nn = dot(alpha, alpha)
    return tuple(
        tuple((1 if i == j else 0) - 2 * alpha[i] * alpha[j] / nn for j in range(d))
        for i in range(d)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    d = len(a)
    cols = tuple(zip(*b))
    return tuple(tuple(dot(a[i], cols[j]) for j in range(d)) for i in range(d))


def identity_matrix(d: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


@dataclass(frozen=True)
class ReflectionGroup:
    """A finite group of orthogonal rational matrices, in sorted order.

    reflections holds the reflection of each positive root, aligned with
    the system's positive_roots; left[a][b] is the index in elements of
    reflections[a] times elements[b]; elements[identity] is the identity.
    close_group fills all of them from one closure.
    """

    dimension: int
    elements: tuple[Matrix, ...]
    reflections: tuple[Matrix, ...]
    left: tuple[tuple[int, ...], ...]
    identity: int

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A reduced root system with a reflection-invariant multiplicity.

    positive_roots holds one representative per pair {alpha, -alpha};
    multiplicities is aligned with it.  Use ``RootSystem.create``, which runs
    the checks and interns: a system compares and hashes by identity.
    """

    dimension: int
    positive_roots: tuple[Vector, ...]
    multiplicities: tuple[Fraction, ...]
    _interned = {}  # not a field: the one instance of each validated value

    @staticmethod
    def create(dimension: int, positive_roots, multiplicities):
        """The one instance of this value: the first call runs every check and
        keeps the system, an equal later call returns it, so a cache keyed by a
        system hits on identity.  A refused system is never kept.  A direct
        ``RootSystem(...)`` is unchecked and equal only to itself."""
        if dimension < 1:
            raise InvalidArgumentError("dimension must be >= 1")
        roots = tuple(_vec(r) for r in positive_roots)
        mults = tuple(rational(k) for k in multiplicities)
        if (rs := RootSystem._interned.get((dimension, roots, mults))) is not None:
            return rs
        if len(roots) != len(mults):
            raise InvalidArgumentError("one multiplicity per positive root required")
        if not roots:
            raise NotARootSystemError("at least one positive root required")
        for r in roots:
            if len(r) != dimension:
                raise NotARootSystemError(f"root {_show(r)} has wrong dimension")
            if all(c == 0 for c in r):
                raise NotARootSystemError("roots must be nonzero")
        for k in mults:
            if k < 0:
                raise InvalidArgumentError("multiplicities must be nonnegative")
        for i, a in enumerate(roots):
            for b in roots[i + 1 :]:
                if _parallel(a, b):
                    raise NotARootSystemError(
                        f"positive roots {_show(a)} and {_show(b)} are parallel; the system must be reduced"
                    )
        rs = RootSystem(dimension, roots, mults)
        close_group(rs)
        _check_invariance(rs)
        return RootSystem._interned.setdefault((dimension, roots, mults), rs)

    def __reduce__(self):
        # a pickle or a copy comes back through create, as the interned instance
        return RootSystem.create, (self.dimension, self.positive_roots, self.multiplicities)

    @property
    def gamma(self) -> Fraction:
        return sum(self.multiplicities, Fraction(0))

    @property
    def is_integer_case(self) -> bool:
        return all(k.denominator == 1 for k in self.multiplicities)

    def group(self) -> ReflectionGroup:
        return close_group(self)

    def multiplicity_of(self, root: Vector) -> Fraction:
        """Multiplicity of a root of this dimension, given up to sign and scaling."""
        for beta, k in zip(self.positive_roots, self.multiplicities):
            if len(root) == self.dimension and any(root) and _parallel(root, beta):
                return k
        raise InvalidArgumentError(f"{_show(root)} is not a root of this system")

    def axis_profile(self):
        """Per-axis (scale, multiplicity) when every root lies on a coordinate axis.

        Returns a tuple of (scale, k) pairs, one per coordinate, with scale None
        and k = 0 on axes that carry no root; returns None when some root is not
        axis-aligned.  This is the product structure used by the closed-form
        normalization and the one-dimensional factorizations.  It is
        computed once per instance.
        """
        if "_axis_profile" not in self.__dict__:
            profile = [(None, Fraction(0))] * self.dimension
            for alpha, k in zip(self.positive_roots, self.multiplicities):
                support = [j for j, c in enumerate(alpha) if c != 0]
                if len(support) != 1:
                    profile = None
                    break
                j = support[0]
                profile[j] = (abs(alpha[j]), k)
            else:
                profile = tuple(profile)
            object.__setattr__(self, "_axis_profile", profile)
        return self.__dict__["_axis_profile"]


def _show(v) -> str:
    """A vector as a refusal message prints it: (-1, 1), not its Fractions' reprs."""
    return f"({', '.join(map(str, v))})"


def _parallel(a: Vector, b: Vector) -> bool:
    d = len(a)
    for i in range(d):
        for j in range(i + 1, d):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


def close_group(rs: RootSystem) -> ReflectionGroup:
    """Close the generating reflections under products, keeping each product
    of a reflection and an element as the group's table left.

    Raises NotARootSystemError when the closure exceeds _MAX_ORDER elements,
    which is the practical signal that the given roots do not generate a
    finite group.
    """
    return _close_group_cached(rs.dimension, rs.positive_roots)


@lru_cache(maxsize=None)
def _close_group_cached(dimension, roots) -> ReflectionGroup:
    generators = tuple(reflection_matrix(a) for a in roots)
    one = identity_matrix(dimension)
    products = {one: None}  # each element w, then the products g w of every generator g
    frontier = [one]
    while frontier:
        new = []
        for w in frontier:
            products[w] = [mat_mul(g, w) for g in generators]
            for gw in products[w]:
                if gw not in products:
                    products[gw] = None
                    new.append(gw)
                    if len(products) > _MAX_ORDER:
                        raise NotARootSystemError(
                            f"reflection closure exceeds {_MAX_ORDER} elements; "
                            "roots do not generate a finite group"
                        )
        frontier = new
    elements = tuple(sorted(products))
    index = {w: i for i, w in enumerate(elements)}
    left = tuple(tuple(index[products[w][a]] for w in elements) for a in range(len(generators)))
    return ReflectionGroup(dimension, elements, generators, left, index[one])


def _check_invariance(rs: RootSystem):
    """Every reflection of the system maps each root to a root of the same
    multiplicity; the reflections generate the group, so every element does."""
    for beta in rs.positive_roots:
        for alpha, k in zip(rs.positive_roots, rs.multiplicities):
            image = reflect(beta, alpha)
            try:
                k_image = rs.multiplicity_of(image)
            except InvalidArgumentError:
                raise NotARootSystemError(
                    f"image {_show(image)} of root {_show(alpha)} is not in the system; "
                    "the root set is not closed under its reflections"
                ) from None
            if k_image != k:
                raise NotARootSystemError(
                    "multiplicity is not constant on the orbit of "
                    f"{_show(alpha)}: {k} vs {k_image}"
                )


def _points(x, dimension: int, dtype):
    """The (m, dimension) points of x, of dtype, and the shape they have in x.

    This is the one point convention of the numeric layers.  Points lie along
    a last axis of length dimension.  On the line x may also be a scalar or
    an array with one point per entry, except that an array of two or more
    axes whose last axis has length 1 holds its points along that axis.
    Anything else is an InvalidArgumentError.
    """
    try:
        arr = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError):
        arr = None  # not an array of numbers
    if arr is not None and dimension == 1 and (arr.ndim < 2 or arr.shape[-1] != 1):
        return arr.reshape(-1, 1), arr.shape
    if arr is None or arr.ndim == 0 or arr.shape[-1] != dimension:
        got = "no array of numbers" if arr is None else f"shape {arr.shape}"
        raise InvalidArgumentError(
            f"points of dimension {dimension} lie along a last axis of length {dimension}; got {got}")
    return arr.reshape(-1, dimension), arr.shape[:-1]


def _paired(a, b):
    """Two point sets parsed by _points, broadcast against each other: the
    (m, d) points of each side, one row per pair, and the shape of the pairs.
    Point sets that do not broadcast are an InvalidArgumentError."""
    (pa, sa), (pb, sb) = a, b
    d = pa.shape[-1]
    try:
        va, vb = np.broadcast_arrays(pa.reshape(sa + (d,)), pb.reshape(sb + (d,)))
    except ValueError:
        raise InvalidArgumentError(
            f"point sets of shapes {sa} and {sb} do not broadcast against each other") from None
    return va.reshape(-1, d), vb.reshape(-1, d), va.shape[:-1]


def _functions(f):
    """The functions of f, one callable or a non-empty list or tuple of them; else an InvalidArgumentError."""
    if callable(f) or isinstance(f, (list, tuple)) and f and all(map(callable, f)):
        return [f] if callable(f) else list(f)
    raise InvalidArgumentError(f"expected a function or a non-empty list or tuple of functions, got {f!r}")


def _shaped(values, shape, f):
    """values, whose last axis holds the points, in the point shape.

    A leading function axis stays for a sequence of functions f and goes for
    one callable f; f None has none.  One point, shape (), gives a Python
    scalar.
    """
    values = np.asarray(values)[0] if callable(f) else np.asarray(values)
    out = values.reshape(values.shape[:-1] + tuple(shape))
    return out.item() if out.ndim == 0 else out


def weight(rs: RootSystem, x):
    """The reflection-invariant weight prod |<alpha, x>|^(2 k(alpha)) at points x."""
    pts, shape = _points(x, rs.dimension, float)
    out = np.ones(pts.shape[0])
    for alpha, k in zip(rs.positive_roots, rs.multiplicities):
        a = np.array([float(c) for c in alpha])
        out *= np.abs(pts @ a) ** (2 * float(k))
    return _shaped(out, shape, None)


def weight_exact(rs: RootSystem, x: Sequence) -> Fraction:
    """Exact weight at a rational point; needs all 2 k(alpha) integral."""
    out = Fraction(1)
    for alpha, k in zip(rs.positive_roots, rs.multiplicities):
        e = 2 * k
        if e.denominator != 1:
            raise UnsupportedCaseError("exact weight needs integer 2k")
        out *= abs(dot(alpha, _vec(x))) ** int(e)
    return out


@lru_cache(maxsize=None)
def _gauss_rule(kind: str, n: int, a: float = 0.0, b: float = 0.0):
    """Read-only nodes and weights of the n-point Gauss rule for the weight
    (1-t)^a (1+t)^b on (-1, 1) (kind "jacobi"; a = b = 0 is Legendre) or
    exp(-t^2) on the line (kind "hermite").

    Golub & Welsch (1969): the nodes are the eigenvalues of the Jacobi matrix
    of the orthonormal three-term recurrence, then one Newton step.  The same
    pass of the recurrence gives the Christoffel weights 1 / sum_{k<n} p_k^2,
    taken at the Newton-corrected node to first order, scaled to the exact
    mass.  A symmetric weight (a = b, hermite) takes the squared positive
    nodes from the half-size odd block of J^2, and its recurrence is odd or
    even in t, so the rule is mirrored about 0 exactly.  Against mpmath
    (Legendre, n = 96 and 192; Jacobi (0, 2), (0, 14/3), (4/3, 7/3), n = 48)
    the nodes are within 1e-15 absolute and the weights 2e-13 relative.
    """
    if not n >= 1:
        raise InvalidArgumentError(f"a Gauss rule needs at least one node, got n = {n}")
    k = np.arange(1.0, n + 1.0)
    if kind == "hermite":
        diag, off = np.zeros(n), np.sqrt(k / 2.0)
        mass = math.sqrt(math.pi)
    else:
        s = 2.0 * k + a + b
        diag = np.empty(n)
        diag[0] = (b - a) / (a + b + 2.0)
        diag[1:] = (b * b - a * a) / (s[:-1] * (s[:-1] + 2.0))
        off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
        mass = 2.0 ** (a + b + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(a + b + 2.0)
    if np.any(diag):
        t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], -1))
    else:
        b, m = np.append(off[:-1], 0.0), n // 2  # J^2 couples p_i to p_(i+-2): b_(i-1)^2 + b_i^2, b_i b_(i+1)
        pos = np.sqrt(np.linalg.eigvalsh(np.diag(b[:2 * m:2] ** 2 + b[1:2 * m:2] ** 2)
                                         + np.diag(b[1:2 * m - 2:2] * b[2:2 * m - 1:2], -1)))
        t = np.concatenate([-pos[::-1], np.zeros(n % 2), pos])
    # p_j and its derivative d_j at t; sq = sum_{j<n} p_j^2 and dsq its half-derivative
    p_prev, p, d_prev, d = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
    sq, dsq = np.ones(n), np.zeros(n)
    for j in range(n):
        shifted, lo = t - diag[j], (off[j - 1] if j else 0.0)
        p_prev, p, d_prev, d = (
            p, (shifted * p - lo * p_prev) / off[j], d, (shifted * d + p - lo * d_prev) / off[j]
        )
        if j < n - 1:
            sq += p * p
            dsq += p * d
    step = p / d
    w = 1.0 / (sq - 2.0 * step * dsq)
    nodes, weights = t - step, w * (mass / np.sum(w))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _half_line_rule(n: int, power: float, radius: float):
    """Nodes on [0, radius] and weights of the n-point rule for the integral
    of x^power h(x) over [0, radius], h smooth: the Jacobi rule of
    (1+t)^power under x = radius (t+1)/2, so the power costs no accuracy."""
    t, w = _gauss_rule("jacobi", n, 0.0, power)
    half = radius / 2.0
    return half * (t + 1.0), w * half ** (power + 1.0)


def _tensor_rule(rules):
    """Nodes (..., m, d), the last axis fastest, and weights (..., m) of the tensor product
    of the line rules (nodes_j, weights_j), each (..., n_j), one per leading index."""
    d = len(rules)
    others = [[i - d for i in range(d) if i != j] for j in range(d)]  # the trailing axes but j
    nodes = np.stack(np.broadcast_arrays(*[np.expand_dims(t, a) for (t, _), a in zip(rules, others)]), axis=-1)
    weights = reduce(np.multiply, [np.expand_dims(w, a) for (_, w), a in zip(rules, others)])
    return nodes.reshape(nodes.shape[: -d - 1] + (-1, d)), weights.reshape(weights.shape[:-d] + (-1,))


def mehta_constant(rs: RootSystem) -> float:
    """Normalization c_k = (integral of exp(-|x|^2) times the weight)^(-1).

    Closed form for products of one-dimensional factors; otherwise a tensor
    Gauss-Hermite quadrature with a refinement check.
    """
    profile = rs.axis_profile()
    if profile is not None:
        value = 1.0
        for scale, k in profile:
            value *= 1.0 / math.gamma(float(k) + 0.5)
            if scale is not None and scale != 1:
                value *= float(scale * scale) ** (-float(k))
        return value
    return mehta_by_quadrature(rs)


def mehta_by_quadrature(rs: RootSystem) -> float:
    """Normalization by refinement-checked quadrature, independent of the
    closed form, so the two can be compared."""
    profile = rs.axis_profile()
    if profile is not None:

        def integral(n):
            # each factor is |a x|^(2k) exp(-x^2) mirrored about 0; the rule absorbs x^(2k)
            value = 1.0
            for scale, k in profile:
                x, w = _half_line_rule(n, 2.0 * float(k), 9.0)
                c = 1.0 if scale is None else float(scale) ** (2.0 * float(k))
                value *= 2.0 * c * float(np.sum(w * np.exp(-(x**2))))
            return value

        coarse, fine = integral(80), integral(160)
    else:
        if rs.dimension > 3:
            raise UnsupportedCaseError(
                "generic normalization quadrature supports dimension <= 3"
            )

        def integral(n):
            pts, wt = _tensor_rule([_gauss_rule("hermite", n)] * rs.dimension)
            return float(np.sum(wt * weight(rs, pts)))

        coarse, fine = integral(48), integral(96)
    if abs(coarse - fine) > 1e-9 * abs(fine):
        raise AccuracyError(
            "normalization quadrature did not converge",
            residual=abs(coarse - fine) / abs(fine),
        )
    return 1.0 / fine


# ---------------------------------------------------------------------------
# serialization and presets

def root_system_to_dict(rs: RootSystem) -> dict:
    return {
        "dimension": rs.dimension,
        "positive_roots": [[str(c) for c in r] for r in rs.positive_roots],
        "multiplicities": [str(k) for k in rs.multiplicities],
    }


def root_system_from_dict(data: dict) -> RootSystem:
    try:
        dimension = int(data["dimension"])
        roots = data["positive_roots"]
        mults = data["multiplicities"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed root-system document: {exc}") from None
    return RootSystem.create(dimension, roots, mults)


def load_root_system(path) -> RootSystem:
    with open(path) as fh:
        return root_system_from_dict(json.load(fh))


def save_root_system(rs: RootSystem, path):
    with open(path, "w") as fh:
        json.dump(root_system_to_dict(rs), fh, indent=2)
        fh.write("\n")


def rank_one(gamma) -> RootSystem:
    """The line with sign reflection: positive root 1 with multiplicity gamma."""
    return RootSystem.create(1, [[1]], [rational(gamma)])


def axis_product(*ks) -> RootSystem:
    """Sign reflections on each coordinate axis of R^d with the given multiplicities."""
    d = len(ks)
    roots = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    return RootSystem.create(d, roots, [rational(k) for k in ks])
