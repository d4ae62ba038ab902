import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit.cli import parse_preset
from dunklkit.errors import InvalidArgumentError, NotARootSystemError
from dunklkit.intertwine1d import default_line_plan
from dunklkit.rootsys import (
    RootSystem,
    _gauss_rule,
    axis_product,
    mehta_by_quadrature,
    mehta_constant,
    rank_one,
    reflect,
    reflection_matrix,
    root_system_from_dict,
    root_system_to_dict,
    weight,
    weight_exact,
)


def test_rank_one_basic(rs_one):
    assert rs_one.dimension == 1
    assert rs_one.gamma == 1
    assert rs_one.is_integer_case
    assert rs_one.group().order == 2


def test_axis_product_profile(rs_product):
    profile = rs_product.axis_profile()
    assert profile is not None
    assert [k for _, k in profile] == [Fraction(1), Fraction(2)]
    assert rs_product.gamma == 3
    assert rs_product.group().order == 4


def test_fractional_multiplicity(rs_seventhirds):
    assert not rs_seventhirds.is_integer_case
    assert rs_seventhirds.gamma == Fraction(7, 3)


def test_negative_multiplicity_rejected():
    with pytest.raises(InvalidArgumentError):
        rank_one(-1)


def test_parallel_roots_rejected():
    with pytest.raises(NotARootSystemError):
        RootSystem.create(1, [[1], [2]], [1, 1])


def test_non_invariant_multiplicity_rejected():
    # the diagonal system needs equal multiplicities on roots in one orbit
    with pytest.raises(NotARootSystemError):
        RootSystem.create(2, [[1, -1], [1, 1], [1, 0], [0, 1]], [1, 1, 1, 2])


def test_a_root_set_not_closed_under_its_reflections_is_refused():
    # the reflection in (1, 0) maps (1, 1) to (-1, 1), which is no root
    with pytest.raises(NotARootSystemError, match=r"image \(-1, 1\) of root \(1, 1\) is not in the system"):
        RootSystem.create(2, [[1, 0], [1, 1]], [1, 1])


def test_roots_generating_an_infinite_group_are_refused():
    # (1, 0) and (3, 4) meet at an angle that is no rational multiple of pi
    with pytest.raises(NotARootSystemError, match="exceeds 1024 elements"):
        RootSystem.create(2, [[1, 0], [3, 4]], [1, 1])


@pytest.mark.parametrize("make, vector", [
    (lambda: rank_one(1), (3, 4)),
    (lambda: rank_one(1), ()),
    (lambda: rank_one(1), (0,)),
    (lambda: axis_product(1, 2), (1,)),
    (lambda: axis_product(1, 2), (0, 0)),
    (lambda: axis_product(1, 2), (1, 0, 0)),
], ids=["line-(3,4)", "line-()", "line-(0)", "z2xz2-(1)", "z2xz2-(0,0)", "z2xz2-(1,0,0)"])
def test_a_vector_of_another_length_or_zero_has_no_multiplicity(make, vector):
    with pytest.raises(InvalidArgumentError, match="is not a root of this system"):
        make().multiplicity_of(vector)


def test_multiplicity_of_reads_a_root_up_to_sign_and_scaling():
    assert rank_one(Fraction(7, 3)).multiplicity_of((-2,)) == Fraction(7, 3)
    assert axis_product(1, 2).multiplicity_of((0, Fraction(-1, 2))) == 2


TABLE_SYSTEMS = {
    "z2": lambda: rank_one(1),
    "z2xz2": lambda: axis_product(1, 2),
    "z2^3": lambda: axis_product(1, 2, Fraction(1, 2)),
    "B2": lambda: RootSystem.create(2, [[1, 0], [0, 1], [1, 1], [1, -1]], [1, 1, 2, 2]),
    "A2-in-R3": lambda: RootSystem.create(3, [[1, -1, 0], [0, 1, -1], [1, 0, -1]], [1, 1, 1]),
    "rotated-z2xz2": lambda: RootSystem.create(2, [[1, 2], [2, -1]], [1, Fraction(1, 2)]),
}


@pytest.mark.parametrize("system", TABLE_SYSTEMS)
def test_the_group_table_is_left_multiplication_by_each_reflection(system):
    rs = TABLE_SYSTEMS[system]()
    group = rs.group()
    elements = [np.array(w, dtype=object) for w in group.elements]
    assert (elements[group.identity] == np.eye(rs.dimension, dtype=int)).all()
    assert len(group.reflections) == len(group.left) == len(rs.positive_roots)
    for alpha, s, row in zip(rs.positive_roots, group.reflections, group.left):
        assert s == reflection_matrix(alpha)
        for b, w in enumerate(elements):
            assert (np.array(s, dtype=object).dot(w) == elements[row[b]]).all()


def test_weight_matches_exact(rs_product):
    x = [Fraction(1, 2), Fraction(-3, 4)]
    exact = weight_exact(rs_product, x)
    approx = weight(rs_product, np.array([[0.5, -0.75]]))[0]
    assert math.isclose(float(exact), float(approx), rel_tol=1e-14)


def test_weight_reflection_invariant(rs_product):
    pts = np.array([[0.7, 1.3], [-0.4, 0.9]])
    for w in rs_product.group():
        m = np.array([[float(c) for c in row] for row in w])
        assert np.allclose(weight(rs_product, pts @ m.T), weight(rs_product, pts))


def test_mehta_closed_form_values():
    # gamma = 1: integral of x^2 exp(-x^2) = sqrt(pi)/2
    assert math.isclose(mehta_constant(rank_one(1)), 2.0 / math.sqrt(math.pi), rel_tol=1e-14)
    # gamma = 0 recovers the plain Gaussian
    assert math.isclose(mehta_constant(rank_one(0)), 1.0 / math.sqrt(math.pi), rel_tol=1e-14)


@pytest.mark.parametrize("gamma", [0, Fraction(1, 2), 1, 2, Fraction(7, 3)])
def test_mehta_quadrature_matches_closed_form(gamma):
    rs = rank_one(gamma)
    closed = mehta_constant(rs)
    quad = mehta_by_quadrature(rs)
    assert math.isclose(closed, quad, rel_tol=1e-9)


def test_mehta_quadrature_product(rs_product):
    assert math.isclose(
        mehta_constant(rs_product), mehta_by_quadrature(rs_product), rel_tol=1e-9
    )


def test_a_system_hashes_by_identity_and_shares_cache_entries(monkeypatch):
    a, b = axis_product(Fraction(11, 13), Fraction(3, 17)), rank_one(Fraction(7, 3))
    hashed = []
    original = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda k: hashed.append(k) or original(k))
    assert hash(a) == object.__hash__(a) and hash(b) == object.__hash__(b)
    assert hashed == [] and hash(Fraction(1, 3)) and hashed  # the counter counts
    assert default_line_plan(b) is default_line_plan(rank_one(Fraction(7, 3)))


def test_create_keeps_one_system_per_value():
    assert rank_one(Fraction(7, 3)) is rank_one(Fraction(7, 3)) is rank_one("7/3")
    assert parse_preset("z2xz2:1,2") is axis_product(1, 2) is axis_product(Fraction(2, 2), 2)
    assert root_system_from_dict(root_system_to_dict(rank_one(2))) is rank_one(2)
    assert rank_one(2) is not rank_one(3) and axis_product(1, 2) is not axis_product(2, 1)
    # a direct construction skips the checks and is not interned; it equals only itself
    direct = RootSystem(1, ((Fraction(1),),), (Fraction(2),))
    assert direct != rank_one(2) and direct == direct
    assert RootSystem.create(1, [[1]], [2]) is rank_one(2)
    for preset in ("z2:1/2", "z2:1", "z2:2", "z2:7/3", "z2:0", "z2xz2:1,2"):
        rs = parse_preset(preset)
        assert pickle.loads(pickle.dumps(rs)) is rs and copy.deepcopy(rs) is rs


@pytest.mark.parametrize("dimension, roots, mults", [
    (2, [[1, 0], [1, 1]], [1, 1]),  # not closed under its reflections
    (2, [[1, -1], [1, 1], [1, 0], [0, 1]], [1, 1, 1, 2]),  # multiplicity not invariant
    (2, [[1, 0], [3, 4]], [1, 1]),  # an infinite group
])
def test_a_refused_system_is_refused_again_and_never_kept(dimension, roots, mults):
    for _ in range(2):
        with pytest.raises(NotARootSystemError):
            RootSystem.create(dimension, roots, mults)
    assert not any(key[1:] == (tuple(tuple(map(Fraction, r)) for r in roots), tuple(map(Fraction, mults)))
                   for key in RootSystem._interned)


def test_a_repeated_create_skips_the_closure_and_the_invariance_check(monkeypatch):
    import dunklkit.rootsys as rootsys

    rs = axis_product(Fraction(5, 7), 3)
    seen = []
    monkeypatch.setattr(rootsys, "close_group", lambda r: seen.append("close"))
    monkeypatch.setattr(rootsys, "_check_invariance", lambda r: seen.append("check"))
    assert axis_product(Fraction(5, 7), 3) is rs and seen == []


@pytest.mark.parametrize("make", [
    lambda: axis_product(1, Fraction(2, 3)),
    lambda: rank_one(2),
    lambda: RootSystem.create(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [1, 1, 1, 1]),  # B2: no product
], ids=["product", "line", "B2"])
def test_axis_profile_is_built_once_per_instance_and_stays_out_of_pickles(make):
    rs = make()
    profile = rs.axis_profile()
    assert rs.axis_profile() is profile
    assert (profile is None) == (rs.dimension == 2 and len(rs.positive_roots) == 4)
    # a pickle carries only the fields and comes back through create, as the instance itself;
    # so does a copy, and so do both of a direct construction
    assert b"_axis_profile" not in pickle.dumps(rs)
    direct = RootSystem(rs.dimension, rs.positive_roots, rs.multiplicities)
    for system in (rs, direct):
        assert pickle.loads(pickle.dumps(system)) is copy.copy(system) is copy.deepcopy(system) is rs


def test_serialization_roundtrip(rs_product):
    data = root_system_to_dict(rs_product)
    back = root_system_from_dict(data)
    assert back.dimension == rs_product.dimension
    assert back.multiplicities == rs_product.multiplicities
    assert back.positive_roots == rs_product.positive_roots


def test_save_load(tmp_path, rs_two):
    from dunklkit.rootsys import load_root_system, save_root_system

    path = tmp_path / "system.json"
    save_root_system(rs_two, path)
    back = load_root_system(path)
    assert back.gamma == rs_two.gamma


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3), min_size=2, max_size=2),
    st.lists(st.fractions(min_value=-2, max_value=2), min_size=2, max_size=2).filter(
        lambda a: any(c != 0 for c in a)
    ),
)
def test_reflection_is_involution(x, alpha):
    once = reflect(alpha, x)
    twice = reflect(alpha, once)
    assert list(twice) == [Fraction(c) for c in x]


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=0, max_value=4))
def test_rank_one_gamma_roundtrip(k):
    rs = rank_one(k)
    assert rs.gamma == k
    data = root_system_to_dict(rs)
    assert root_system_from_dict(data).gamma == k


# -- Gauss rules against mpmath --------------------------------------------------

# every (n, a, b) the suites and grids build: (1-t)^a (1+t)^b on (-1, 1)
_JACOBI_CASES = (
    [(n, 0.0, b) for n in (32, 48, 64, 80, 96, 100, 120, 160) for b in (1.0, 2.0, 3.0, 4.0, 14 / 3)]
    + [(32, 1.0, 2.0), (64, 1.0, 2.0), (96, 0.0, 0.0), (192, 0.0, 0.0), (320, 0.0, 0.0)]
)


def _jacobi_reference(n, a, b, t):
    """The node near t and its weight at 30 digits: Newton on P_n^(a,b), then
    the weight 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n! (1-x^2) P_n'(x)^2)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(float(t))

        def dp(x):
            return (n + a + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, x)

        for _ in range(2):
            x -= mpmath.jacobi(n, a, b, x) / dp(x)
        c = 2 ** (a + b + 1) * mpmath.gamma(n + a + 1) * mpmath.gamma(n + b + 1)
        c /= mpmath.gamma(n + a + b + 1) * mpmath.factorial(n)
        return float(x), float(c / ((1 - x * x) * dp(x) ** 2))


def _hermite_reference(n, t):
    """Newton on H_n, then the weight 2^(n-1) n! sqrt(pi) / (n^2 H_{n-1}(x)^2), at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        x = mpmath.mpf(float(t))
        for _ in range(2):
            x -= mpmath.hermite(n, x) / (2 * n * mpmath.hermite(n - 1, x))
        w = 2 ** (n - 1) * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi) / (n**2 * mpmath.hermite(n - 1, x) ** 2)
        return float(x), float(w)


def _check_rule(nodes, weights, mass, reference):
    n = nodes.size
    assert abs(np.sum(weights) - mass) <= 1e-15 * mass
    for i in (0, 1, n // 2, n - 2, n - 1):
        x, w = reference(nodes[i])
        assert abs(nodes[i] - x) <= 4e-16 * max(1.0, abs(x))
        assert abs(weights[i] - w) <= 1e-12 * w


@pytest.mark.parametrize("n, a, b", _JACOBI_CASES)
def test_gauss_jacobi_rule_matches_mpmath(n, a, b):
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = _gauss_rule("jacobi", n, a, b)
    with mpmath.workdps(30):
        mass = float(2 ** mpmath.mpf(a + b + 1) * mpmath.beta(a + 1, b + 1))
    _check_rule(nodes, weights, mass, lambda t: _jacobi_reference(n, a, b, t))
    assert np.all(np.diff(nodes) > 0) and nodes[0] > -1.0 and nodes[-1] < 1.0


@pytest.mark.parametrize("n", [48, 96])
def test_gauss_hermite_rule_matches_mpmath(n):
    nodes, weights = _gauss_rule("hermite", n)
    _check_rule(nodes, weights, math.sqrt(math.pi), lambda t: _hermite_reference(n, t))


def test_gauss_rule_is_cached_and_read_only():
    nodes, weights = _gauss_rule("jacobi", 48, 0.0, 2.0)
    again = _gauss_rule("jacobi", 48, 0.0, 2.0)
    assert again[0] is nodes and again[1] is weights
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0
