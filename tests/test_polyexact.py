import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunklkit.cli import parse_preset
from dunklkit.errors import AccuracyError, InvalidArgumentError, UnsupportedCaseError
from dunklkit.kernel import kernel_series
from dunklkit.polyexact import (
    RationalPoly,
    apply_P_poly,
    apply_Q_poly,
    directional_apply,
    divide_by_linear_form,
    dunkl_apply,
    intertwine,
    intertwine_inverse,
    intertwine_matrix,
    intertwine_matrix_inverse,
    monomial_basis,
    operator_prefactor,
    solve_exact,
)
from dunklkit.rootsys import RootSystem, axis_product, rank_one, reflection_matrix
from dunklkit.suites import SuiteConfig, run_suite, suite_names


def b2():
    """B2 with short roots of multiplicity 1 and long roots of multiplicity 2."""
    return RootSystem.create(2, [[1, 0], [0, 1], [1, 1], [1, -1]], [1, 1, 2, 2])


def a2_in_r3():
    return RootSystem.create(3, [[1, -1, 0], [0, 1, -1], [1, 0, -1]], [1, 1, 1])


def test_poly_algebra():
    x = RationalPoly.variable(1, 0)
    p = (x + 1) * (x - 1)
    assert p == x * x - 1
    assert p.degree() == 2
    assert p.partial(0) == RationalPoly.monomial(1, (1,), 2)


def test_poly_evaluate():
    x = RationalPoly.variable(2, 0)
    y = RationalPoly.variable(2, 1)
    p = x**2 * y - y**3
    assert p.evaluate([Fraction(2), Fraction(3)]) == 12 - 27
    vals = p.evaluate_float(np.array([[2.0, 3.0], [1.0, 1.0]]))
    assert np.allclose(vals, [-15.0, 0.0])


def test_dunkl_lowers_degree(rs_one):
    p = RationalPoly.monomial(1, (4,))
    tp = dunkl_apply(rs_one, 0, p)
    assert tp.degree() == 3
    # T x^4 = 4 x^3 + k (x^4 - x^4)/x with reflection: even power drops the
    # difference term entirely
    assert tp == RationalPoly.monomial(1, (3,), 4)


def test_dunkl_odd_power(rs_one):
    # T x^3 = 3 x^2 + (x^3 - (-x)^3)/x = 3 x^2 + 2 x^2
    p = RationalPoly.monomial(1, (3,))
    assert dunkl_apply(rs_one, 0, p) == RationalPoly.monomial(1, (2,), 5)


def test_intertwine_normalizes_unit(rs_two):
    one = RationalPoly.constant(1, 1)
    assert intertwine(rs_two, one) == one


def test_intertwine_known_value(rs_one):
    # V(y^2) = x^2 / (2 gamma + 1) on the line at gamma = 1
    p = RationalPoly.monomial(1, (2,))
    assert intertwine(rs_one, p) == RationalPoly.monomial(1, (2,), Fraction(1, 3))


def test_intertwine_degree_preserved(rs_product):
    p = RationalPoly.monomial(2, (2, 1))
    vp = intertwine(rs_product, p)
    assert vp.degree() == 3
    assert intertwine_inverse(rs_product, vp) == p


@pytest.mark.parametrize("gamma", [Fraction(1, 2), 1, 2, Fraction(7, 3)])
def test_transmutation_line(gamma):
    rs = rank_one(gamma)
    for deg in range(7):
        p = RationalPoly.monomial(1, (deg,))
        lhs = dunkl_apply(rs, 0, intertwine(rs, p))
        rhs = intertwine(rs, p.partial(0))
        assert lhs == rhs


def test_transmutation_product(rs_product):
    for expo in monomial_basis(2, 4):
        p = RationalPoly.monomial(2, expo)
        for j in range(2):
            assert dunkl_apply(rs_product, j, intertwine(rs_product, p)) == intertwine(
                rs_product, p.partial(j)
            )


def test_operator_prefactor_values():
    # pi^d c_k^2 / 2^(2 gamma) with c_k = 1/Gamma(gamma + 1/2)
    assert operator_prefactor(rank_one(1)).as_fraction() == 1
    assert operator_prefactor(rank_one(2)).as_fraction() == Fraction(1, 9)
    assert operator_prefactor(axis_product(1, 1)).as_fraction() == 1


def test_operator_prefactor_non_integer():
    pref = operator_prefactor(rank_one(Fraction(1, 2)))
    assert not pref.is_rational
    assert pref.as_float() == pytest.approx(np.pi / 2.0, rel=1e-14)


def test_apply_P_known(rs_one):
    # P = -(d/dx)^2 at gamma = 1
    p = RationalPoly.monomial(1, (4,))
    assert apply_P_poly(rs_one, p) == RationalPoly.monomial(1, (2,), -12)


def test_apply_Q_is_conjugated_P(rs_two):
    for deg in range(5):
        p = RationalPoly.monomial(1, (deg,))
        lhs = apply_Q_poly(rs_two, p)
        rhs = intertwine(rs_two, apply_P_poly(rs_two, intertwine_inverse(rs_two, p)))
        assert lhs == rhs


def test_apply_Q_rejects_fractional():
    with pytest.raises(UnsupportedCaseError):
        apply_Q_poly(rank_one(Fraction(1, 2)), RationalPoly.monomial(1, (2,)))


def _multiplier_reference(rs, p, dunkl):
    """The multiplier as it was computed on the whole polynomial: the prefactor
    times the product over roots of (-1)^k (alpha . D)^(2k), by directional_apply."""
    out, sign = p, 1
    for alpha, k in zip(rs.positive_roots, rs.multiplicities):
        sign *= (-1) ** int(k)
        for _ in range(2 * int(k)):
            out = directional_apply(rs, alpha, out, dunkl=dunkl)
    return (operator_prefactor(rs).as_fraction() * sign) * out


@pytest.mark.parametrize("preset", ["z2:1", "z2:2", "z2xz2:1,2"])
def test_p_and_q_from_cached_monomial_images_equal_the_directional_product(preset):
    rs = parse_preset(preset)
    total = RationalPoly.zero(rs.dimension)
    for deg in range(7):
        for e in monomial_basis(rs.dimension, deg):
            p = RationalPoly.monomial(rs.dimension, e, Fraction(deg + 1, 3))
            total = total + p
            assert apply_P_poly(rs, p) == _multiplier_reference(rs, p, False), e
            assert apply_Q_poly(rs, p) == _multiplier_reference(rs, p, True), e
    # and on a sum of monomials, term by term
    assert apply_P_poly(rs, total) == _multiplier_reference(rs, total, False)
    assert apply_Q_poly(rs, total) == _multiplier_reference(rs, total, True)


def test_p_and_q_refuse_a_system_off_coordinate_products_even_on_zero():
    for apply in (apply_P_poly, apply_Q_poly):
        for p in (RationalPoly.zero(2), RationalPoly.monomial(2, (2, 2))):
            with pytest.raises(UnsupportedCaseError, match="one-dimensional factors"):
                apply(b2(), p)


def test_operator_prefactor_is_built_once_per_system():
    rs = axis_product(3, 1)
    assert operator_prefactor(rs) is operator_prefactor(axis_product(3, 1))


def test_a_warm_transmutation_run_compares_no_root_systems(monkeypatch):
    # one system per value: every cache keyed by a system hits on identity
    config = SuiteConfig(suite="transmutation", rs=parse_preset("z2xz2:1,2"), label="z2xz2:1,2")
    run_suite(config)
    compared = []
    original = RootSystem.__eq__
    monkeypatch.setattr(RootSystem, "__eq__", lambda a, b: compared.append(1) or original(a, b))
    report = run_suite(SuiteConfig(suite="transmutation", rs=parse_preset("z2xz2:1,2"), label="z2xz2:1,2"))
    assert report.all_passed and compared == []
    assert parse_preset("z2xz2:1,2") == axis_product(1, 2) and compared  # the counter counts


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-3, max_value=3), min_size=1, max_size=4),
)
def test_intertwine_linear(c1, c2):
    rs = rank_one(2)
    p = sum(
        (RationalPoly.monomial(1, (i,), c) for i, c in enumerate(c1)),
        RationalPoly.zero(1),
    )
    q = sum(
        (RationalPoly.monomial(1, (i,), c) for i, c in enumerate(c2)),
        RationalPoly.zero(1),
    )
    assert intertwine(rs, p + q) == intertwine(rs, p) + intertwine(rs, q)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=7))
def test_intertwine_inverse_roundtrip(deg):
    rs = rank_one(Fraction(7, 3))
    p = RationalPoly.monomial(1, (deg,))
    assert intertwine_inverse(rs, intertwine(rs, p)) == p
    assert intertwine(rs, intertwine_inverse(rs, p)) == p


@pytest.mark.parametrize("make", [b2, a2_in_r3, lambda: RootSystem.create(2, [[1, 2], [2, -1]], [1, Fraction(1, 2)])],
                         ids=["B2", "A2-in-R3", "rotated-z2xz2"])
def test_compose_linear_is_p_at_m_x_for_every_group_element(make):
    # signed permutations relabel and sign the exponents; the rotated product's
    # reflections take the expansion in powers of linear forms
    rs = make()
    d = rs.dimension
    p = RationalPoly(d, {e: Fraction(sum(e) + 1, e[0] + 1) for n in range(5) for e in monomial_basis(d, n)})
    x = [Fraction(i + 2, i + 3) for i in range(d)]
    for w in rs.group():
        assert p.compose_linear(w).evaluate(x) == p.evaluate([sum(a * b for a, b in zip(row, x)) for row in w])


# ---------------------------------------------------------------------------
# named errors in the arithmetic


@pytest.mark.parametrize(
    "op",
    [
        lambda p: p + 0.5,
        lambda p: 0.5 + p,
        lambda p: p - 0.5,
        lambda p: p * 0.5,
        lambda p: 0.5 * p,
        lambda p: p + "x",
        lambda p: p * [1],
    ],
    ids=["add", "radd", "sub", "mul", "rmul", "add-str", "mul-list"],
)
def test_arithmetic_with_a_non_rational_operand_is_refused_by_name(op):
    with pytest.raises(InvalidArgumentError):
        op(RationalPoly.variable(2, 0))


@pytest.mark.parametrize("n", [0.5, 2.0, Fraction(1, 2), -1], ids=["0.5", "2.0", "1/2", "-1"])
def test_power_other_than_a_nonnegative_integer_is_refused_by_name(n):
    with pytest.raises(InvalidArgumentError):
        RationalPoly.variable(1, 0) ** n


@pytest.mark.parametrize("k", range(1, 10))
def test_power_is_the_product_in_the_binary_count_of_products(k, monkeypatch):
    p = RationalPoly(2, {(1, 0): Fraction(2, 3), (0, 2): Fraction(-1), (0, 0): Fraction(5)})
    expected = p
    for _ in range(k - 1):
        expected = expected * p
    products = []
    real_mul = RationalPoly.__mul__
    monkeypatch.setattr(RationalPoly, "__mul__", lambda a, b: products.append(1) or real_mul(a, b))
    assert p**k == expected
    assert len(products) == k.bit_length() - 1 + bin(k).count("1") - 1
    assert p**0 == RationalPoly.constant(2, 1)


# an exponent that is not an integer is refused, not truncated: (0.5, 1) is not x_1
@pytest.mark.parametrize("terms", [{(1,): 1}, {(1, 0, 0): 1}, {(1, -1): 1}, {(1, 2): 0.5}, {(0.5, 1): 1},
                                   {(1.0, 1): 1}, {(Fraction(1, 2), 1): 1}, {("1", 1): 1}],
                         ids=["short", "long", "negative", "float-coefficient", "half-exponent",
                              "float-exponent", "fraction-exponent", "str-exponent"])
def test_the_public_constructor_refuses_bad_terms(terms):
    with pytest.raises(InvalidArgumentError):
        RationalPoly(2, terms)


def test_integer_exponents_of_any_integer_type_are_taken():
    expected = RationalPoly.monomial(2, (2, 1), 3)
    for e in [(2, 1), (np.int64(2), np.int32(1)), tuple(np.array([2, 1]))]:
        p = RationalPoly(2, {e: 3})
        assert p == expected and all(type(v) is int for v in next(iter(p.terms)))


def test_arithmetic_across_dimensions_is_refused_by_name():
    with pytest.raises(InvalidArgumentError):
        RationalPoly.variable(1, 0) + RationalPoly.variable(2, 0)
    with pytest.raises(InvalidArgumentError):
        RationalPoly.variable(1, 0) * RationalPoly.variable(2, 0)


# ---------------------------------------------------------------------------
# the term-by-term route against the dense and the direct formulas


def _dense_graded(rs, p, matrix_for):
    """Each row of the degree-n matrix times the whole coefficient vector of p's degree-n part."""
    out = RationalPoly.zero(p.dimension)
    for n, comp in p.homogeneous_components().items():
        basis = monomial_basis(p.dimension, n)
        vec = [comp.terms.get(e, Fraction(0)) for e in basis]
        mat = matrix_for(rs, n)
        terms = {e: sum((m * v for m, v in zip(mat[r], vec)), Fraction(0)) for r, e in enumerate(basis)}
        out = out + RationalPoly(p.dimension, terms)
    return out


_reflection = lru_cache(maxsize=None)(reflection_matrix)


def _direct_dunkl(rs, j, p):
    """partial_j p plus k alpha_j (p - p o s_alpha) / <alpha, x> for each root, on the whole of p."""
    out = p.partial(j)
    for alpha, k in zip(rs.positive_roots, rs.multiplicities):
        if k == 0 or alpha[j] == 0:
            continue
        diff = p - p.compose_linear(_reflection(alpha))
        if not diff.is_zero():
            out = out + (k * alpha[j]) * divide_by_linear_form(diff, alpha)
    return out


@lru_cache(maxsize=None)
def _stacked_matrix(rs, degree):
    """V on degree n as the exact solution of T_j V = V d_j for every j, with V 1 = 1.

    The rows stack over j the direct-formula T_j from degree n to n - 1 and,
    on the right, V(d_j x^e) = e_j V x^(e - eps_j) from degree n - 1.  For
    nonnegative multiplicities the system has a unique solution.
    """
    if degree == 0:
        return [[Fraction(1)]]
    d = rs.dimension
    basis_n, basis_p = monomial_basis(d, degree), monomial_basis(d, degree - 1)
    index_p = {e: i for i, e in enumerate(basis_p)}
    prev = _stacked_matrix(rs, degree - 1)
    a_rows, rhs_rows = [], []
    for j in range(d):
        images = [_direct_dunkl(rs, j, RationalPoly.monomial(d, e)).terms for e in basis_n]
        a_rows += [[image.get(f, Fraction(0)) for image in images] for f in basis_p]
        lower = [index_p[e[:j] + (e[j] - 1,) + e[j + 1:]] if e[j] else None for e in basis_n]
        rhs_rows += [[e[j] * row[i] if e[j] else Fraction(0) for e, i in zip(basis_n, lower)] for row in prev]
    return solve_exact(a_rows, rhs_rows)


@lru_cache(maxsize=None)
def _stacked_inverse(rs, degree):
    """The exact inverse of _stacked_matrix(rs, degree)."""
    size = len(monomial_basis(rs.dimension, degree))
    return solve_exact(_stacked_matrix(rs, degree), [[Fraction(int(i == j)) for j in range(size)] for i in range(size)])


REFERENCE_SYSTEMS = {
    "z2:7/3": lambda: rank_one(Fraction(7, 3)),
    "z2xz2:1,2": lambda: axis_product(1, 2),
    "B2:1,2": b2,
    "A2-in-R3:1": a2_in_r3,
    "z2^3:1,2,1/2": lambda: axis_product(1, 2, Fraction(1, 2)),
}


def _polys(dimension):
    exponents = [e for n in range(7) for e in monomial_basis(dimension, n)]
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda c: c != 0)
    return st.dictionaries(st.sampled_from(exponents), coeffs, min_size=2, max_size=6).map(
        lambda terms: RationalPoly(dimension, terms)
    )


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_term_by_term_route_matches_the_dense_and_direct_formulas(system, data):
    rs = REFERENCE_SYSTEMS[system]()
    p = data.draw(_polys(rs.dimension))
    for j in range(rs.dimension):
        assert dunkl_apply(rs, j, p) == _direct_dunkl(rs, j, p)
    assert intertwine(rs, p) == _dense_graded(rs, p, _stacked_matrix)
    assert intertwine_inverse(rs, p) == _dense_graded(rs, p, _stacked_inverse)


@pytest.mark.parametrize("system", REFERENCE_SYSTEMS)
def test_every_column_of_v_and_its_inverse_equals_the_stacked_solve(system):
    # the Euler recursion builds V without the transmutation equations, which hold by theorem
    rs = REFERENCE_SYSTEMS[system]()
    for n in range(9 if rs.dimension <= 2 else 7):
        assert intertwine_matrix(rs, n) == _stacked_matrix(rs, n)
        assert intertwine_matrix_inverse(rs, n) == _stacked_inverse(rs, n)


# ---------------------------------------------------------------------------
# the kernel series against the stacked solve, off coordinate products


def _series_terms(rs, x, z, degree):
    """V(<., z>^n / n!)(x) for n <= degree, exact in Fractions, V from the stacked solve."""
    terms = []
    for n in range(degree + 1):
        basis = monomial_basis(rs.dimension, n)
        # <y, z>^n / n! = sum over |e| = n of z^e y^e / e!
        coeffs = [math.prod(Fraction(zi) ** ei / math.factorial(ei) for zi, ei in zip(z, e)) for e in basis]
        image = [sum((m * c for m, c in zip(row, coeffs)), Fraction(0)) for row in _stacked_matrix(rs, n)]
        terms.append(sum(v * RationalPoly.monomial(rs.dimension, f).evaluate(x) for v, f in zip(image, basis)))
    return terms


# (system, x, z, reference degree): |x||z| <= 2 on B2 and <= 0.27 on A2, and each
# reference runs at least to the degree at which kernel_series stops there
SERIES_POINTS = [
    (b2, (Fraction(6, 5), Fraction(2, 5)), (-1, Fraction(6, 5)), 20),
    (b2, (1, Fraction(1, 2)), (Fraction(3, 4), -1), 20),
    (b2, (Fraction(-1, 3), Fraction(7, 5)), (Fraction(1, 2), Fraction(1, 4)), 20),
    (a2_in_r3, (Fraction(1, 5), Fraction(-1, 10), Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 5), 0), 9),
    (a2_in_r3, (Fraction(-1, 4), 0, Fraction(1, 10)), (Fraction(2, 5), Fraction(-1, 2), Fraction(1, 2)), 9),
]


@pytest.mark.parametrize("make, x, z, degree", SERIES_POINTS)
def test_kernel_series_off_coordinate_products_matches_the_stacked_solve(make, x, z, degree):
    rs = make()
    xf, zf = np.array(x, dtype=float), np.array(z, dtype=float)
    assert np.linalg.norm(xf) * np.linalg.norm(zf) <= (2.0 if rs.dimension == 2 else 0.27)
    terms = _series_terms(rs, x, z, degree)
    assert abs(kernel_series(rs, xf, zf) - float(sum(terms))) <= 1e-13
    # K(x, iz) takes the terms times i^n
    parts = [sum(t * (-1) ** (n // 2) for n, t in enumerate(terms) if n % 2 == odd) for odd in (0, 1)]
    assert abs(kernel_series(rs, xf, 1j * zf) - complex(*map(float, parts))) <= 1e-13


def test_a_polynomial_of_the_wrong_dimension_is_refused_by_name():
    p = RationalPoly.variable(1, 0) + 1
    for rs in (axis_product(1, 2), b2()):
        with pytest.raises(InvalidArgumentError):
            dunkl_apply(rs, 0, p)
        with pytest.raises(InvalidArgumentError):
            intertwine(rs, p)
        with pytest.raises(InvalidArgumentError):
            intertwine_inverse(rs, p)


# ---------------------------------------------------------------------------
# the transmutation suite on a system whose reflections mix coordinates


def test_transmutation_suite_on_b2_passes_with_zero_residuals():
    report = run_suite(SuiteConfig(suite="transmutation", rs=b2(), label="B2:1,2"))
    assert [c.id for c in report.checks] == ["transmutation-identity", "unit-normalization", "inverse-roundtrip"]
    assert report.all_passed
    assert all(c.residual == 0.0 for c in report.checks)


@pytest.mark.parametrize("suite", ["kernel", "transmutation", "normalization", "transform"])
def test_suites_on_three_axes_pass(suite):
    # every point the suites build has rs.dimension coordinates, and the kernel series
    # runs in O(|W|^2) per term and point
    rs = axis_product(1, 2, Fraction(1, 2))
    assert run_suite(SuiteConfig(suite=suite, rs=rs, label="z2^3:1,2,1/2")).all_passed


@pytest.mark.parametrize("suite", suite_names())
def test_suites_on_a_scaled_root_pass_or_refuse_it_by_name(suite):
    # the kernel, V and the exact layer read the weight themselves; every path that takes
    # the weight's constant from a unit root refuses the root of length 2
    config = SuiteConfig(suite=suite, rs=RootSystem.create(1, [[2]], [1]), label="root 2")
    if suite in ("kernel", "normalization", "cross-engine", "transmutation"):
        assert run_suite(config).all_passed
    else:
        with pytest.raises(UnsupportedCaseError, match="rescale each root to length 1"):
            run_suite(config)


@pytest.mark.parametrize("make", [b2, a2_in_r3])
def test_kernel_suite_off_coordinate_products_is_refused_with_the_certified_radius(make, monkeypatch):
    # check_bounds samples reach |x||y| = 25 d, which no 40-term series
    # certifies: refused by name before any kernel is evaluated
    from dunklkit import suites

    for name in ("check_bounds", "kernel_series", "kernel_value"):
        monkeypatch.setattr(suites, name, lambda *a, _name=name: pytest.fail(f"{_name} was called"))
    with pytest.raises(UnsupportedCaseError, match=r"\|x\|\|y\| <= 8\.18;"):
        run_suite(SuiteConfig(suite="kernel", rs=make()))
    # the series itself keeps its accuracy error, past the radius only
    rs = make()
    x = np.zeros(rs.dimension)
    x[0] = 1.0
    kernel_series(rs, x, 8.18 * x)
    with pytest.raises(AccuracyError, match="truncation tail"):
        kernel_series(rs, x, 8.19 * x)


# The seed-0 body sha256 of the transmutation report.  Every residual is a
# count of mismatches in exact arithmetic, so any drift in polyexact moves one.
# The body holds the label, which is the preset name.
TRANSMUTATION_BODIES = {
    "z2:1/2": "9c6a6bb66c58b7b36f1766f6c7c5d71d86ceddc192db4b132a5cc74a1e1fd354",
    "z2:1": "a2cf74f2dddd2731a60601950ba9d79a34249e51cf845064dfd5f39e4a25b459",
    "z2:2": "87929e4e488597eea2439b24f1ced1c0d7daee7afff810dfb0cfdb8d5caa3cc3",
    "z2:7/3": "fd2c4059dbb97851cdd5ac5e95afd7f8e995524bdb8360bd57423b1a63846da4",
    "z2:0": "3758bf54ba71d62d5d9ec72b167e2ad047cc3f80c1cf8323e9873e66bc50f655",
    "z2xz2:1,2": "3f4e94e93f64175f32074f1f0793e6f0d1dfc53819c3b23148f53360642f2f1c",
    "B2:1,2": "15d49fd1646f538cbfe9200f628b26540c6d3a50ba57e3b7de4a3c06f05373a0",
}


@pytest.mark.parametrize("preset", TRANSMUTATION_BODIES)
def test_transmutation_report_body_is_pinned(preset):
    rs = b2() if preset == "B2:1,2" else parse_preset(preset)
    report = run_suite(SuiteConfig(suite="transmutation", rs=rs, label=preset, seed=0))
    assert hashlib.sha256(report.body_bytes()).hexdigest() == TRANSMUTATION_BODIES[preset]
