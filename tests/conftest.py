import pytest

from fractions import Fraction

from dunklkit.intertwine1d import default_line_plan
from dunklkit.rootsys import axis_product, rank_one


@pytest.fixture(scope="session")
def rs_half():
    return rank_one(Fraction(1, 2))


@pytest.fixture(scope="session")
def rs_one():
    return rank_one(1)


@pytest.fixture(scope="session")
def rs_two():
    return rank_one(2)


@pytest.fixture(scope="session")
def rs_seventhirds():
    return rank_one(Fraction(7, 3))


@pytest.fixture(scope="session")
def rs_zero():
    return rank_one(0)


@pytest.fixture(scope="session")
def rs_product():
    return axis_product(1, 2)


@pytest.fixture(scope="session")
def lines():
    """Rank-one systems keyed by the float that names them in test ids."""
    return {
        0.5: rank_one(Fraction(1, 2)),
        1.0: rank_one(1),
        2.0: rank_one(2),
        7.0 / 3.0: rank_one(Fraction(7, 3)),
    }


@pytest.fixture(scope="session")
def plan_one(rs_one):
    return default_line_plan(rs_one)


@pytest.fixture(scope="session")
def plan_two(rs_two):
    return default_line_plan(rs_two)
