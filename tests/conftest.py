import pytest

import gx1cycles as gx


@pytest.fixture(scope="session")
def g():
    return gx.collatz()


@pytest.fixture(scope="session")
def t31():
    return gx.three_x_plus_one()


@pytest.fixture(scope="session")
def h():
    return gx.permutation_variant(3)


@pytest.fixture(scope="session")
def mat():
    return gx.matthews_4branch()
