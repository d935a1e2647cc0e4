import pytest

from polarium import rootdata
from polarium.rootdata import build


@pytest.fixture
def fresh_root_data():
    """An empty root-datum intern table for one test, as in a fresh process,
    so a test that forbids Weyl enumeration or an eigenspace solve cannot
    pass on a datum some earlier test warmed; the process's table is put
    back afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootdata, "_INTERNED", {})
        yield


@pytest.fixture(scope="session")
def a1():
    return build("A1")


@pytest.fixture(scope="session")
def a2():
    return build("A2")


@pytest.fixture(scope="session")
def a3():
    return build("A3")


@pytest.fixture(scope="session")
def b2():
    return build("B2")


@pytest.fixture(scope="session")
def g2():
    return build("G2")
