import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from holozeta import ProblemInstance, WeylOperator, d_n


def gens(sig, *names):
    return tuple(WeylOperator.gen(sig, n) for n in names)


@pytest.fixture(scope="session")
def inst_x():
    """f = x, I = <dx> (phi = 1 on the line)."""
    sig = d_n(("x",))
    x, dx = gens(sig, "x", "dx")
    return ProblemInstance.make(("x",), x, [dx])


@pytest.fixture(scope="session")
def inst_xsq():
    sig = d_n(("x",))
    x, dx = gens(sig, "x", "dx")
    return ProblemInstance.make(("x",), x * x, [dx])


@pytest.fixture(scope="session")
def inst_gamma():
    """f = x, I = <dx + 1> (phi = exp(-x))."""
    sig = d_n(("x",))
    x, dx = gens(sig, "x", "dx")
    return ProblemInstance.make(("x",), x, [dx + 1])


@pytest.fixture(scope="session")
def inst_ex3():
    """f = x, I = <x^2 dx + x^2 - 1> (phi = exp(-x - 1/x) on x > 0)."""
    sig = d_n(("x",))
    x, dx = gens(sig, "x", "dx")
    return ProblemInstance.make(("x",), x, [x * x * dx + x * x - 1])


@pytest.fixture(scope="session")
def inst_cusp():
    """f = x^3 - y^2, I = <dx, dy>."""
    sig = d_n(("x", "y"))
    x, y, dx, dy = gens(sig, "x", "y", "dx", "dy")
    return ProblemInstance.make(("x", "y"), x ** 3 - y ** 2, [dx, dy])


@pytest.fixture(scope="session")
def inst_cusp_gauss():
    """f = x^3 - y^2, I = <dx + 2x, dy + 2y> (phi = exp(-x^2 - y^2))."""
    sig = d_n(("x", "y"))
    x, y, dx, dy = gens(sig, "x", "y", "dx", "dy")
    return ProblemInstance.make(("x", "y"), x ** 3 - y ** 2,
                                [dx + 2 * x, dy + 2 * y])


@pytest.fixture(scope="session")
def inst_ex4():
    """f = y^3 - x^2, I = <x^2 dx + x^2 - 1, dy + 1>."""
    sig = d_n(("x", "y"))
    x, y, dx, dy = gens(sig, "x", "y", "dx", "dy")
    return ProblemInstance.make(("x", "y"), y ** 3 - x ** 2,
                                [x * x * dx + x * x - 1, dy + 1])


@pytest.fixture(scope="session")
def inst_ex5():
    """f = x^3 - y^2 z^2, I = <dx, dy, dz>."""
    sig = d_n(("x", "y", "z"))
    x, y, z, dx, dy, dz = gens(sig, "x", "y", "z", "dx", "dy", "dz")
    return ProblemInstance.make(("x", "y", "z"), x ** 3 - y ** 2 * z ** 2,
                                [dx, dy, dz])


@pytest.fixture
def reducer_builds(monkeypatch):
    """A list that gains an entry each time a key function of a monomial
    order is made: once per Groebner engine run and per reducer set."""
    import holozeta.weyl_core as wc
    builds, make = [], wc._make_keyf

    def counted(order, pk):
        builds.append(order)
        return make(order, pk)
    monkeypatch.setattr(wc, "_make_keyf", counted)
    return builds


def run_slow():
    return os.environ.get("HOLOZETA_SLOW", "") not in ("", "0")
