import math
import sys

import numpy as np
import pytest
from hypothesis import settings

from hillgreen import Potential, clear_cache, greens
from hillgreen.integrator import SolutionBasis

# A failing property test prints its @reproduce_failure line, so one run is
# enough to replay it; the examples drawn are the default profile's.
settings.register_profile("hillgreen", print_blob=True)
settings.load_profile("hillgreen")


@pytest.fixture(scope="session")
def zero1() -> Potential:
    """a = 0 on [0, 1]; everything has a closed form."""
    return Potential.constant(0.0, 1.0)


@pytest.fixture(scope="session")
def pw2() -> Potential:
    """Step potential on [0, 2]: 0 then 1/10."""
    return Potential.piecewise_constant([0.0, 1.0, 2.0], [0.0, 0.1])


@pytest.fixture(scope="session")
def cos_pi() -> Potential:
    """cos t on [0, pi]; not symmetric about the midpoint."""
    return Potential.cosine(math.pi)


@pytest.fixture(scope="session")
def cos2_pi() -> Potential:
    """cos 2t on [0, pi]; symmetric about the midpoint."""
    return Potential.cosine(math.pi, omega=2.0)


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_cache()
    yield


@pytest.fixture
def trajectory_calls(monkeypatch):
    """Point counts of every SolutionBasis.trajectory call made in the test.

    Counting starts from an empty cache, so node states that an earlier
    test memoized on a cached basis cannot satisfy a count.
    """
    clear_cache()
    calls = []
    original = SolutionBasis.trajectory

    def counting(self, t):
        calls.append(int(np.size(t)))
        return original(self, t)

    monkeypatch.setattr(SolutionBasis, "trajectory", counting)
    return calls


@pytest.fixture
def build_green_calls(monkeypatch):
    """Conditions of every build_green call made in the test, through any
    module of the package that imported it."""
    calls = []
    original = greens.build_green

    def counting(p, lam, bc, *args, **kwargs):
        calls.append(bc)
        return original(p, lam, bc, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hillgreen" and getattr(mod, "build_green", None) is original:
            monkeypatch.setattr(mod, "build_green", counting)
    return calls
