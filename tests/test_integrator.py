import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hillgreen import (
    Potential,
    discriminant,
    endpoint_scan,
    fundamental_solutions,
)
from hillgreen.errors import DomainError

from helpers import rk4_reference

TOL = 1e-10


def closed_form_state(lam, t):
    """(y1, y1', y2, y2') for a == 0, any sign of lam."""
    if lam > 0:
        m = math.sqrt(lam)
        return (math.cos(m * t), -m * math.sin(m * t),
                math.sin(m * t) / m, math.cos(m * t))
    if lam < 0:
        m = math.sqrt(-lam)
        return (math.cosh(m * t), m * math.sinh(m * t),
                math.sinh(m * t) / m, math.cosh(m * t))
    return (1.0, 0.0, t, 1.0)


@pytest.mark.parametrize("lam", [-2.0, -0.5, 0.0, 0.3, 1.0, 7.0])
def test_zero_potential_closed_form(zero1, lam):
    basis = fundamental_solutions(zero1, lam)
    expect = closed_form_state(lam, 1.0)
    got = (basis.y1_end, basis.y1p_end, basis.y2_end, basis.y2p_end)
    assert np.allclose(got, expect, rtol=0, atol=1e-10)


def test_trajectory_matches_closed_form(zero1):
    basis = fundamental_solutions(zero1, 4.0)
    ts = np.linspace(0.0, 1.0, 17)
    got = basis.trajectory(ts)
    want = np.array([closed_form_state(4.0, t) for t in ts]).T
    assert np.allclose(got, want, atol=1e-10)


def test_trajectory_rejects_outside_domain(zero1):
    basis = fundamental_solutions(zero1, 1.0)
    with pytest.raises(DomainError):
        basis.trajectory(1.5)
    with pytest.raises(DomainError):
        basis.trajectory(-0.2)


@pytest.mark.parametrize("name,lam", [
    ("pw2", 0.7), ("pw2", -1.3), ("cos_pi", 0.5), ("cos_pi", -0.4),
    ("cos2_pi", 2.0), ("cos2_pi", 0.0),
])
def test_wronskian_identity(request, name, lam):
    p = request.getfixturevalue(name)
    basis = fundamental_solutions(p, lam, tol=TOL)
    ts = np.linspace(0.0, p.domain_length, 41)
    w = basis.wronskian(ts)
    assert np.max(np.abs(w - 1.0)) < 100 * TOL


@pytest.mark.parametrize("name,lam", [
    ("pw2", 0.9), ("cos_pi", 1.1), ("cos2_pi", -0.7),
])
def test_against_fixed_step_reference(request, name, lam):
    # fully independent integration route: fixed-step RK4, no shared code
    p = request.getfixturevalue(name)
    basis = fundamental_solutions(p, lam, tol=1e-12)
    ref = rk4_reference(p, lam, p.domain_length)
    got = np.array([basis.y1_end, basis.y1p_end, basis.y2_end, basis.y2p_end])
    assert np.max(np.abs(got - ref)) < 1e-8


def test_doubling_identities_even_extension(cos2_pi):
    # for a potential even on [0, 2T] about T, the monodromy over [0, 2T]
    # factors through the half interval:
    #   y1(2T) = 2 y1(T) y2'(T) - 1
    #   y1'(2T) = 2 y1'(T) y2'(T)
    #   y2(2T) = 2 y2(T) y1(T)
    #   y2'(2T) = y1(2T)
    p = cos2_pi.even_extension()
    T = cos2_pi.domain_length
    for lam in (0.35, -0.8, 2.2):
        half = fundamental_solutions(cos2_pi, lam, tol=1e-12)
        full = fundamental_solutions(p, lam, tol=1e-12)
        y1, y1p, y2, y2p = half.y1_end, half.y1p_end, half.y2_end, half.y2p_end
        assert full.y1_end == pytest.approx(2.0 * y1 * y2p - 1.0, abs=1e-9)
        assert full.y1p_end == pytest.approx(2.0 * y1p * y2p, abs=1e-9)
        assert full.y2_end == pytest.approx(2.0 * y2 * y1, abs=1e-9)
        assert full.y2p_end == pytest.approx(full.y1_end, abs=1e-9)
        assert full.length == pytest.approx(2.0 * T)


def test_discriminant_zero_potential(zero1):
    # Delta(lam) = 2 cos(sqrt(lam) L) for a == 0
    for lam in (0.5, 2.0, 9.0):
        want = 2.0 * math.cos(math.sqrt(lam))
        assert discriminant(zero1, lam) == pytest.approx(want, abs=1e-10)


def test_endpoint_scan_agrees_with_accurate(pw2):
    lams = np.linspace(-1.0, 6.0, 9)
    scan = endpoint_scan(pw2, lams, accuracy=1e-9)
    for j, lam in enumerate(lams):
        basis = fundamental_solutions(pw2, float(lam), tol=1e-12)
        exact = np.array([basis.y1_end, basis.y1p_end, basis.y2_end, basis.y2p_end])
        assert np.max(np.abs(scan[:, j] - exact)) < 1e-6


def test_endpoint_scan_shape_and_partial_length(cos_pi):
    lams = [0.0, 1.0, 2.0]
    out = endpoint_scan(cos_pi, lams, length=1.0)
    assert out.shape == (4, 3)
    with pytest.raises(ValueError):
        endpoint_scan(cos_pi, lams, length=10.0)


def test_tolerance_validation(zero1):
    with pytest.raises(ValueError):
        fundamental_solutions(zero1, 0.0, tol=1e-20)
    with pytest.raises(ValueError):
        fundamental_solutions(zero1, 0.0, tol=1.0)


def test_cache_returns_identical_object(cos_pi):
    a = fundamental_solutions(cos_pi, 0.25)
    b = fundamental_solutions(cos_pi, 0.25)
    assert a is b


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-4.0, max_value=25.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_wronskian_property(lam, amp):
    p = Potential.cosine(2.0, c0=0.0, c1=amp, omega=1.7)
    basis = fundamental_solutions(p, lam, tol=1e-10)
    ts = np.linspace(0.0, 2.0, 13)
    assert np.max(np.abs(basis.wronskian(ts) - 1.0)) < 1e-8
