import functools
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

import hillgreen.integrator as integrator
from hillgreen import (
    DEFAULT_TOL,
    Potential,
    build_green,
    closed_form_constant,
    discriminant,
    endpoint_scan,
    find_eigenvalues,
    fundamental_solutions,
    kernel_value,
    load_builtin,
    solve_bvp,
    stability_intervals,
)
from hillgreen import greens
from hillgreen.errors import DomainError, IntegrationError, ResonanceError

from helpers import rk4_reference, step_state

TOL = 1e-10


@pytest.mark.parametrize("lam", [-2.0, -0.5, 0.0, 0.3, 1.0, 7.0])
def test_zero_potential_closed_form(zero1, lam):
    basis = fundamental_solutions(zero1, lam)
    expect = step_state(zero1, lam, 1.0)
    got = (basis.y1_end, basis.y1p_end, basis.y2_end, basis.y2p_end)
    assert np.allclose(got, expect, rtol=0, atol=1e-13)


def test_trajectory_matches_closed_form(zero1):
    basis = fundamental_solutions(zero1, 4.0)
    ts = np.linspace(0.0, 1.0, 17)
    got = basis.trajectory(ts)
    want = np.array([step_state(zero1, 4.0, t) for t in ts]).T
    assert np.allclose(got, want, rtol=0, atol=1e-13)


# q = a + lam is 3, 0 and -2 on the three pieces at lam = 2
STEP3 = Potential.piecewise_constant([0.0, 0.4, 1.1, 1.5], [1.0, -2.0, -4.0])


def test_step_potential_closed_form():
    lam = 2.0
    basis = fundamental_solutions(STEP3, lam)
    want = step_state(STEP3, lam, 1.5)
    got = np.array([basis.y1_end, basis.y1p_end, basis.y2_end, basis.y2p_end])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    ts = np.linspace(0.0, 1.5, 31)
    got = basis.trajectory(ts)
    want = np.array([step_state(STEP3, lam, t) for t in ts]).T
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # q = 0 exactly on the whole interval: y2(t) = t
    flat = fundamental_solutions(Potential.constant(-2.0, 1.0), 2.0)
    assert np.array_equal(flat.trajectory(ts[:11]),
                          np.array([np.ones(11), np.zeros(11), ts[:11], np.ones(11)]))


def test_trajectory_at_breakpoint_is_left_endpoint_state():
    lam = 0.6
    basis = fundamental_solutions(STEP3, lam)
    for b in (0.4, 1.1):
        left = fundamental_solutions(STEP3.restrict(b), lam)
        want = [left.y1_end, left.y1p_end, left.y2_end, left.y2p_end]
        assert np.array_equal(basis.trajectory(b), want)


def test_endpoint_scan_exact_on_steps():
    lams = np.linspace(-3.0, 40.0, 12)
    scan = endpoint_scan(STEP3, lams, accuracy=1e-9)
    for j, lam in enumerate(lams):
        basis = fundamental_solutions(STEP3, float(lam))
        exact = np.array([basis.y1_end, basis.y1p_end, basis.y2_end, basis.y2p_end])
        assert np.max(np.abs(scan[:, j] - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))
    assert np.array_equal(endpoint_scan(STEP3, lams, accuracy=1e-4), scan)


def test_mixed_pieces_against_fixed_step_reference(monkeypatch):
    # a constant piece, a cosine piece and a mirrored constant piece: only
    # the cosine takes Magnus steps
    p = Potential.from_descriptor({"T": 2.0, "pieces": [
        {"from": 0.0, "to": 0.7, "kind": "const", "value": -0.8},
        {"from": 0.7, "to": 1.6, "kind": "cos", "c0": 0.2, "c1": 1.3, "omega": 2.0, "phi": 0.4},
        {"from": 1.6, "to": 2.0, "kind": "mirror", "center": 1.0,
         "of": {"kind": "const", "value": 1.7}},
    ]})
    calls = []

    def counting(p, t0, t1, *args):
        calls.append((t0, t1))
        return kernel_steps(p, t0, t1, *args)

    kernel_steps = integrator._kernel_steps
    monkeypatch.setattr(integrator, "_kernel_steps", counting)
    integrator.clear_cache()
    for lam in (-1.5, 0.9, 6.0):
        basis = fundamental_solutions(p, lam, tol=1e-12)
        got = np.array([basis.y1_end, basis.y1p_end, basis.y2_end, basis.y2p_end])
        assert np.max(np.abs(got - rk4_reference(p, lam, 2.0))) < 1e-8
    assert calls == [(0.7, 1.6)] * 3


def test_endpoint_scan_refuses_too_many_steps():
    with pytest.raises(IntegrationError, match="cannot certify accuracy"):
        endpoint_scan(Potential.cosine(math.pi), [1e12], accuracy=1e-9)
    with pytest.raises(IntegrationError, match="cannot certify accuracy"):
        endpoint_scan(Potential.cosine(math.pi), [1e300])
    # constant pieces are exact at any lambda
    out = endpoint_scan(STEP3, [1e12], accuracy=1e-9)
    assert np.all(np.isfinite(out))


def test_endpoint_scan_refuses_at_the_step_cap(monkeypatch):
    # smooth segments that need more steps than the cap allows: the message
    # names the cap and the estimate of the last level, a finite number
    monkeypatch.setattr(integrator, "_MAX_STEPS", 64)
    with pytest.raises(IntegrationError) as info:
        endpoint_scan(load_builtin("ex4").even_extension(), np.linspace(0.0, 50.0, 11),
                      accuracy=1e-12)
    found = re.search(r"within 64 Magnus steps \(estimated error (\S+) at 32 steps\)",
                      str(info.value))
    assert found and 1e-12 < float(found.group(1)) < math.inf


# a constant piece, a cosine piece and a mirrored constant piece
MIXED = Potential.from_descriptor({"T": 2.0, "pieces": [
    {"from": 0.0, "to": 0.7, "kind": "const", "value": -0.8},
    {"from": 0.7, "to": 1.6, "kind": "cos", "c0": 0.2, "c1": 1.3, "omega": 2.0, "phi": 0.4},
    {"from": 1.6, "to": 2.0, "kind": "mirror", "center": 1.0,
     "of": {"kind": "const", "value": 1.7}},
]})


def table_potential(order):
    return Potential.from_descriptor({"T": 2.0, "pieces": [
        {"from": 0.0, "to": 2.0, "kind": "table", "x": np.linspace(0.0, 2.0, 6).tolist(),
         "y": [0.0, 3.0, -2.0, 4.0, 0.5, 1.0], "order": order}]})


@functools.lru_cache(maxsize=None)
def dense_end(p, lam, tol):
    """The state at the end of the domain by ``dense_reference``: DOP853, so that
    the scan, of Magnus steps, is not checked against Magnus steps."""
    return dense_reference(p, lam, np.array([p.domain_length]), tol)[0][:, 0]


def endpoint_states(p, lams, tol):
    return np.array([dense_end(p, float(lam), tol) for lam in lams]).T


def scan_error(p, lams, accuracy, tol):
    """Worst error of the scan over lambdas, in units of accuracy * max(1, |Y|)."""
    want = endpoint_states(p, lams, tol)
    got = endpoint_scan(p, lams, accuracy=accuracy)
    scale = accuracy * np.maximum(1.0, np.max(np.abs(want), axis=0))
    return float(np.max(np.max(np.abs(got - want), axis=0) / scale))


@pytest.mark.parametrize("accuracy", [1e-6, 1e-9])
@pytest.mark.parametrize("order", [1, 3])
def test_endpoint_scan_splits_at_table_nodes(order, accuracy):
    # the table is not smooth at its nodes: steps must not straddle them
    p = table_potential(order)
    ext = p.even_extension()
    lams = np.array([-2.0, 0.0, 3.0, 17.0, 60.0, 400.0])
    # one batch, and each lambda alone: a batch's step count follows its
    # largest lambda
    for batch in (lams, *lams[:, None]):
        assert scan_error(p, batch, accuracy, 1e-14) <= 1.0
        assert scan_error(ext, batch, accuracy, 1e-14) <= 1.0
    # the mirrored half has its nodes at 4 - x
    nodes = np.linspace(0.0, 2.0, 6)
    edges = integrator._segments(ext)[0]
    assert np.allclose(edges, np.union1d(nodes, 4.0 - nodes), rtol=0, atol=1e-12)


def neumann_root_near(p, lam):
    """A root of y1'(L) above lam, interpolated on 400 points over one root spacing."""
    grid = np.linspace(lam, lam + 2.0 * math.pi * math.sqrt(lam) / p.domain_length, 400)
    y1p = endpoint_scan(p, grid, accuracy=1e-9)[1]
    k = int(np.flatnonzero(np.sign(y1p[:-1]) != np.sign(y1p[1:]))[0])
    return grid[k] + (grid[k + 1] - grid[k]) * y1p[k] / (y1p[k] - y1p[k + 1])


@pytest.mark.parametrize("accuracy", [1e-6, 1e-9])
@pytest.mark.parametrize("name", ["ex3", "ex4", "mixed"])
def test_endpoint_scan_meets_accuracy(name, accuracy):
    p = MIXED if name == "mixed" else load_builtin(name).even_extension()
    lams = np.concatenate([np.linspace(-2.0, 20.0, 12), [100.0, 1e3, 1e4]])
    # where y1'(L) = 0, |Y| is about 1 while y1' carries omega times the
    # phase error: the hardest place for the relative bound
    lams = np.append(lams, neumann_root_near(p, 9e3))
    assert scan_error(p, lams, accuracy, 1e-13) <= 1.0


def test_endpoint_scan_work_flat_in_lambda(monkeypatch):
    # n grows only through the omega in the accuracy share and, at large
    # lambda h^2, through order 6's nested commutators: a scan up to 1e4
    # evaluates the potential at most 20,071 times and one up to 20 at most
    # 10,167 times, the counts of the Magnus-4 scan (RK4 grows about 47 times)
    p = load_builtin("ex3").even_extension()
    points = []
    plain = Potential.eval

    def counting(self, t):
        points.append(np.size(t))
        return plain(self, t)

    monkeypatch.setattr(Potential, "eval", counting)
    work = []
    for hi in (20.0, 1e4):
        points.clear()
        endpoint_scan(p, np.linspace(0.0, hi, 201), accuracy=1e-9)
        work.append(sum(points))
    assert work[0] <= 10167 and work[1] <= 20071


# a constant piece and a cosine piece steep enough that at lambda = 1e8 the
# coarsest Magnus level's commutator term outgrows h^2 lambda and cosh overflows
CONST_COS = Potential.from_descriptor({"T": 3.0, "pieces": [
    {"from": 0.0, "to": 0.5, "kind": "const", "value": 2.0},
    {"from": 0.5, "to": 3.0, "kind": "cos", "c0": 0.5, "c1": 3.0, "omega": 2.0, "phi": 0.3},
]})


@pytest.mark.parametrize("name,lam", [("ex3", 0.0), ("ex3", 400.0), ("ex4", 50.0),
                                      ("ex4", 1e8), ("const_cos", 1e8)])
def test_ladder_levels_in_one_pass_equal_each_level_alone(name, lam):
    # every level of the one-pass ladder, bit for bit, on each smooth segment,
    # including the non-finite matrices of overflowing coarse levels
    p = CONST_COS if name == "const_cos" else load_builtin(name).even_extension()
    probes = np.unique(np.concatenate([np.linspace(0.9, 1.1, 7) * lam, [-1.0, 0.5, 3.0]]))
    counts = [8, 16, 32, 64, 128, 256]
    edges, consts = integrator._segments(p)
    overflowed = False
    for t0, t1, const in zip(edges, edges[1:], consts):
        if const is not None:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            nodes, transfers = integrator._magnus_levels(p, t0, t1, counts, probes)
            assert len(nodes) == len(transfers) == len(counts)
            for n, level, got in zip(counts, nodes, transfers):
                alone = integrator._magnus_nodes(p, t0, t1, n)
                want = integrator._magnus_transfer(*alone, probes)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(level, alone))
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()
                overflowed |= not np.all(np.isfinite(want))
    assert overflowed == (lam == 1e8)


def test_ladder_evaluates_the_potential_at_most_three_times(monkeypatch):
    # one evaluation for the ladder's scale, one for all its levels up to 256
    # steps and one for the chosen grids, on every segment whose ladder stops
    # there; each level on its own would take one per level
    ladders, evals, formed = [], [0], []
    plain_eval, plain_nodes, plain_grid = Potential.eval, integrator._magnus_nodes, \
        integrator._magnus_grid

    def counting_eval(self, t):
        evals[0] += 1
        return plain_eval(self, t)

    def counting_nodes(p, t0, t1, *counts):
        formed.extend(counts)
        return plain_nodes(p, t0, t1, *counts)

    def counting_grid(*args):
        evals[0] = 0
        formed.clear()
        grids = plain_grid(*args)
        ladders.append((evals[0], max(formed)))
        return grids

    monkeypatch.setattr(Potential, "eval", counting_eval)
    monkeypatch.setattr(integrator, "_magnus_nodes", counting_nodes)
    monkeypatch.setattr(integrator, "_magnus_grid", counting_grid)
    for p in (load_builtin("ex3").even_extension(), load_builtin("ex4"), MIXED):
        for accuracy in (1e-6, 1e-9):
            endpoint_scan(p, np.linspace(-2.0, 60.0, 40), accuracy=accuracy)
    low = [calls for calls, top in ladders if top <= 256]
    assert len(low) >= 6 and max(low) <= 3


def test_scan_step_is_sixth_order():
    # n equal steps over the even extension, n/2 on each half: against a
    # 16384-step reference the error falls 64 times per doubling of n
    # (Magnus-4: 16 times)
    p = load_builtin("ex4").even_extension()
    edges = integrator._segments(p)[0]
    lams = np.array([0.5, 40.0, 400.0])

    def transfer(n):
        first, second = (integrator._magnus_transfer(*integrator._magnus_nodes(p, t0, t1, n // 2),
                                                     lams) for t0, t1 in zip(edges, edges[1:]))
        return integrator._matmul(second, first).reshape(4, -1)

    ref = transfer(16384)
    errs = [np.max(np.abs(transfer(n) - ref), axis=0) for n in (50, 100, 200)]
    assert np.all(errs[0] >= 40.0 * errs[1]) and np.all(errs[1] >= 40.0 * errs[2])


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
    out = endpoint_scan(cos_pi.restrict(1.0), lams)
    assert out.shape == (4, 3)
    with pytest.raises(ValueError):
        cos_pi.restrict(10.0)


@pytest.mark.parametrize("accuracy", [math.nan, math.inf, 0.0, -1e-9, 10.0])
def test_endpoint_scan_rejects_bad_accuracy(cos_pi, accuracy):
    # refused before any stepping: nan would double the step count up to the
    # cap, and an accuracy above TOL_MAX certifies nothing
    with pytest.raises(ValueError, match=re.escape(f"accuracy {accuracy} outside")):
        endpoint_scan(cos_pi, [0.0, 1.0], accuracy=accuracy)


def test_tolerance_validation(zero1):
    with pytest.raises(ValueError):
        fundamental_solutions(zero1, 0.0, tol=1e-20)
    with pytest.raises(ValueError):
        fundamental_solutions(zero1, 0.0, tol=1.0)


def test_cache_returns_identical_object(cos_pi):
    a = fundamental_solutions(cos_pi, 0.25)
    b = fundamental_solutions(cos_pi, 0.25)
    assert a is b


def test_threads_missing_one_basis_get_one_object(cos_pi, monkeypatch):
    # both threads integrate, and both get the basis stored first
    integrator.clear_cache()
    both_in = threading.Barrier(2, timeout=60)
    original = integrator._segments

    def segments(p):
        both_in.wait()
        return original(p)

    monkeypatch.setattr(integrator, "_segments", segments)
    got = {}

    def work(k):
        got[k] = fundamental_solutions(cos_pi, 0.77)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(got) == 2 and got[0] is got[1]
    assert fundamental_solutions(cos_pi, 0.77) is got[0]


def test_node_states_memo(cos_pi, trajectory_calls, monkeypatch):
    # node states live in the kernel workspace, one per (p, lambda, tol, n)
    def node_states(pieces):
        return greens._kernel_cache(cos_pi, pieces, 0.31, DEFAULT_TOL).base[1]

    basis = fundamental_solutions(cos_pi, 0.31)
    states = node_states(40)
    assert np.array_equal(states, basis.trajectory(np.linspace(0.0, math.pi, 41)))
    assert not states.flags.writeable
    trajectory_calls.clear()
    assert node_states(40) is states and trajectory_calls == []
    assert list(integrator._WORKSPACES) == [(cos_pi, 0.31, DEFAULT_TOL, 40)]
    # at most _CACHE_MAX workspaces, the least recently used dropped
    monkeypatch.setattr(integrator, "_CACHE_MAX", 4)
    for pieces in range(1, 5):
        node_states(pieces)
    trajectory_calls.clear()
    node_states(40)
    assert trajectory_calls == [41]
    # a grid beyond _NODE_STATES nodes is evaluated on every call
    big = integrator._NODE_STATES
    node_states(big)
    node_states(big)
    assert trajectory_calls[-2:] == [big + 1, big + 1]
    assert len(integrator._WORKSPACES) == 4
    assert all(key[3] + 1 <= integrator._NODE_STATES for key in integrator._WORKSPACES)
    # clear_cache empties the workspace cache with the bases
    integrator.clear_cache()
    assert not integrator._WORKSPACES and not integrator._CACHE


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-4.0, max_value=25.0),
       st.floats(min_value=-1.0, max_value=1.0))
def test_wronskian_property(lam, amp):
    p = Potential.cosine(2.0, c0=0.0, c1=amp, omega=1.7)
    basis = fundamental_solutions(p, lam, tol=1e-10)
    ts = np.linspace(0.0, 2.0, 13)
    assert np.max(np.abs(basis.wronskian(ts) - 1.0)) < 1e-8


# -- the Magnus basis of kernels and solve_bvp -----------------------------------

@functools.lru_cache(maxsize=None)
def ivp_node_states(name, lam, nodes=61, even=False):
    """(y1, y1', y2, y2') of ex3 or ex4, or of its even extension, at ``nodes``
    equal nodes, by DOP853 at rtol 1e-13 with steps of at most a twentieth over
    sqrt(|lambda| + 2). Both potentials are smooth across the extension's middle."""
    p = load_builtin(name).even_extension() if even else load_builtin(name)
    L = p.domain_length

    def rhs(t, y):
        q = p.eval(min(t, L)) + lam
        return (y[1], -q * y[0], y[3], -q * y[2])

    res = solve_ivp(rhs, (0.0, L), [1.0, 0.0, 0.0, 1.0], method="DOP853", rtol=1e-13,
                    atol=1e-16, t_eval=np.linspace(0.0, L, nodes),
                    max_step=0.05 / math.sqrt(abs(lam) + 2.0))
    return res.y


@pytest.mark.parametrize("tol", [1e-10, 1e-12, integrator.TOL_MIN])
@pytest.mark.parametrize("lam", [-3.0, 0.5, 10.0, 300.0, 1e4])
@pytest.mark.parametrize("name", ["ex3", "ex4"])
def test_kernel_basis_as_accurate_as_dop853(name, lam, tol):
    # the basis's node states are within max(tol, the error of an adaptive
    # DOP853 solve at the same tol), each relative to max(1, |y|); its steps
    # are det 1 to rounding, so its Wronskian is 1 to rounding of y1 y2' - y1' y2
    p = load_builtin(name)
    ts = np.linspace(0.0, p.domain_length, 61)
    want = ivp_node_states(name, lam)

    def error(y):
        return float(np.max(np.abs(y - want) / np.maximum(1.0, np.abs(want))))

    dop853 = error(dense_reference(p, lam, ts, tol)[0])
    basis = fundamental_solutions(p, lam, tol=tol)
    assert error(basis.trajectory(ts)) <= max(tol, dop853)
    y = basis.trajectory(ts)
    assert np.all(np.abs(basis.wronskian(ts) - 1.0)
                  <= 1e-13 * (np.abs(y[0] * y[3]) + np.abs(y[1] * y[2])))


def test_kernel_basis_refuses_past_the_step_cap(monkeypatch):
    # a tolerance no step count under the cap meets is refused, naming both
    monkeypatch.setattr(integrator, "_MAX_STEPS", 64)
    integrator.clear_cache()
    with pytest.raises(IntegrationError, match="64 Magnus steps do not meet tolerance 1e-14"):
        fundamental_solutions(load_builtin("ex3"), 0.5, tol=integrator.TOL_MIN)


@pytest.mark.parametrize("name", ["ex3", "ex4"])
def test_basis_end_state_meets_tol_at_large_lambda(name):
    # about a hundred oscillations over the even extension at lambda = 1e4: the
    # end state is within tol of a small-step DOP853 solve, each entry relative
    # to max(1, |y|); an adaptive DOP853 basis at the same tol misses by 5e-8
    lam, tol = 1e4, 1e-10
    basis = fundamental_solutions(load_builtin(name).even_extension(), lam, tol=tol)
    want = ivp_node_states(name, lam, even=True)[:, -1]
    got = np.array([basis.y1_end, basis.y1p_end, basis.y2_end, basis.y2p_end])
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= tol


def test_kernel_path_calls_no_solve_ivp(monkeypatch):
    # the basis, the discriminant, kernels, their values, BVP solutions and
    # band intervals take Magnus steps; only the Dirichlet oscillation audit
    # integrates by DOP853
    calls = []
    original = integrator.solve_ivp
    monkeypatch.setattr(integrator, "solve_ivp",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    integrator.clear_cache()
    p = load_builtin("ex3")
    fundamental_solutions(p, 0.37)
    discriminant(p, 0.52)
    build_green(p, 0.37, "P", n=30)
    kernel_value(p, 0.37, "D", 0.4, 1.1)
    u = solve_bvp(p, 0.37, "N", lambda t: 1.0 + np.sin(t), n=30)
    u(0.3)
    u.derivative(np.linspace(0.0, 1.0, 5))
    stability_intervals(p, search_range=(-1.0, 5.0))
    assert calls == []
    find_eigenvalues(p, "D", max_count=1)
    assert calls


# -- the piece table behind trajectory, and the audit's DOP853 reference ---------

def dense_reference(p, lam, t, tol=TOL):
    """States at t from a fresh DOP853 integration, independent of the library's steps.

    Each segment is integrated by scipy's DOP853 with dense output at
    rtol = max(tol/10, 1e-13) and atol = max(tol * 1e-3, 1e-15), and read
    through its ``OdeSolution``; a constant segment is read by the exact
    step from its start. A point is read on the last segment starting at or
    before it. Also returns the interior DOP853 step ends and the start state
    of the step after each.
    """
    edges, consts = integrator._segments(p)
    L = p.domain_length
    rtol, atol = max(tol / 10.0, 1e-13), max(tol * 1e-3, 1e-15)
    seg = np.minimum(np.searchsorted(edges, t, side="right") - 1, len(consts) - 1)
    out = np.empty((4, t.size))
    ends, after = [], []
    y = np.array([1.0, 0.0, 0.0, 1.0])
    for k, (t0, t1, const) in enumerate(zip(edges, edges[1:], consts)):
        here = seg == k
        if const is not None:
            out[:, here] = integrator._exact_step(y, const + lam, t[here] - t0)
            y = integrator._exact_step(y, const + lam, t1 - t0)
            continue
        back = t1 - 1e-12 * (1.0 + L)

        def rhs(s, z, _b=back):
            q = p.eval(min(s, _b)) + lam
            return (z[1], -q * z[0], z[3], -q * z[2])

        res = solve_ivp(rhs, (t0, t1), y, method="DOP853", dense_output=True,
                        rtol=rtol, atol=atol)
        if here.any():
            out[:, here] = res.sol(t[here])
        ends.extend(res.t[1:-1])
        after.extend(s.y_old for s in res.sol.interpolants[1:])
        y = res.y[:, -1]
    return out, np.array(ends), np.array(after).reshape(-1, 4).T


TABLE_CASES = {"ex1": load_builtin("ex1"), "ex2": load_builtin("ex2"),
               "ex3": load_builtin("ex3"), "ex4": load_builtin("ex4"),
               "mixed": MIXED, "table3": table_potential(3)}


@pytest.mark.parametrize("lam", [-3.0, 0.4, 300.0])
@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_piece_table_matches_dense_output_bit_for_bit(name, lam):
    # the Dirichlet audit's DOP853 states, against OdeSolution's dense output
    p = TABLE_CASES[name]
    L = p.domain_length
    edges = integrator._segments(p)[0]
    _, ends, after = dense_reference(p, lam, np.empty(0))
    ts = np.concatenate([np.linspace(0.0, L, 1001),
                         np.random.default_rng(19).uniform(0.0, L, 500), edges, ends])
    want = dense_reference(p, lam, ts)[0]
    assert np.array_equal(integrator._audit_states(p, lam, TOL, ts), want)
    # at a step end OdeSolution reads the earlier step at x = 1;
    # y_old + (y - y_old) rounds back to y, the state the integration carried there
    assert np.array_equal(integrator._audit_states(p, lam, TOL, ends), after)
    # within the slack the basis reads the ends; beyond it the point is refused
    basis = fundamental_solutions(p, lam, tol=TOL)
    slack = 1e-12 * (1.0 + L)
    assert np.array_equal(basis.trajectory([-0.5 * slack, L + 0.5 * slack]),
                          basis.trajectory([0.0, L]))
    for bad in (-2.0 * slack, L + 2.0 * slack):
        with pytest.raises(DomainError):
            basis.trajectory(bad)


@pytest.mark.parametrize("p", [STEP3, table_potential(1), MIXED], ids=["const", "dop853", "mixed"])
def test_trajectory_keeps_the_shape_of_t(p):
    basis = fundamental_solutions(p, 0.7)
    L = p.domain_length
    ts = np.linspace(0.0, L, 12).reshape(3, 4)
    got = basis.trajectory(ts)
    assert got.shape == (4, 3, 4)
    assert np.array_equal(got, basis.trajectory(ts.ravel()).reshape(4, 3, 4))
    assert basis.trajectory([]).shape == (4, 0)
    assert basis.trajectory(0.3 * L).shape == (4,)
    assert np.array_equal(basis.trajectory(0.3 * L), basis.trajectory([0.3 * L])[:, 0])


@pytest.mark.parametrize("name", ["mixed", "ex3", "ex4"])
def test_scalar_calls_equal_one_array_call(name):
    # a scalar u(t) or u'(t) is read by a separate reader that repeats the array
    # arithmetic operation for operation, so it has no rounding of its own
    p = MIXED if name == "mixed" else load_builtin(name)
    L = p.domain_length
    ts = np.concatenate([np.linspace(0.0, L, 7), integrator._segments(p)[0],
                         np.random.default_rng(3).uniform(0.0, L, 6)])
    basis = fundamental_solutions(p, 0.4)
    assert np.array_equal(np.array([basis.trajectory(t) for t in ts]).T, basis.trajectory(ts))
    for bc in ("P", "A", "N", "D", "M1", "M2"):
        u = solve_bvp(p, 0.4, bc, lambda t: 1.0 + np.sin(2.0 * t), n=40)
        assert np.array_equal([u(t) for t in ts], u(ts))
        assert np.array_equal([u.derivative(t) for t in ts], u.derivative(ts))
        assert np.array_equal(u(u.grid), u.values)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


_SCALAR_POTENTIALS = st.one_of(
    st.sampled_from(["ex1", "ex2", "ex3", "ex4"]).map(load_builtin),
    st.tuples(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4),
              st.floats(0.5, 2.5)).map(
        lambda vl: Potential.piecewise_constant(
            np.linspace(0.0, vl[1], len(vl[0]) + 1), vl[0])),
    st.tuples(st.floats(0.5, 3.0), st.floats(-1.0, 1.0), st.floats(0.2, 2.0),
              st.floats(0.5, 3.0)).map(
        lambda c: Potential.cosine(c[0], c0=c[1], c1=c[2], omega=c[3])))


@settings(max_examples=50, deadline=None)
@given(_SCALAR_POTENTIALS, st.floats(-20.0, 60.0),
       st.sampled_from(["P", "A", "N", "D", "M1", "M2"]), st.integers(0, 2**32 - 1))
@example(Potential.constant(0.7, 2.0), -0.7, "D", 1)  # a + lambda = 0: the w2 == 0 branch
@example(Potential.constant(0.7, 2.0), -5.0, "N", 2)  # a + lambda < 0: cosh and sinh
@example(STEP3, 2.0, "M1", 3)  # q = 3, 0 and -2 on its three pieces
@example(MIXED, 0.4, "P", 4)  # constant, Magnus and mirrored constant rows
@example(load_builtin("ex3"), -7.5, "A", 5)
@example(load_builtin("ex4"), 41.0, "N", 6)
def test_scalar_reads_equal_array_reads_bit_for_bit(p, lam, bc, seed):
    # the basis that kernels and solve_bvp read
    L = p.domain_length
    slack = 1e-12 * (1.0 + L)
    rng = np.random.default_rng(seed)
    basis = fundamental_solutions(p, lam)
    ts = np.concatenate([rng.uniform(0.0, L, 8), basis._pieces.starts, basis._edges,
                         [0.0, -0.0, L], -slack * rng.uniform(0.0, 1.0, 2),
                         L + slack * rng.uniform(0.0, 1.0, 2)])
    points = [basis._pieces.point(integrator._on_domain(float(t), L)) for t in ts]
    assert np.array_equal(_bits(points), _bits(basis.trajectory(ts).T))
    try:
        u = solve_bvp(p, lam, bc, lambda t: 1.0 + np.sin(2.0 * t), n=30)
    except ResonanceError:
        return
    assert np.array_equal(_bits([u(t) for t in ts]), _bits(u(ts)))
    assert np.array_equal(_bits([u.derivative(t) for t in ts]), _bits(u.derivative(ts)))


def test_scalar_reads_raise_like_arrays_before_sigma():
    calls = []

    def sigma(t):
        calls.append(np.size(t))
        return 1.0 + np.sin(t)

    # every point reader takes the one domain rule, potential.eval's included,
    # and words a refused point the same way; the two-point readers take
    # scalars, so they get the point as a float, a NumPy float and a 0-d array
    u = solve_bvp(MIXED, 0.4, "D", sigma, n=20)
    calls.clear()
    L = MIXED.domain_length
    slack = 1e-12 * (1.0 + L)
    G = build_green(MIXED, 0.4, "D", n=20)
    closed = closed_form_constant(1.3, L, "D", n=20)
    reads = (MIXED.eval, u, u.derivative, fundamental_solutions(MIXED, 0.4).trajectory)
    pair_reads = (G.value, closed.value, lambda t, s: kernel_value(MIXED, 0.4, "D", t, s))
    for bad in (math.nan, math.inf, -math.inf, -2.0 * slack, L + 2.0 * slack):
        want = f"t={bad} outside [0, {L}]"
        for read in reads:
            for arg in (bad, np.array([bad])):
                with pytest.raises(DomainError) as info:
                    read(arg)
                assert str(info.value) == want
        for read in pair_reads:
            for arg in (bad, np.float64(bad), np.array(bad)):
                for t, s in ((arg, 0.3), (0.3, arg)):
                    with pytest.raises(DomainError) as info:
                        read(t, s)
                    assert str(info.value) == want
    assert calls == []
    # within the slack every reader reads the end, bit for bit: u and u' take
    # the end's states and run their sigma integral up to the end
    for near, end in ((-0.5 * slack, 0.0), (L + 0.5 * slack, L)):
        for read in reads:
            assert np.array_equal(read(near), read(end))
            assert np.array_equal(read(np.array([near])), read(np.array([end])))
        for read in pair_reads:
            assert read(near, 0.3) == read(end, 0.3) and read(0.3, near) == read(0.3, end)
    calls.clear()
    # a point inside takes one sigma call on t and its panel midpoint, as in an array
    u.derivative(0.3)
    assert calls == [2]


def test_scalar_reads_take_any_sigma_and_return_floats():
    p = load_builtin("ex3")
    L, n = p.domain_length, 20
    ts = np.concatenate([np.random.default_rng(4).uniform(0.0, L, 9), [0.0, L]])
    samples = np.cos(np.linspace(0.0, L, 4 * n + 1))
    for sigma in (math.sin, samples):
        u = solve_bvp(p, 0.4, "N", sigma, n=n)
        assert np.array_equal(_bits([u(t) for t in ts]), _bits(u(ts)))
        assert np.array_equal(_bits([u.derivative(t) for t in ts]), _bits(u.derivative(ts)))
    for t in (np.float32(0.3), np.float64(0.3), np.array(0.3), 0.3):
        assert type(u(t)) is float and type(u.derivative(t)) is float
        assert u(t) == u(np.atleast_1d(np.asarray(t, dtype=float)))[0]
