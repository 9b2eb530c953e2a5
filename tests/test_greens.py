import math
import tracemalloc

import numpy as np
import pytest

from hillgreen import (
    DEFAULT_TOL,
    BoundaryCondition,
    Potential,
    build_green,
    clear_cache,
    closed_form_constant,
    fundamental_solutions,
    kernel_value,
    load_builtin,
    solve_bvp,
    table_slice,
)
from hillgreen import greens
from hillgreen.errors import DomainError, PoleError, ResonanceError

from helpers import (boundary_residual, estimate_diagonal_jump, shooting_dirichlet,
                     sinh_dirichlet_kernel, step_bvp_reference)

ALL_BC = ("P", "A", "N", "D", "M1", "M2")


def trig_oracle(bc, m, L, t, s):
    """Hand-derived kernel of u'' + m^2 u = delta_s, written from scratch.

    Separated conditions use the one-sided-solution product over the
    Wronskian; coupled ones the |t-s| form. Unit jump in dG/dt at t=s.
    """
    lo, hi = min(t, s), max(t, s)
    if bc == "P":
        return math.cos(m * (abs(t - s) - 0.5 * L)) / (2.0 * m * math.sin(0.5 * m * L))
    if bc == "A":
        return math.sin(m * (abs(t - s) - 0.5 * L)) / (2.0 * m * math.cos(0.5 * m * L))
    if bc == "N":
        return math.cos(m * lo) * math.cos(m * (L - hi)) / (m * math.sin(m * L))
    if bc == "D":
        return -math.sin(m * lo) * math.sin(m * (L - hi)) / (m * math.sin(m * L))
    if bc == "M1":
        return -math.cos(m * lo) * math.sin(m * (L - hi)) / (m * math.cos(m * L))
    if bc == "M2":
        return -math.sin(m * lo) * math.cos(m * (L - hi)) / (m * math.cos(m * L))
    raise ValueError(bc)


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("bc", ALL_BC)
def test_constant_kernel_matches_hand_formula(zero1, m, bc):
    G = build_green(zero1, m * m, bc, n=40)
    C = G.combined()
    want = np.array([[trig_oracle(bc, m, 1.0, t, s) for s in G.grid] for t in G.grid])
    assert np.max(np.abs(C - want)) < 1e-9


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("bc", ALL_BC)
def test_closed_form_table_matches_hand_formula(m, bc):
    G = closed_form_constant(m, 1.0, bc, n=40)
    C = G.combined()
    want = np.array([[trig_oracle(bc, 1.0 * m, 1.0, t, s) for s in G.grid] for t in G.grid])
    assert np.max(np.abs(C - want)) < 1e-12


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("bc", ALL_BC)
def test_integrated_matches_closed_form(zero1, m, bc):
    # acceptance-style cross-check on a denser grid
    num = build_green(zero1, m * m, bc, n=100)
    ref = closed_form_constant(m, 1.0, bc, n=100)
    assert np.max(np.abs(num.combined() - ref.combined())) < 1e-8


def test_dirichlet_lambda_zero_limit(zero1):
    # at lambda = 0 the Dirichlet kernel of u'' = delta_s is -s(1-t) for s <= t
    G = build_green(zero1, 0.0, "D", n=30)
    for t in (0.2, 0.55, 0.9):
        for s in (0.1, 0.4):
            want = -min(t, s) * (1.0 - max(t, s))
            assert G.value(t, s) == pytest.approx(want, abs=1e-11)
            assert kernel_value(zero1, 0.0, "D", t, s) == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("bc,lam", [
    ("P", 0.0), ("N", 0.0), ("D", math.pi ** 2),
    ("M1", (math.pi / 2) ** 2), ("M2", (math.pi / 2) ** 2),
    ("A", (math.pi) ** 2),  # first antiperiodic eigenvalue of a==0 on [0,1]
])
def test_resonant_lambda_raises(zero1, bc, lam):
    with pytest.raises(ResonanceError):
        build_green(zero1, lam, bc, n=8)


def test_closed_form_pole():
    with pytest.raises(PoleError):
        closed_form_constant(math.pi, 1.0, "D")
    with pytest.raises(ValueError):
        closed_form_constant(-1.0, 1.0, "D")
    with pytest.raises(ValueError, match="n must be at least 1, got 0"):
        closed_form_constant(1.0, 1.0, "D", n=0)


@pytest.mark.parametrize("name,lam", [
    ("pw2", 0.3), ("cos_pi", 0.2), ("cos2_pi", 1.1), ("cos2_pi", -0.6),
])
@pytest.mark.parametrize("bc", ALL_BC)
def test_symmetry(request, name, lam, bc):
    p = request.getfixturevalue(name)
    G = build_green(p, lam, bc, n=60)
    assert G.symmetry_error() < 1e-8


@pytest.mark.parametrize("bc", ALL_BC)
def test_diagonal_jump_is_one(cos_pi, bc):
    G = build_green(cos_pi, 0.4, bc, n=40)
    jumps = estimate_diagonal_jump(G)
    assert np.max(np.abs(jumps - 1.0)) < 1e-6


@pytest.mark.parametrize("bc", ALL_BC)
def test_boundary_residual(pw2, bc):
    G = build_green(pw2, 0.35, bc, n=40)
    assert boundary_residual(G) < 1e-9


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("bc", ALL_BC)
def test_closed_form_boundary_residual_and_jump(m, bc):
    # the residual reads the closed form's dG/dt branches at both ends
    G = closed_form_constant(m, 1.0, bc, n=40)
    assert boundary_residual(G) < 1e-12
    assert np.max(np.abs(estimate_diagonal_jump(G) - 1.0)) < 1e-6


def test_antiperiodic_kernel_symmetric_to_rounding():
    p = load_builtin("ex3")
    G = build_green(p, 2.0, "A", n=40)
    rows = greens._kernel_cache(p, 40, 2.0, DEFAULT_TOL).row_max
    assert G.symmetry_error() <= 16 * math.ulp(1.0) * rows * np.linalg.norm(G.branches.k_up)


def test_combined_picks_branches(zero1):
    G = build_green(zero1, 0.25, "D", n=10)
    C = G.combined()
    # below the diagonal the combined table equals the lower branch
    assert C[7, 2] == G.lower[7, 2]
    assert C[2, 7] == G.upper[2, 7]
    # diagonal belongs to the lower branch and both agree there
    assert C[5, 5] == G.lower[5, 5]
    assert abs(G.lower[5, 5] - G.upper[5, 5]) < 1e-12


def test_table_slice_node_exact(cos_pi):
    G = build_green(cos_pi, 0.3, "N", n=24)
    idx = np.arange(G.n + 1)
    full = table_slice(G, idx, idx)
    assert np.array_equal(full, G.combined())
    rev = table_slice(G, idx[::-1], idx)
    assert np.allclose(rev, G.combined()[::-1, :], atol=0)


def test_branch_select_matches_mask_select(cos_pi):
    # combined, table_slice and the factor blocks pick each entry's branch
    # by node index; a factor block on one side forms one branch only
    G = build_green(cos_pi, 0.3, "D", n=24)
    idx = np.arange(G.n + 1)
    want = np.where(idx[None, :] <= idx[:, None], G.lower, G.upper)
    C = G.combined()
    assert np.array_equal(C, want)
    with pytest.raises(ValueError):
        C[:] = 0.0
    assert np.array_equal(G.combined(), want)
    for t_idx, s_idx in ((idx[10:], idx[:5]), (idx[:5], idx[10:]), (idx[::-3], idx[3:20]),
                         (idx[:0], idx)):
        ref = np.where(s_idx[None, :] <= t_idx[:, None],
                       G.lower[np.ix_(t_idx, s_idx)], G.upper[np.ix_(t_idx, s_idx)])
        assert np.array_equal(table_slice(G, t_idx, s_idx), ref)
        states = greens._kernel_cache(cos_pi, G.n, G.lam, DEFAULT_TOL).base[1]
        A, B = greens._factors(states[:, t_idx], states[:, s_idx])
        block = greens._node_block(A.T @ G.branches.k_low, A.T @ G.branches.k_up, B,
                                   t_idx, s_idx)
        assert np.allclose(block, ref, rtol=1e-12, atol=1e-12)


def test_build_green_one_trajectory(cos_pi, trajectory_calls):
    G = build_green(cos_pi, 0.3, "P", n=24)
    assert trajectory_calls == [25]
    # the shared states give the tables of two separate evaluations
    lower, upper = G.branches.tables(G.grid, G.grid.copy())
    assert np.array_equal(G.lower, lower)
    assert np.array_equal(G.upper, upper)


def test_build_green_forms_one_table(cos_pi):
    # with the workspace warm, build_green and combined() hold one (n+1)^2
    # table at their peak; two whole-square branch tables would be two
    n = 300
    build_green(cos_pi, 0.3, "N", n=n)
    tracemalloc.start()
    try:
        G = build_green(cos_pi, 0.3, "D", n=n)
        G.combined()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * G.table.nbytes


@pytest.mark.parametrize("bc", ALL_BC)
def test_branch_tables_formed_on_first_read(cos_pi, bc, trajectory_calls):
    # lower and upper are formed on first read, then kept: each equals its
    # branch's product over the workspace's node states, bit for bit
    G = build_green(cos_pi, 0.3, bc, n=24)
    assert trajectory_calls == [25]
    states = greens._kernel_cache(cos_pi, 24, 0.3, DEFAULT_TOL).base[1]
    A, B = greens._factors(states, states)
    lower, upper = G.lower, G.upper
    assert trajectory_calls == [25, 25, 25]
    for got, k in ((lower, G.branches.k_low), (upper, G.branches.k_up)):
        assert got.tobytes() == (A.T @ k @ B).tobytes()
    assert G.lower is lower and G.upper is upper and trajectory_calls == [25, 25, 25]
    idx = np.arange(G.n + 1)
    assert G.table.tobytes() == np.where(idx[None, :] <= idx[:, None], lower, upper).tobytes()


@pytest.mark.parametrize("bc", ALL_BC)
def test_closed_form_branch_tables_formed_on_first_read(bc):
    G = closed_form_constant(1.7, 2.5, bc, n=30)
    assert "_branch_tables" not in vars(G)
    T, S = np.meshgrid(G.grid, G.grid, indexing="ij")
    lower, upper = G.lower, G.upper
    assert lower.tobytes() == G.branches._low(T, S).tobytes()
    assert upper.tobytes() == G.branches._up(T, S).tobytes()
    assert G.lower is lower and G.upper is upper
    assert G.table.tobytes() == np.where(S <= T, lower, upper).tobytes()


@pytest.mark.parametrize("bc", ALL_BC)
def test_closed_form_table_forms_one_branch(bc):
    # the lower branch over the square, its transpose above the diagonal: the
    # periodic cosines peak at two tables, the separated products at one and
    # a row; both branches over the whole square and a selection were three
    closed_form_constant(1.7, 2.5, bc, n=300)
    tracemalloc.start()
    try:
        G = closed_form_constant(1.7, 2.5, bc, n=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * G.table.nbytes


@pytest.mark.parametrize("make", [lambda p: build_green(p, 0.3, "M2", n=40),
                                  lambda p: closed_form_constant(0.9, 2.0, "P", n=40)],
                         ids=["integrated", "closed_form"])
def test_combined_is_the_stored_read_only_table(cos_pi, make):
    G = make(cos_pi)
    C = G.combined()
    assert C is G.combined() is G.table
    with pytest.raises(ValueError):
        C[3, 4] = 0.0
    assert np.array_equal(np.diagonal(C), G.diagonal())


@pytest.mark.parametrize("bc", ALL_BC)
def test_table_slice_selects_each_branch_by_node_index(cos_pi, bc):
    # a gather from the stored table picks each entry's branch as the whole
    # branch tables do, for random, reversed and repeated node indices
    G = build_green(cos_pi, 0.3, bc, n=70)
    rng = np.random.default_rng(28)
    idx = np.arange(G.n + 1)
    for t_idx, s_idx in ((rng.integers(0, G.n + 1, 40), rng.integers(0, G.n + 1, 33)),
                         (idx[::-1], idx), (idx, idx[::-1]),
                         (np.repeat(idx[::7], 3), np.tile(idx[60:], 2)),
                         (rng.permutation(idx), rng.permutation(idx))):
        ix = np.ix_(t_idx, s_idx)
        ref = np.where(s_idx[None, :] <= t_idx[:, None], G.lower[ix], G.upper[ix])
        assert table_slice(G, t_idx, s_idx).tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", ["ex3", "step"])
@pytest.mark.parametrize("bc", ALL_BC)
def test_value_reads_two_points_like_the_tables(name, bc, trajectory_calls):
    # G.value and kernel_value read two states by the one-point reader, with
    # no trajectory call, and equal the one-point tables bit for bit
    p = load_builtin("ex3") if name == "ex3" else \
        Potential.piecewise_constant([0.0, 0.7, 1.5, 2.0], [1.0, -0.5, 2.0])
    L, slack = p.domain_length, 1e-12 * (1.0 + p.domain_length)
    G = build_green(p, 0.3, bc, n=7)
    trajectory_calls.clear()
    pts = [0.0, -0.0, 0.3 * L, 0.5 * L, 0.77 * L, L, -0.5 * slack, L + 0.5 * slack]
    got = [(G.value(t, s), kernel_value(p, 0.3, bc, t, s)) for t in pts for s in pts]
    assert trajectory_calls == []
    for (t, s), (value, single) in zip([(t, s) for t in pts for s in pts], got):
        lower, upper = G.branches.tables([t], [s])
        want = float((lower if s <= t else upper)[0, 0])
        assert math.copysign(1.0, value) == math.copysign(1.0, want)
        assert value == want and single == want


def test_base_readers_derive_no_other_family(cos_pi):
    # build_green and the base kernels read the base alone; the extension,
    # doubled extension and reflected families are derived on first use, once
    clear_cache()
    build_green(cos_pi, 0.3, "N", n=24)
    cache = greens._kernel_cache(cos_pi, 24, 0.3, DEFAULT_TOL)
    cache.extrema("base", "D")
    cache.factors(np.arange(25), "base", "M1")
    assert cache._rest is None
    assert cache._family("base") is cache.base
    cache.extrema("even2", "P")
    derived = cache._rest
    assert list(derived[1]) == ["even2", "even4", "refl"]
    cache.extrema("refl", "D")
    assert cache.row_factors is derived[0] and cache._rest is derived


def test_to_csv_format(tmp_path, zero1):
    G = build_green(zero1, 0.25, "D", n=3)
    path = tmp_path / "kernel.csv"
    G.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,s,G"
    assert len(lines) == 1 + 4 * 4
    t, s, v = lines[1].split(",")
    assert float(t) == 0.0 and float(s) == 0.0
    # values round-trip exactly through repr
    assert float(v) == G.combined()[0, 0]


def test_value_matches_table(zero1):
    G = build_green(zero1, 2.0, "M1", n=16)
    C = G.combined()
    for i in (3, 9, 14):
        for j in (1, 9, 16):
            assert G.value(G.grid[i], G.grid[j]) == pytest.approx(C[i, j], abs=1e-14)


# -- boundary value solver ----------------------------------------------


def test_solve_bvp_dirichlet_parabola(zero1):
    # u'' = 1, u(0) = u(1) = 0 has u = t(t-1)/2
    u = solve_bvp(zero1, 0.0, "D", 1.0, n=80)
    want = u.grid * (u.grid - 1.0) / 2.0
    assert np.max(np.abs(u.values - want)) < 1e-10
    assert u(0.37) == pytest.approx(0.37 * (0.37 - 1.0) / 2.0, abs=1e-10)
    for t in (0.0, 0.37, 0.81, 1.0):
        assert u.derivative(t) == pytest.approx(t - 0.5, abs=1e-10)


def test_solve_bvp_neumann_constant(zero1):
    # u'' + u = 1 with u'(0) = u'(1) = 0 is solved by u == 1
    u = solve_bvp(zero1, 1.0, "N", lambda t: 1.0, n=80)
    assert np.max(np.abs(u.values - 1.0)) < 1e-9


def test_solve_bvp_periodic_forced_mode(zero1):
    # u'' + lam u = cos(2 pi t) with periodic ends:
    # u = cos(2 pi t) / (lam - 4 pi^2)
    lam = 3.0
    u = solve_bvp(zero1, lam, "P", lambda t: np.cos(2 * np.pi * t), n=120)
    want = np.cos(2 * np.pi * u.grid) / (lam - 4 * np.pi ** 2)
    assert np.max(np.abs(u.values - want)) < 1e-8


def test_solve_bvp_matches_shooting(cos_pi):
    # independent oracle: RK4 shooting on the inhomogeneous equation
    lam = 0.5
    sig = math.sin
    u = solve_bvp(cos_pi, lam, "D", sig, n=100)
    ts, ref = shooting_dirichlet(cos_pi, lam, sig, cos_pi.domain_length)
    ours = np.array([u(t) for t in ts[:: len(ts) // 50]])
    theirs = ref[:: len(ts) // 50]
    assert np.max(np.abs(ours - theirs)) < 1e-7


def test_solve_bvp_residual_and_bcs(pw2):
    lam = 0.8
    u = solve_bvp(pw2, lam, "M1", lambda t: np.sin(t), n=120)
    # finite-difference residual u'' + (a + lam) u - sigma away from the jump
    h = 1e-4
    for t in (0.31, 0.77, 1.42, 1.83):
        upp = (u(t + h) - 2.0 * u(t) + u(t - h)) / h ** 2
        res = upp + (pw2.eval(t) + lam) * u(t) - math.sin(t)
        assert abs(res) < 5e-5
    assert abs(u.derivative(0.0)) < 1e-8
    assert abs(u(2.0)) < 1e-8


def test_solve_bvp_array_sigma(zero1):
    n = 60
    squad = np.linspace(0.0, 1.0, 4 * n + 1)
    u_arr = solve_bvp(zero1, 0.0, "D", np.ones_like(squad), n=n)
    u_const = solve_bvp(zero1, 0.0, "D", 1.0, n=n)
    assert np.allclose(u_arr.values, u_const.values, atol=1e-14)


def test_bvp_solution_arrays_match_scalar_calls(cos_pi):
    u = solve_bvp(cos_pi, 0.5, "M2", lambda t: 1.0 + np.sin(3.0 * t), n=60)
    ts = np.array([[0.0, 0.4, 1.3], [2.2, 2.9, math.pi]])
    vals, slopes = u(ts), u.derivative(ts)
    assert vals.shape == slopes.shape == ts.shape
    assert np.array_equal(vals, [[u(t) for t in row] for row in ts])
    assert np.array_equal(slopes, [[u.derivative(t) for t in row] for row in ts])
    assert isinstance(u(0.4), float) and isinstance(u.derivative(0.4), float)
    # a point's value does not depend on the points that share its call
    long = np.linspace(0.0, math.pi, 600)
    idx = [0, 255, 256, 599]
    assert np.array_equal(u(long)[idx], [u(long[i]) for i in idx])


@pytest.mark.parametrize("bc", ["A", "D", "M1", "M2"])
def test_bvp_solution_at_nodes_matches_values(zero1, bc):
    # a == 0 and lambda = 0 give y1 = 1, y2 = t: with a quadratic forcing
    # every integrand is a cubic, which Simpson's rule integrates exactly,
    # so the node values and the off-grid evaluator must agree to rounding
    u = solve_bvp(zero1, 0.0, bc, lambda t: 1.0 + t - 2.0 * t * t, n=30)
    tol = 1e-12 * np.maximum(1.0, np.abs(u.values))
    assert np.all(np.abs(u(u.grid) - u.values) <= tol)


@pytest.mark.parametrize("bc", ALL_BC)
def test_bvp_solution_at_nodes_matches_values_on_cosine(cos_pi, bc):
    u = solve_bvp(cos_pi, 0.2, bc, np.sin, n=50)
    assert np.array_equal(u(u.grid), u.values)


@pytest.mark.parametrize("bc", ALL_BC)
def test_bvp_solution_off_grid_on_step_potential(bc):
    # the jumps at 0.25 and 0.6 lie on panel edges (multiples of L/200) at
    # n = 100, so every Simpson panel, partial ones included, is smooth
    breaks, values, lam = [0.0, 0.25, 0.6, 1.0], [1.0, -3.0, 4.0], 0.8

    def sigma(t):
        return 1.0 + np.sin(2.0 * t)

    u = solve_bvp(Potential.piecewise_constant(breaks, values), lam, bc, sigma, n=100)
    ts = np.random.default_rng(5).uniform(0.0, 1.0, 200)
    ref_u, ref_du = step_bvp_reference(breaks, values, lam, bc, sigma, ts)
    assert np.all(np.abs(u(ts) - ref_u) <= 1e-9 * np.maximum(1.0, np.abs(ref_u)))
    assert np.all(np.abs(u.derivative(ts) - ref_du) <= 1e-9 * np.maximum(1.0, np.abs(ref_du)))
    assert np.array_equal(u(u.grid), u.values)


@pytest.mark.parametrize("bc", ALL_BC)
def test_bvp_solution_with_jumps_inside_uniform_panels(bc):
    # 0.73 and 1.61 fall inside panels of the uniform 2.5/200 edges; as panel
    # edges of their own they keep Simpson's order (straddled, u is 2.3e-8 off)
    breaks, values, lam = [0.0, 0.73, 1.61, 2.5], [0.5, -1.2, 2.0], 0.8

    def sigma(t):
        return 1.0 + np.sin(2.0 * t)

    u = solve_bvp(Potential.piecewise_constant(breaks, values), lam, bc, sigma, n=100)
    ts = np.random.default_rng(5).uniform(0.0, 2.5, 200)
    ref_u, ref_du = step_bvp_reference(breaks, values, lam, bc, sigma, ts)
    assert np.all(np.abs(u(ts) - ref_u) <= 2e-9 * np.maximum(1.0, np.abs(ref_u)))
    assert np.all(np.abs(u.derivative(ts) - ref_du) <= 2e-9 * np.maximum(1.0, np.abs(ref_du)))


def test_bvp_breakpoint_on_uniform_edge_adds_no_panel():
    # 0.3 is uniform edge 6 of 20 up to rounding: no sliver panel next to it
    p = Potential.piecewise_constant([0.0, 0.3, 1.0], [1.0, -2.0])
    u = solve_bvp(p, 0.5, "D", 1.0, n=10)
    assert 0.3 in fundamental_solutions(p, 0.5)._edges
    assert u._edges.size == 21


def test_bvp_solution_outside_domain_raises(cos_pi):
    u = solve_bvp(cos_pi, 0.5, "D", 1.0, n=20)
    with pytest.raises(DomainError):
        u(-0.1)
    with pytest.raises(DomainError):
        u.derivative(math.pi + 0.1)
    with pytest.raises(DomainError):
        u(np.array([0.5, math.pi + 0.1]))


def test_closed_form_kernel_checks_its_domain():
    # the domain rule of an integrated kernel: off [0, 1], NaN included, is
    # refused; within rounding of an end the end is read
    G = closed_form_constant(1.3, 1.0, "N", n=10)
    for t, s in ((5.0, 0.2), (-3.0, 0.5), (math.nan, 0.2)):
        with pytest.raises(DomainError, match="outside"):
            G.value(t, s)
    assert G.value(1.0 + 1e-13, 0.2) == G.value(1.0, 0.2)
    assert G.value(0.3, -1e-13) == G.value(0.3, 0.0)


NAN_CALLS = {
    "potential_scalar": lambda p: p.eval(math.nan),
    "potential_array": lambda p: p.eval([0.1, math.nan]),
    "trajectory": lambda p: fundamental_solutions(p, 0.5).trajectory(math.nan),
    "trajectory_array": lambda p: fundamental_solutions(p, 0.5).trajectory([0.1, math.nan]),
    "bvp_value": lambda p: solve_bvp(p, 0.5, "D", 1.0, n=20)(math.nan),
    "bvp_derivative": lambda p: solve_bvp(p, 0.5, "D", 1.0, n=20).derivative([0.1, math.nan]),
    "green_value": lambda p: build_green(p, 0.5, "N", n=20).value(math.nan, 0.2),
    "closed_form_value": lambda p: closed_form_constant(
        1.3, p.domain_length, "N", n=20).value(0.2, math.nan),
    "kernel_value": lambda p: kernel_value(p, 0.5, "N", 0.1, math.nan),
}


@pytest.mark.parametrize("call", sorted(NAN_CALLS))
def test_nan_evaluation_point_raises(cos_pi, call):
    # NaN fails every comparison: a range check written as two "outside"
    # tests lets it through and returns NaN.  Every reader names the point
    with pytest.raises(DomainError) as info:
        NAN_CALLS[call](cos_pi)
    assert str(info.value) == f"t=nan outside [0, {math.pi}]"


def test_bvp_solution_two_trajectory_points_per_query(cos_pi, trajectory_calls):
    u = solve_bvp(cos_pi, 0.5, "N", np.cos, n=100)
    trajectory_calls.clear()
    u(np.linspace(0.01, 3.1, 40))
    assert len(trajectory_calls) == 1 and trajectory_calls[0] <= 80


@pytest.mark.parametrize("n", [1, 7, 100])
def test_solve_bvp_reads_the_basis_once(cos_pi, trajectory_calls, n):
    # the node values come from the states of the Simpson pass, every node
    # being a panel edge, and equal the evaluator's to the bit
    u = solve_bvp(cos_pi, 0.5, "N", np.cos, n=n)
    assert len(trajectory_calls) == 1
    assert np.array_equal(u(u.grid), u.values)


def test_solve_bvp_restricted_reads_length_from_basis(cos_pi):
    # a restriction past the domain by rounding is clamped onto it, and both
    # read their length from the basis
    short = cos_pi.restrict(math.pi * (1 + 1e-13))
    u = solve_bvp(short, 0.5, "D", 1.0, n=20)
    G = build_green(short, 0.5, "D", n=20)
    assert u.length == u.grid[-1] == G.length == G.grid[-1] == cos_pi.domain_length


def test_grid_size_below_one_raises(zero1):
    with pytest.raises(ValueError):
        solve_bvp(zero1, 1.0, "N", 1.0, n=0)
    with pytest.raises(ValueError):
        build_green(zero1, 1.0, "N", n=0)


# -- boundary condition names ------------------------------------------------


@pytest.mark.parametrize("bc,spellings", [
    (BoundaryCondition.PERIODIC, ("P", "p", " P ", "periodic", "PERIODIC", "Periodic")),
    (BoundaryCondition.ANTIPERIODIC, ("A", "a", "antiperiodic", "ANTIPERIODIC",
                                      "anti-periodic", "Anti_Periodic", "anti-_periodic")),
    (BoundaryCondition.NEUMANN, ("N", "n", "neumann", "NEUMANN", "Neu-mann")),
    (BoundaryCondition.DIRICHLET, ("D", "d", "dirichlet", "DIRICHLET", "Dirich_let")),
    (BoundaryCondition.MIXED1, ("M1", "m1", "m-1", "M_1", "mixed1", "MIXED1", "mixed-1",
                                "Mixed_1")),
    (BoundaryCondition.MIXED2, ("M2", "m2", "m-2", "M_2", "mixed2", "MIXED2", "mixed-2",
                                "Mixed_2")),
])
def test_parse_spellings(bc, spellings):
    assert BoundaryCondition.parse(bc) is bc
    for text in spellings:
        assert BoundaryCondition.parse(text) is bc, text


@pytest.mark.parametrize("text", ["", "x", "M3", "mixed", "periodicity", "neumann-dirichlet",
                                  "PA", 1, None])
def test_parse_unknown_raises(text):
    with pytest.raises(ValueError, match="unknown boundary condition"):
        BoundaryCondition.parse(text)


def test_condition_strings():
    assert {bc.value: bc.condition for bc in BoundaryCondition} == {
        "P": "u(0)=u(T), u'(0)=u'(T)",
        "A": "u(0)=-u(T), u'(0)=-u'(T)",
        "N": "u'(0)=0, u'(T)=0",
        "D": "u(0)=0, u(T)=0",
        "M1": "u'(0)=0, u(T)=0",
        "M2": "u(0)=0, u'(T)=0",
    }


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 13: every kernel is row(t) K col(s) from one basis integrated "
    "forward from 0, and below the spectrum rounding grows like exp(2 mu L): at "
    "lambda = -50 the a = 0 Dirichlet kernel on [0, pi] is 3.4e2 off its sinh form"))
def test_dirichlet_kernel_far_below_the_spectrum():
    G = build_green(Potential.piecewise_constant([0.0, math.pi], [0.0]), -50.0, "D", n=60)
    want = sinh_dirichlet_kernel(math.sqrt(50.0), math.pi, G.grid)
    assert np.max(np.abs(G.table - want)) <= 1e-10 * np.max(np.abs(want))
