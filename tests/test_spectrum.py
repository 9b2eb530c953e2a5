import inspect
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import mathieu_a

from hillgreen import (
    Potential,
    dirichlet_zero_count,
    discriminant_samples,
    find_eigenvalues,
    first_eigenvalue_relations,
    fundamental_solutions,
    kernel_value,
    load_builtin,
    stability_intervals,
    verify_interlacing,
    verify_spectral_decomposition,
)
from hillgreen import integrator, spectrum
from hillgreen.errors import DomainError, IntegrationError
from hillgreen.greens import BoundaryCondition
from hillgreen.integrator import DEFAULT_TOL, endpoint_scan
from hillgreen.spectrum import DEFAULT_SCAN, _batch_roots, _link, _refine_roots

from helpers import neumann_extension_residual, step_state

PI = math.pi

# digits published for the two worked step/cosine examples
EX2_FIRSTS = {"N": -0.0508, "M2": 0.5346, "M1": 0.5984, "D": 2.4170}
EX3_FIRSTS = {"N": -0.378, "M1": -0.348, "M2": 0.5948, "D": 0.918}
EX4_SETS = {
    "N": [-0.1218, 0.47065, 4.1009],
    "D": [1.4668, 3.9792],
    "M1": [0.0923, 2.34076],
    "M2": [0.0923, 2.34076],
}


def analytic_zero_spectrum(bc, count):
    """Eigenvalues of u'' + lam u = 0 on [0,1], from the characteristic zeros."""
    if bc == "N":
        return [(k * PI) ** 2 for k in range(count)]
    if bc == "D":
        return [(k * PI) ** 2 for k in range(1, count + 1)]
    if bc in ("M1", "M2"):
        return [((2 * k + 1) * PI / 2) ** 2 for k in range(count)]
    raise ValueError(bc)


@pytest.mark.parametrize("bc", ["N", "D", "M1", "M2"])
def test_zero_potential_separated_spectra(zero1, bc):
    spec = find_eigenvalues(zero1, bc, max_count=4)
    want = analytic_zero_spectrum(bc, 4)
    assert np.allclose(spec.values(), want, atol=1e-8)
    assert all(e.multiplicity == 1 for e in spec.eigenvalues)


def test_zero_potential_coupled_spectra(zero1):
    # on [0,1]: periodic eigenvalues 0, (2 pi k)^2 doubled;
    # antiperiodic ((2k+1) pi)^2 doubled
    specP = find_eigenvalues(zero1, "P", max_count=4, search_range=(-1.0, 90.0))
    vals = specP.expanded()
    want = [0.0, (2 * PI) ** 2, (2 * PI) ** 2]
    assert np.allclose(vals[:3], want, atol=1e-6)
    assert specP.eigenvalues[1].multiplicity == 2

    specA = find_eigenvalues(zero1, "A", max_count=4, search_range=(-1.0, 120.0))
    valsA = specA.expanded()
    wantA = [PI ** 2, PI ** 2, (3 * PI) ** 2, (3 * PI) ** 2]
    assert np.allclose(valsA[:4], wantA, atol=1e-5)


def test_spectrum_audit_records_method(zero1):
    spec = find_eigenvalues(zero1.even_extension(), "P", max_count=2)
    assert spec.audit.get("method") in ("union", "direct")


def test_ex2_first_eigenvalues(pw2):
    for bc, want in EX2_FIRSTS.items():
        spec = find_eigenvalues(pw2, bc, max_count=1)
        assert spec.first() == pytest.approx(want, abs=2e-3)


def test_ex3_first_eigenvalues(cos_pi):
    for bc, want in EX3_FIRSTS.items():
        spec = find_eigenvalues(cos_pi, bc, max_count=1)
        assert spec.first() == pytest.approx(want, abs=2e-3)


def test_ex4_spectra(cos2_pi):
    for bc, want in EX4_SETS.items():
        spec = find_eigenvalues(cos2_pi, bc, max_count=len(want))
        got = spec.values()
        assert len(got) == len(want)
        assert np.allclose(got, want, atol=2e-3)


def test_ex4_coupled_doubles(cos2_pi):
    # the half-period cosine has double antiperiodic eigenvalues on [0, 2T];
    # max_count counts multiplicity, so two doubles need four slots
    even = cos2_pi.even_extension()
    spec = find_eigenvalues(even, "A", max_count=4, method="direct")
    assert spec.eigenvalues[0].multiplicity == 2
    assert spec.eigenvalues[0].value == pytest.approx(0.0923, abs=2e-3)
    assert spec.eigenvalues[1].multiplicity == 2
    assert spec.eigenvalues[1].value == pytest.approx(2.34076, abs=2e-3)


def test_union_and_direct_agree(cos_pi):
    even = cos_pi.even_extension()
    a = find_eigenvalues(even, "P", max_count=5, method="union")
    b = find_eigenvalues(even, "P", max_count=5, method="direct")
    assert np.allclose(a.expanded()[:5], b.expanded()[:5], atol=1e-6)


def _pw2_monodromy(lam):
    """Closed-form monodromy matrix of pw2 (0 on [0, 1], 1/10 on [1, 2]), lam > 0."""
    def piece(q):
        m = math.sqrt(q)
        return np.array([[math.cos(m), math.sin(m) / m],
                         [-m * math.sin(m), math.cos(m)]])
    return piece(lam + 0.1) @ piece(lam)


def _pw2_gap_edges(k):
    """Edges of pw2's periodic gap near (k pi)^2, from the closed form.

    With unit determinant, Delta^2 - 4 = (y1 - y2')^2 + 4 y2 y1', which has
    no cancellation near Delta = 2: it resolves gaps whose height Delta - 2
    is far below the rounding of Delta itself.  The gap holds one root of
    y2 and one of y1', so their midpoint is inside it.
    """
    def excess(lam):
        (y1, y2), (y1p, y2p) = _pw2_monodromy(lam)
        return (y1 - y2p) ** 2 + 4.0 * y2 * y1p

    c = (k * PI) ** 2
    mid = 0.5 * (brentq(lambda x: _pw2_monodromy(x)[0, 1], c - 1.0, c + 1.0)
                 + brentq(lambda x: _pw2_monodromy(x)[1, 0], c - 1.0, c + 1.0))
    return (brentq(excess, mid - 0.05, mid, xtol=1e-15),
            brentq(excess, mid, mid + 0.05, xtol=1e-15))


def test_pw2_narrow_periodic_gaps_are_simple(pw2):
    # the gaps near pi^2, (2 pi)^2 and (3 pi)^2 are open, with Delta - 2 of
    # only 1.6e-9, 2.5e-11 and 2.2e-12 at their midpoints: six simple edges
    spec = find_eigenvalues(pw2, "P", search_range=(5.0, 95.0))
    want = [edge for k in (1, 2, 3) for edge in _pw2_gap_edges(k)]
    assert [e.multiplicity for e in spec.eigenvalues] == [1] * 6
    assert np.allclose(spec.values(), want, rtol=0, atol=1e-8)


def test_direct_band_edges_of_step_potential():
    # not even about the midpoint, so "direct" refines these edges on Delta
    # itself; they are as exact as the computed Delta
    breaks = [0.0, 0.6584420476515395, 1.3889613659407485]
    values = [-2.2174632234891436, 2.4956688703858863]
    p = Potential.piecewise_constant(breaks, values)
    spec = find_eigenvalues(p, "P", search_range=(70.0, 90.0), method="direct")

    def excess(lam):
        y = step_state(p, lam, breaks[-1])
        return y[0] + y[3] - 2.0

    grid = np.linspace(70.0, 90.0, 2001)
    signs = np.sign([excess(x) for x in grid])
    want = [brentq(excess, a, b, xtol=1e-14)
            for a, b, sa, sb in zip(grid, grid[1:], signs, signs[1:]) if sa != sb]
    assert len(want) == 2
    assert np.allclose(spec.values(), want, rtol=0, atol=1e-10)


@settings(max_examples=6, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
       st.floats(0.5, 2.0))
def test_direct_matches_union_on_even_potentials(values, half):
    breaks = list(np.linspace(0.0, half, len(values) + 1))
    p = Potential.piecewise_constant(breaks, values).even_extension()
    for bc in ("P", "A"):
        union = find_eigenvalues(p, bc, max_count=3, method="union")
        direct = find_eigenvalues(p, bc, max_count=3, method="direct")
        assert ([e.multiplicity for e in direct.eigenvalues]
                == [e.multiplicity for e in union.eigenvalues])
        assert np.allclose(direct.values(), union.values(), rtol=0, atol=1e-9)


def test_union_requires_symmetry(cos_pi):
    with pytest.raises(ValueError):
        find_eigenvalues(cos_pi, "P", max_count=2, method="union")


@pytest.mark.parametrize("bc", ["P", "A", "N", "D", "M1", "M2"])
def test_scan_arguments_are_checked(cos_pi, bc):
    # every condition refuses a scan of no cells and an unknown method up front
    for n_scan in (0, -3):
        with pytest.raises(ValueError, match=f"n_scan must be at least 1, got {n_scan}"):
            find_eigenvalues(cos_pi, bc, max_count=2, n_scan=n_scan)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        find_eigenvalues(cos_pi, bc, max_count=2, method="bogus")


def test_narrow_asymmetric_well_is_not_even():
    # a barrier narrower than any sample grid spacing, off the midpoint:
    # union would solve the half interval without it
    p = Potential.piecewise_constant([0.0, 0.5, 0.5007, 1.0], [0.0, -5000.0, 0.0])
    assert not p.is_even_about_midpoint()
    for bc in ("P", "A"):
        auto = find_eigenvalues(p, bc, max_count=3)
        direct = find_eigenvalues(p, bc, max_count=3, method="direct")
        assert auto.values() == direct.values()
        with pytest.raises(ValueError):
            find_eigenvalues(p, bc, max_count=3, method="union")
    assert find_eigenvalues(p, "P", max_count=1).first() == pytest.approx(2.6816, abs=1e-4)


@pytest.mark.parametrize("name", ["zero1", "pw2", "cos_pi", "cos2_pi"])
def test_spectral_decomposition(request, name):
    p = request.getfixturevalue(name)
    rep = verify_spectral_decomposition(p, count=6)
    assert rep["pass"], rep
    names = [e["name"] for e in rep["equalities"]]
    assert len(names) == 3
    for e in rep["equalities"]:
        assert e["max_diff"] <= rep["pair_tol"]
        assert not e["unmatched_lhs"] and not e["unmatched_rhs"]


@pytest.mark.parametrize("name", ["zero1", "pw2", "cos_pi", "cos2_pi"])
def test_first_eigenvalue_relations(request, name):
    p = request.getfixturevalue(name)
    rep = first_eigenvalue_relations(p)
    assert rep["pass"], [(i["item"], i["pass"]) for i in rep["items"]]


@pytest.mark.parametrize("bc", ["P", "A", "N", "D", "M1", "M2"])
def test_length_restricts_before_choosing_method(bc):
    # the even extension of an uneven step is even as a whole, but its first
    # half is not: restricted to [0, 1] the problem is the step's own, so P
    # and A must take the direct route and the step's range, not the union
    # of the whole extension
    base = Potential.piecewise_constant([0, .3, 1], [2, -1])
    got = find_eigenvalues(base.even_extension().restrict(1.0), bc, max_count=4)
    want = find_eigenvalues(base, bc, max_count=4)
    assert got.values() == want.values()
    assert got.audit.get("method") == want.audit.get("method")
    if bc == "P":
        assert got.values()[0] == pytest.approx(0.066386, abs=1e-6)


def test_first_eigenvalue_relations_follow_the_table(cos_pi):
    rep = first_eigenvalue_relations(cos_pi)
    assert [item["item"] for item in rep["items"]] == [1, 5, 6, 7, 8, 9]
    values = rep["values"]
    operands = {**values, "lambda_M": min(values["lambda_M1"], values["lambda_M2"])}
    for item in rep["items"]:
        # a corner item's kernel checks name kernel values; its last check,
        # like every check of the other items, names two first eigenvalues
        named = item["checks"] if item["item"] not in (5, 6) else item["checks"][-1:]
        for check in named:
            assert (operands[check["lhs"]], operands[check["rhs"]]) == \
                (check["lhs_value"], check["rhs_value"]), (item["item"], check)
        for check in item["checks"]:
            assert check["margin"] == check["rhs_value"] - check["lhs_value"]
            assert check["relation"] in ("=", "<")


def _above(x):
    return float(np.nextafter(x, np.inf))


def _below(x):
    return float(np.nextafter(x, -np.inf))


# (relation, lhs value, rhs value, verdict) with bound 0.25: at the bound, just
# inside it and just outside it; "<=" ignores the bound and allows 1e-9
@pytest.mark.parametrize("relation,lhs,rhs,ok", [
    ("=", 0.0, 0.25, True), ("=", 0.0, _below(0.25), True), ("=", 0.0, _above(0.25), False),
    ("=", 0.25, 0.0, True), ("=", _above(0.25), 0.0, False),
    ("<", 0.0, 0.25, False), ("<", 0.0, _above(0.25), True), ("<", 0.0, _below(0.25), False),
    ("<=", 1e-9, 0.0, True), ("<=", _below(1e-9), 0.0, True), ("<=", _above(1e-9), 0.0, False),
])
def test_link_grades_each_relation_at_its_bound(relation, lhs, rhs, ok):
    assert _link("a", lhs, relation, "b", rhs, 0.25) == {
        "lhs": "a", "rhs": "b", "relation": relation, "lhs_value": lhs, "rhs_value": rhs,
        "margin": rhs - lhs, "pass": ok}


def test_interlacing_takes_no_search_range(zero1):
    # its chains pair eigenvalues by index from the lowest one, which a range
    # above N0 would drop; a stale positional range now fails in n_scan
    assert "search_range" not in inspect.signature(verify_interlacing).parameters
    with pytest.raises(ValueError, match="^n_scan must be an integer, got "):
        verify_interlacing(zero1, 3, (1.0, 200.0))


def test_relations_values_zero_potential(zero1):
    rep = first_eigenvalue_relations(zero1)
    v = rep["values"]
    assert v["lambda_N"] == pytest.approx(0.0, abs=1e-9)
    assert v["lambda_D"] == pytest.approx(PI ** 2, abs=1e-8)
    assert v["lambda_M1"] == pytest.approx((PI / 2) ** 2, abs=1e-9)
    assert v["lambda_M2"] == pytest.approx((PI / 2) ** 2, abs=1e-9)
    assert v["lambda_P_2T"] == pytest.approx(0.0, abs=1e-9)
    assert v["lambda_A_2T"] == pytest.approx((PI / 2) ** 2, abs=1e-9)


def test_corner_values_match_mixed_spectra(cos_pi):
    # the Neumann kernel corners are -y2'(T)/y1'(T) at (0,0) and
    # -y1(T)/y1'(T) at (T,T); they vanish exactly on the two mixed spectra
    L = cos_pi.domain_length
    lamM2 = find_eigenvalues(cos_pi, "M2", max_count=1).first()
    lamM1 = find_eigenvalues(cos_pi, "M1", max_count=1).first()

    basis = fundamental_solutions(cos_pi, lamM2, tol=1e-12)
    assert -basis.y2p_end / basis.y1p_end == pytest.approx(0.0, abs=1e-7)
    assert kernel_value(cos_pi, lamM2, "N", 0.0, 0.0) == pytest.approx(0.0, abs=1e-7)

    basis = fundamental_solutions(cos_pi, lamM1, tol=1e-12)
    assert -basis.y1_end / basis.y1p_end == pytest.approx(0.0, abs=1e-7)
    assert kernel_value(cos_pi, lamM1, "N", L, L) == pytest.approx(0.0, abs=1e-7)

    # cross-corner values stay away from zero (the two spectra differ here)
    assert abs(kernel_value(cos_pi, lamM1, "N", 0.0, 0.0)) > 1e-2
    assert abs(kernel_value(cos_pi, lamM2, "N", L, L)) > 1e-2


@pytest.mark.parametrize("name", ["zero1", "pw2", "cos_pi", "cos2_pi"])
def test_interlacing(request, name):
    p = request.getfixturevalue(name)
    rep = verify_interlacing(p, count=3)
    assert rep["pass"], rep
    assert rep["chains"]["oscillation"]["pass"]
    assert rep["pair_parity_pass"]


def test_interlacing_observations(zero1, cos_pi):
    # for a symmetric potential the two mixed spectra coincide
    rep = verify_interlacing(zero1, count=3)
    assert rep["observations"]["mixed_spectra_coincide"] is True
    rep2 = verify_interlacing(cos_pi, count=3)
    assert rep2["observations"]["mixed_spectra_coincide"] is False


def test_stability_intervals_zero_potential(zero1):
    # a == 0 has no open instability gaps: bands touch at ((k pi)/2)^2 * ...
    # on [0,1] the discriminant is 2 cos(sqrt(lam)), giving band edges at
    # lam = (k pi)^2 with zero-width gaps
    bands = stability_intervals(zero1, search_range=(-1.0, 45.0))
    kinds = [k for _, k in bands]
    assert "stable" in kinds
    open_gaps = [iv for iv, k in bands if k == "unstable" and iv[1] - iv[0] > 1e-6 and iv[0] > -0.5]
    assert not open_gaps


def test_stability_intervals_ex4(cos2_pi):
    bands = stability_intervals(cos2_pi, search_range=(-1.0, 5.0))
    gaps = [iv for iv, k in bands if k == "unstable" and iv[0] > -0.5]
    wide = [iv for iv in gaps if iv[1] - iv[0] > 1e-4]
    assert len(wide) == 2
    assert wide[0][0] == pytest.approx(0.47065, abs=2e-3)
    assert wide[0][1] == pytest.approx(1.4668, abs=2e-3)
    assert wide[1][0] == pytest.approx(3.9792, abs=2e-3)
    assert wide[1][1] == pytest.approx(4.1009, abs=2e-3)


def test_stability_intervals_pw2_narrow_gap(pw2):
    # Delta - 2 is only 4e-7 at the middle of the extension's gap here
    bands = stability_intervals(pw2)
    gaps = [iv for iv, kind in bands if kind == "unstable"]
    assert any(iv == pytest.approx((2.41715, 2.41816), abs=1e-5) for iv in gaps)
    assert all(b > a for a, b in gaps)


@pytest.mark.xfail(strict=True, reason=(
    "MERGE_RTOL (1e-7 relative) merges band edges closer than 1e-7 lambda: the "
    "gap (199.809486, 199.809499) of ex2's extension reads as a double eigenvalue"))
def test_stability_intervals_ex2_gap_near_200():
    mid = 199.8094925
    # the extension is 0 on [0, 1], 0.1 on [1, 3] and 0 on [3, 4]
    y = step_state(Potential.piecewise_constant([0.0, 1.0, 3.0, 4.0], [0.0, 0.1, 0.0]), mid, 4.0)
    assert y[0] + y[3] > 2.0 + 1e-13
    bands = stability_intervals(load_builtin("ex2"), search_range=(199.5, 200.1))
    assert any(kind == "unstable" and a < mid < b for (a, b), kind in bands), bands


def cosine_excess(lam):
    """Delta - 2 of 0.3 + 1.7 cos(1.9 t + 0.5) on [0, 2.3], by DOP853 at rtol 1e-13."""
    def rhs(t, y):
        q = 0.3 + 1.7 * math.cos(1.9 * t + 0.5) + lam
        return [y[1], -q * y[0], y[3], -q * y[2]]
    res = solve_ivp(rhs, (0.0, 2.3), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-13, atol=1e-15)
    return res.y[0, -1] + res.y[3, -1] - 2.0


def test_direct_band_edges_on_smooth_piece():
    p = Potential.cosine(2.3, c0=0.3, c1=1.7, omega=1.9, phi=0.5)
    spec = find_eigenvalues(p, "P", search_range=(0.0, 120.0), method="direct")
    for v in (v for v in spec.values() if v > 20.0):
        assert abs(v - brentq(cosine_excess, v - 1e-4, v + 1e-4, xtol=1e-13)) <= 1e-10


@pytest.mark.xfail(strict=True, reason=(
    "max_count=k takes the first k sign changes of the scan: the double well's "
    "lowest Neumann doublet lies inside one scan cell, so both are missed"))
def test_double_well_lowest_neumann_pair():
    # a barrier of height 1e4 splits [0, 1] into two wells; the lowest pair,
    # 104.9377 and 104.9386, was found with n_scan=200000 over (-1, 200)
    p = Potential.piecewise_constant([0.0, 0.45, 0.55, 1.0], [0.0, -1e4, 0.0])
    spec = find_eigenvalues(p, "N", max_count=2)
    assert spec.values() == pytest.approx([104.9377, 104.9386], abs=1e-3)


def test_high_neumann_eigenvalue_matches_mathieu(cos_pi):
    # Neumann on [0, pi] for cos t: a = 4 lambda, q = -2; the Mathieu value a_62
    spec = find_eigenvalues(cos_pi, "N", search_range=(950.0, 1000.0))
    assert len(spec.values()) == 1
    assert abs(spec.values()[0] - mathieu_a(62, -2.0) / 4.0) <= 1e-10


@pytest.fixture
def ivp_calls(monkeypatch):
    """Number of solve_ivp runs made in the test."""
    calls = [0]
    original = integrator.solve_ivp

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(integrator, "solve_ivp", counting)
    return calls


@pytest.mark.parametrize("bc, want", [("N", 0), ("D", 1), ("M1", 0), ("M2", 0)])
def test_separated_refinement_makes_no_ivp_solves(cos_pi, ivp_calls, bc, want):
    # the one Dirichlet solve is the oscillation audit
    find_eigenvalues(cos_pi, bc, max_count=2)
    assert ivp_calls[0] == want


@pytest.mark.parametrize("method", ["union", "direct"])
def test_coupled_refinement_makes_no_ivp_solves(cos_pi, ivp_calls, method):
    spec = find_eigenvalues(cos_pi.even_extension(), "P", max_count=2, method=method)
    assert len(spec.expanded()) == 2
    assert ivp_calls[0] == 0


def test_batch_roots_closes_next_to_the_root():
    # a falsi point within tol of the root must close the bracket, not stall
    calls = []

    def F(x):
        calls.append(x.size)
        return np.cos(x) - 0.3

    a, b = np.array([0.5]), np.array([2.0])
    roots = _batch_roots(F, a, b, np.cos(a) - 0.3, np.cos(b) - 0.3, 1e-12)
    assert abs(roots[0] - math.acos(0.3)) <= 1e-12
    assert len(calls) <= 16


def test_batch_roots_bisects_past_non_finite_values():
    # an overflowed (nan) value at one end must not stall the bracket at nan
    def F(x):
        return np.where(x > 1.5, np.nan, np.cos(x) - 0.3)

    roots = _batch_roots(F, [0.5], [2.0], [np.cos(0.5) - 0.3], [np.nan], 1e-12)
    assert abs(roots[0] - math.acos(0.3)) <= 1e-12


def _rows(f):
    """Endpoint states whose Neumann row y1'(L) is f(lambda)."""
    def state(x):
        Y = np.zeros((4, x.size))
        Y[1] = f(x)
        return Y
    return state


def test_refine_roots_widens_brackets_and_records_failures():
    lams = np.linspace(0.0, 4.0, 5)
    scan = np.zeros((4, 5))
    scan[1] = [-1.0, -1.0, 1.0, 0.0, 1.0]
    # the accurate root lies half a cell outside the scan's cell [1, 2]; the
    # scan's exact zero at 3 is a root as it stands
    audit = {}
    neumann = BoundaryCondition.NEUMANN
    roots = _refine_roots(_rows(lambda x: x - 2.3), neumann, lams, scan, 1e-12, audit)
    assert roots == pytest.approx([2.3, 3.0], abs=1e-12) and audit == {}
    # no sign change within 1.5 cells of the scan's: recorded, not refined
    roots = _refine_roots(_rows(lambda x: 1.0 + 0.0 * x), neumann, lams, scan, 1e-12, audit)
    assert roots == [3.0] and audit == {"unresolved_brackets": [1.0]}


def test_refinement_refuses_beyond_float64_phase(cos_pi):
    # at lambda = 4e8, 10 eps omega T alone is about 1.4e-10, whatever the steps
    with pytest.raises(IntegrationError, match=r"integrator_tol 1e-10.*larger integrator_tol"):
        find_eigenvalues(cos_pi, "N", search_range=(4e8, 4.0002e8))
    spec = find_eigenvalues(cos_pi, "N", search_range=(4e6, 4.004e6), integrator_tol=1e-9)
    (value,) = spec.values()
    order = round(2.0 * math.sqrt(value))
    assert abs(value - mathieu_a(order, -2.0) / 4.0) <= 1e-8


SCAN_REFUSAL = ("scan segment [0, 3.14159] cannot certify accuracy 1e-07: float64 rounding of "
                "the phase (omega = 3.16e+07) alone is about 2.2e-07, beyond any number of "
                "Magnus steps")
REFINEMENT_REFUSAL = (
    "eigenvalue refinement over lambda in [4e+08, 4.0002e+08] cannot certify integrator_tol "
    "1e-10 (scan segment [0, 3.14159] cannot certify accuracy 1e-10: float64 rounding of the "
    "phase (omega = 2e+04) alone is about 1.4e-10, beyond any number of Magnus steps); a "
    "larger integrator_tol (--tol on the command line) lifts the limit")


def test_refusals_keep_the_wording_of_their_level(cos_pi):
    # the scan and the refinement read one step-count ladder, and each
    # refusal is still worded by the level that cannot certify its accuracy
    with pytest.raises(IntegrationError) as info:
        find_eigenvalues(cos_pi, "N", search_range=(1e15, 1.0001e15))
    assert str(info.value) == SCAN_REFUSAL
    with pytest.raises(IntegrationError) as info:
        find_eigenvalues(cos_pi, "N", search_range=(4e8, 4.0002e8))
    assert str(info.value) == REFINEMENT_REFUSAL


def test_scan_refusal_stands_bare_where_the_refinement_fails_first(monkeypatch, cos_pi):
    # the ladder meets the refinement's rounding floor at 8 steps, before the
    # scan reaches the step cap: the scan's own refusal is the one raised
    monkeypatch.setattr(integrator, "_MAX_STEPS", 64)
    with pytest.raises(IntegrationError) as info:
        find_eigenvalues(cos_pi, "N", search_range=(4e8, 4.0002e8))
    assert re.fullmatch(r"scan segment \[0, 3\.14159\] cannot certify accuracy 1e-07 within 64 "
                        r"Magnus steps \(estimated error \S+ at 32 steps\)", str(info.value))


@pytest.mark.parametrize("name,bc,method", [
    ("ex3", "N", "auto"), ("ex3", "D", "auto"), ("cos", "P", "direct"), ("ex4", "A", "union"),
])
def test_find_eigenvalues_forms_each_magnus_level_once(monkeypatch, name, bc, method):
    # the scan and the refinement plans are read off one ladder per segment,
    # so no segment's steps at one count are formed twice, in a batched node
    # pass or alone
    levels = []
    original = integrator._magnus_nodes

    def counting(p, t0, t1, *counts):
        levels.extend((t0, t1, n) for n in counts)
        return original(p, t0, t1, *counts)

    monkeypatch.setattr(integrator, "_magnus_nodes", counting)
    spec = find_eigenvalues(HALF_ROUTE_CASES[name], bc, max_count=4, method=method)
    assert len(spec.expanded()) == 4
    assert levels and len(set(levels)) == len(levels)


def test_refinement_warns_nothing_where_coarse_steps_overflow():
    # at lambda = 1e8 the first levels of the step-count estimate take h omega
    # of thousands, and cosh overflows in them; those levels are misses, and
    # no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = find_eigenvalues(load_builtin("ex3"), "N", search_range=(1e8, 1.001e8),
                                integrator_tol=1e-5)
    values = spec.values()
    assert len(values) == 5
    for value in values:
        assert abs(value - mathieu_a(round(2.0 * math.sqrt(value)), -2.0) / 4.0) <= 1e-5


def _audit_cases(seed):
    """Three cosines and three steps on lengths from 0.8 to 3, from ``seed``."""
    rng = np.random.default_rng(seed)
    cases = [Potential.cosine(float(rng.uniform(0.8, 3.0)), c0=float(rng.uniform(-2.0, 2.0)),
                              c1=float(rng.uniform(0.2, 3.0)), omega=float(rng.uniform(0.5, 4.0)),
                              phi=float(rng.uniform(0.0, PI))) for _ in range(3)]
    for pieces in (2, 3, 4):
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 2.5, pieces - 1)), [2.8]])
        cases.append(Potential.piecewise_constant(breaks, rng.uniform(-6.0, 6.0, pieces)))
    return cases


@pytest.mark.parametrize("max_count", [2, 10, 20])
@pytest.mark.parametrize("seed", [5, 17])
def test_oscillation_audit_counts_as_at_the_default_tolerance(seed, max_count):
    # the audit reads only the signs of y2, so its TOL_MAX solve counts the
    # zeros that a solve at DEFAULT_TOL counts
    for p in _audit_cases(seed):
        audit = find_eigenvalues(p, "D", max_count=max_count).audit["oscillation"]
        assert audit["interior_zeros"] == dirichlet_zero_count(p, audit["probe_lambda"])


def test_oscillation_audit_still_flags_the_double_well():
    # two eigenvalues sharing scan cells go missing (test_double_well_lowest_neumann_pair);
    # the Sturm count at the probe sees them
    p = Potential.piecewise_constant([0.0, 0.45, 0.55, 1.0], [0.0, -1e4, 0.0])
    audit = find_eigenvalues(p, "D", max_count=2).audit["oscillation"]
    assert (audit["interior_zeros"], audit["eigenvalues_below"]) == (28, 4)


def _first_count_cases():
    """ex1-ex4, the double well, and seeded 2- to 5-piece steps and cosines."""
    rng = np.random.default_rng(32)
    cases = {name: load_builtin(name) for name in ("ex1", "ex2", "ex3", "ex4")}
    cases["well"] = Potential.piecewise_constant([0.0, 0.45, 0.55, 1.0], [0.0, -1e4, 0.0])
    for pieces in (2, 3, 4, 5):
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 2.0, pieces - 1)), [2.2]])
        cases[f"step{pieces}"] = Potential.piecewise_constant(breaks,
                                                              rng.uniform(-6.0, 6.0, pieces))
    for k in range(3):
        cases[f"cos{k}"] = Potential.cosine(float(rng.uniform(0.8, 3.0)),
                                            c0=float(rng.uniform(-2.0, 2.0)),
                                            c1=float(rng.uniform(0.2, 3.0)),
                                            omega=float(rng.uniform(0.5, 4.0)))
    return cases


FIRST_COUNT_CASES = _first_count_cases()


def _first(spec, count):
    """The (value, multiplicity) pairs that max_count=count keeps of a full spectrum."""
    kept, total = [], 0
    for e in spec.eigenvalues:
        if total >= count:
            break
        kept.append((e.value, e.multiplicity))
        total += e.multiplicity
    return kept


@pytest.mark.parametrize("name", sorted(FIRST_COUNT_CASES))
def test_first_eigenvalues_match_the_full_scan(name):
    # a scan that stops above the max_count-th bracket returns what the
    # scan of the whole range returns first, multiplicities included
    base = FIRST_COUNT_CASES[name]
    for bc in ("N", "D", "M1", "M2", "P", "A"):
        p = base.even_extension() if bc in ("P", "A") else base
        rng = spectrum._auto_range(p, 5)
        full = find_eigenvalues(p, bc, search_range=rng)
        assert full.audit["scanned_to"] == rng[1]
        for count in (1, 2, 3, 5):
            spec = find_eigenvalues(p, bc, search_range=rng, max_count=count)
            got, want = _first(spec, count), _first(full, count)
            assert [m for _, m in got] == [m for _, m in want], (bc, count)
            for (g, _), (w, _) in zip(got, want):
                assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (bc, count)
            assert spec.audit["scanned_to"] <= rng[1]
            if "oscillation" in spec.audit:
                assert spec.audit["oscillation"]["probe_lambda"] < spec.audit["scanned_to"]


def _sine(shift):
    """A function of lambda that changes sign at shift + 10 j."""
    return lambda lam: np.sin(np.pi * (lam - shift) / 10.0)


def _fake_scan(monkeypatch, scanned, accurate):
    """A 1000-cell scan of [0, 1000] whose Neumann row is ``scanned``; the
    refinement reads ``accurate``. Returns the size of every batch scanned."""
    batches = []

    def scan(x):
        batches.append(x.size)
        return _rows(scanned)(x)

    lams = np.linspace(0.0, 1000.0, 1001)
    monkeypatch.setattr(spectrum, "_scan", lambda *args: (lams, scan, _rows(accurate)))
    return batches


def _neumann_roots(count):
    audit = {}
    (roots,) = spectrum._scan_roots(None, (BoundaryCondition.NEUMANN,), 0.0, 1000.0, 1000,
                                    1e-12, DEFAULT_TOL, count, audit)
    return sorted(roots), audit


def test_scan_for_a_count_stops_after_the_chunk_that_brackets_it(monkeypatch):
    batches = _fake_scan(monkeypatch, _sine(9.5), _sine(9.5))
    roots, audit = _neumann_roots(2)
    # the first chunk of 256 samples holds both brackets and 4 cells more,
    # and every bracket in it is refined
    assert batches == [256] and audit == {"scanned_to": 255.0}
    assert roots == pytest.approx([10.0 * j + 9.5 for j in range(25)], abs=1e-9)
    batches.clear()
    roots, audit = _neumann_roots(26)
    # the 26th bracket closes at 260, beyond the first chunk
    assert batches == [256, 256] and audit == {"scanned_to": 511.0}
    assert len(roots) == 51


def test_scan_for_a_count_keeps_four_cells_above_the_last_bracket(monkeypatch):
    # the 26th bracket closes at 252, 3 cells below the first chunk's top
    batches = _fake_scan(monkeypatch, _sine(1.5), _sine(1.5))
    roots, audit = _neumann_roots(26)
    assert batches == [256, 256] and audit == {"scanned_to": 511.0}
    assert roots[25] == pytest.approx(251.5, abs=1e-9)


def test_scan_for_a_count_finishes_the_scan_after_a_lost_bracket(monkeypatch):
    # the accurate function has no root near 9.5: that bracket is lost, so the
    # whole range is scanned and refined as without a count
    batches = _fake_scan(monkeypatch, _sine(9.5),
                         lambda lam: np.where(lam < 14.0, 1.0, _sine(9.5)(lam)))
    roots, audit = _neumann_roots(2)
    assert batches == [256, 1001]
    assert audit == {"unresolved_brackets": [9.0], "scanned_to": 1000.0}
    assert roots == pytest.approx([10.0 * j + 9.5 for j in range(1, 100)], abs=1e-9)


@pytest.fixture
def propagated(monkeypatch):
    """Sizes of the lambda batches spectrum._propagate steps through."""
    sizes = []
    original = spectrum._propagate

    def counting(plan, lams):
        sizes.append(lams.size)
        return original(plan, lams)

    monkeypatch.setattr(spectrum, "_propagate", counting)
    return sizes


def test_scan_for_a_count_propagates_a_fraction_of_the_range(propagated):
    # a full scan of ex3's N range for two eigenvalues and their refinement
    # propagate 2045 lambdas
    p = load_builtin("ex3")
    spec = find_eigenvalues(p, "N", max_count=2)
    assert len(spec.values()) == 2 and sum(propagated) <= 2045 // 2
    assert spec.audit["scanned_to"] < spec.search_range[1]
    propagated.clear()
    spec = find_eigenvalues(p, "N")
    assert DEFAULT_SCAN + 1 in propagated and spec.audit["scanned_to"] == spec.search_range[1]


@pytest.mark.parametrize("method", ["union", "direct"])
def test_coupled_audit_records_the_scanned_top(cos_pi, method):
    spec = find_eigenvalues(cos_pi.even_extension(), "P", max_count=2, method=method)
    top = spec.audit["scanned_to"]
    hi = spec.search_range[1]
    assert top < hi if method == "union" else top == hi


@pytest.mark.parametrize("max_count", [0, -1, 2.5, True, math.nan, "2"])
def test_find_eigenvalues_rejects_bad_max_count(cos_pi, max_count):
    with pytest.raises(ValueError, match="^max_count must be "):
        find_eigenvalues(cos_pi, "N", max_count=max_count)


def test_max_count_none_takes_every_eigenvalue_in_range(cos_pi):
    spec = find_eigenvalues(cos_pi, "N", search_range=(-1.0, 40.0), max_count=None)
    assert len(spec.values()) == 7
    assert find_eigenvalues(cos_pi, "N", search_range=(-1.0, 40.0),
                            max_count=2.0).values() == spec.values()[:2]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
def test_find_eigenvalues_rejects_bad_tol(cos_pi, tol):
    with pytest.raises(ValueError, match=f"^tol must be finite and non-negative, got {tol}"):
        find_eigenvalues(cos_pi, "N", max_count=2, tol=tol)


def test_zero_tol_means_the_bracket_floor(cos_pi):
    assert (find_eigenvalues(cos_pi, "N", max_count=2, tol=0.0).values()
            == find_eigenvalues(cos_pi, "N", max_count=2).values())


def test_dirichlet_zero_count(zero1):
    # number of zeros of y2 in (0, 1] for a == 0 is floor(sqrt(lam)/pi)
    assert dirichlet_zero_count(zero1, 0.5) == 0
    assert dirichlet_zero_count(zero1, (1.5 * PI) ** 2) == 1
    assert dirichlet_zero_count(zero1, (2.5 * PI) ** 2) == 2


def test_neumann_extension_residual(pw2):
    # |y1'(2T)| = |2 y1(T) y1'(T)| for the even extension vanishes exactly
    # on the base Neumann spectrum and the base u'(0)=u(T)=0 spectrum
    lamN = find_eigenvalues(pw2, "N", max_count=1).first()
    lamM1 = find_eigenvalues(pw2, "M1", max_count=1).first()
    assert neumann_extension_residual(pw2, lamN) < 1e-8
    assert neumann_extension_residual(pw2, lamM1) < 1e-8
    assert neumann_extension_residual(pw2, 0.7) > 1e-3


def test_discriminant_samples_shape(cos_pi):
    lams, deltas = discriminant_samples(cos_pi, -1.0, 4.0, count=50)
    assert lams.shape == deltas.shape == (50,)
    assert lams[0] == -1.0 and lams[-1] == 4.0
    # the samples are the discriminant of the even extension over [0, 2T]
    want = []
    even = cos_pi.even_extension()
    for lam in lams[:5]:
        b = fundamental_solutions(even, float(lam), tol=1e-10)
        want.append(b.discriminant)
    assert np.allclose(deltas[:5], want, atol=1e-6)


HALF_ROUTE_CASES = {
    "ex3": load_builtin("ex3"),
    "ex4": load_builtin("ex4"),
    "step3": Potential.piecewise_constant([0.0, 0.4, 1.1, 1.5], [1.0, -3.0, 2.0]),
    "cos": Potential.cosine(2.3, c0=0.3, c1=1.7, omega=1.9, phi=0.5),
}


@pytest.mark.parametrize("accuracy", [1e-6, 1e-9])
@pytest.mark.parametrize("name", sorted(HALF_ROUTE_CASES))
def test_discriminant_samples_half_route_matches_full_scan(name, accuracy):
    # Delta(2T) = 2 (y1 y2' + y2 y1')(T) against a scan of the whole extension
    p = HALF_ROUTE_CASES[name]
    lams, deltas = discriminant_samples(p, -3.0, 2000.0, count=301, accuracy=accuracy)
    Y = endpoint_scan(p.even_extension(), lams, accuracy=accuracy)
    full = Y[0] + Y[3]
    scale = np.maximum(1.0, np.abs(full))
    assert np.all(np.abs(deltas - full) <= (1e-12 + accuracy) * scale)


@pytest.mark.parametrize("name", ["ex3", "ex4", "cos"])
def test_discriminant_samples_scans_half_the_cells(monkeypatch, name):
    # Magnus (step, lambda) cells, probes included: the half interval at
    # accuracy / 2 takes the steps of each mirrored half of the full scan
    cells = []
    original = integrator._magnus_transfer

    def counting(*grid):
        cells.append(grid[0].size * grid[-1].size)
        return original(*grid)

    monkeypatch.setattr(integrator, "_magnus_transfer", counting)
    p = HALF_ROUTE_CASES[name]
    lams = np.linspace(-3.0, 2000.0, 500)
    endpoint_scan(p.even_extension(), lams, accuracy=1e-9)
    full = sum(cells)
    cells.clear()
    discriminant_samples(p, -3.0, 2000.0, count=500, accuracy=1e-9)
    assert 0 < sum(cells) <= 0.5 * full


def test_discriminant_samples_length_restricts_the_base():
    p = load_builtin("ex3")
    lams, deltas = discriminant_samples(p.restrict(2.0), -1.0, 40.0, count=101)
    # the extension of the restricted base, not the extension cut at 2.0
    Y = endpoint_scan(p.restrict(2.0).even_extension(), lams)
    assert np.allclose(deltas, Y[0] + Y[3], rtol=0, atol=1e-6 * np.max(np.abs(deltas)))


@pytest.mark.parametrize("accuracy", [math.nan, math.inf, 0.0, -1e-9, 10.0])
def test_discriminant_samples_rejects_bad_accuracy(cos_pi, accuracy):
    # the error names the caller's accuracy, not the half scanned on [0, T]
    with pytest.raises(ValueError, match=re.escape(f"accuracy {accuracy} outside")):
        discriminant_samples(cos_pi, -1.0, 4.0, count=5, accuracy=accuracy)


def test_search_range_respected(zero1):
    spec = find_eigenvalues(zero1, "D", search_range=(5.0, 45.0))
    vals = spec.values()
    assert all(5.0 <= v <= 45.0 for v in vals)
    assert vals[0] == pytest.approx(PI ** 2, abs=1e-8)


def test_eigenvalue_indices_consecutive(cos2_pi):
    spec = find_eigenvalues(cos2_pi, "D", max_count=3)
    assert [e.index for e in spec.eigenvalues] == [0, 1, 2]


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry,name", [
    (lambda p, bad: verify_spectral_decomposition(p, pair_tol=bad), "pair_tol"),
    (lambda p, bad: first_eigenvalue_relations(p, tol=bad), "tol"),
    (lambda p, bad: first_eigenvalue_relations(p, margin=bad), "margin"),
    (lambda p, bad: verify_interlacing(p, margin=bad), "margin"),
], ids=["verify_spectral_decomposition", "first_eigenvalue_relations-tol",
        "first_eigenvalue_relations-margin", "verify_interlacing"])
def test_relation_tolerance_must_be_finite_and_positive(entry, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got "):
        entry(load_builtin("ex1"), bad)


@pytest.mark.parametrize("bad", [0, -1, True, 2.5, math.nan, "3"])
@pytest.mark.parametrize("entry", [verify_spectral_decomposition, verify_interlacing])
def test_relation_count_must_be_a_positive_integer(entry, bad):
    with pytest.raises(ValueError, match="^count must be "):
        entry(load_builtin("ex1"), count=bad)
