import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hillgreen import (
    BC_ALL,
    CATALOG,
    DEFAULT_TOL,
    BoundaryCondition,
    Potential,
    build_green,
    classify_sign,
    clear_cache,
    find_eigenvalues,
    load_builtin,
    predicted_sign_interval,
    sign_threshold_consistency,
    solve_bvp,
    table_slice,
    verify_all,
    verify_identity,
)
from hillgreen import greens, identities, integrator
from hillgreen.comparison import (
    COMPARISON_THEOREMS,
    DOMINANCE_RELATIONS,
    SignReport,
    _sign_class,
    verify_dominance,
    verify_monotonicity,
    verify_solution_comparison,
    zero_set_check,
)
from hillgreen.errors import HypothesisNotMet, ResonanceError
from hillgreen.greens import _node_extrema

from families import family_green
from test_identities import _GENERATED

PI = math.pi
HALF_PI_SQ = (PI / 2) ** 2


# -- sign classification -------------------------------------------------


def test_classify_strict_signs(zero1):
    # a == 0, T = 1: the Dirichlet kernel vanishes on the square's boundary
    # and is negative inside; Neumann is negative below 0 and positive in
    # (0, (pi/2)^2) including the corners
    assert classify_sign(build_green(zero1, 1.0, "D")).classification == "nonpositive_with_zeros"
    assert classify_sign(build_green(zero1, -1.0, "N")).classification == "strictly_negative"
    assert classify_sign(build_green(zero1, 1.0, "N")).classification == "strictly_positive"
    assert classify_sign(build_green(zero1, 1.0, "P")).classification == "strictly_positive"


def test_classify_zeros_on_boundary(zero1):
    # the Dirichlet kernel vanishes on the boundary of the square but is
    # negative inside: nonpositive with zeros
    rep = classify_sign(build_green(zero1, 1.0, "D", n=40), zero_tol=1e-12)
    assert rep.classification == "nonpositive_with_zeros"
    assert rep.max_value <= 1e-12
    assert rep.zero_locations
    for t, s in rep.zero_locations[:5]:
        on_edge = min(t, s) < 1e-12 or max(t, s) > 1.0 - 1e-12
        assert on_edge


def test_zero_locations_are_python_float_pairs(zero1):
    G = build_green(zero1, 1.0, "D", n=40)
    rep = classify_sign(G, zero_tol=1e-12)
    zi, zj = np.nonzero(np.abs(G.combined()) <= 1e-12)
    assert rep.zero_locations == tuple((float(G.grid[i]), float(G.grid[j]))
                                       for i, j in zip(zi, zj))
    assert all(type(x) is float for pt in rep.zero_locations for x in pt)


def test_classify_sign_changing(zero1):
    # above the first antiperiodic eigenvalue the periodic kernel changes sign
    rep = classify_sign(build_green(zero1, 12.0, "P"))
    assert rep.classification == "sign_changing"
    assert rep.min_value < 0 < rep.max_value
    assert not rep.is_nonnegative()
    assert not rep.is_nonpositive()


def test_neumann_corner_zeros():
    # at lam = (pi/2)^2 both mixed spectra of a == 0 coincide, so both
    # Neumann corners hit zero at once; inside the kernel stays positive
    p = Potential.constant(0.0, 1.0)
    G = build_green(p, HALF_PI_SQ, "N", n=50)
    C = G.combined()
    assert abs(C[0, 0]) < 1e-9
    assert abs(C[-1, -1]) < 1e-9
    assert C[10, 10] > 0.1
    rep = classify_sign(G)
    assert rep.classification == "nonnegative_with_zeros"
    corners = {(round(t, 6), round(s, 6)) for t, s in rep.zero_locations}
    assert (0.0, 0.0) in corners
    assert (1.0, 1.0) in corners


def test_sign_report_dict(zero1):
    d = classify_sign(build_green(zero1, 1.0, "N")).as_dict()
    assert d["classification"] == "strictly_positive"
    assert d["min_value"] > 0


def _zero_band_class(values, zero_tol: float) -> str:
    """The classification read entry by entry, zero band included."""
    mn, mx = min(values), max(values)
    zeros = any(-zero_tol <= v <= zero_tol for v in values)
    if mn >= -zero_tol and mx > zero_tol:
        return "nonnegative_with_zeros" if zeros else "strictly_positive"
    if mx <= zero_tol and mn < -zero_tol:
        return "nonpositive_with_zeros" if zeros else "strictly_negative"
    if mn < -zero_tol and mx > zero_tol:
        return "sign_changing"
    return "nonnegative_with_zeros"


_BAND_TOL = 1e-7
# entries in units of the zero tolerance: on its edges, inside it, just
# outside it, and far away
_IN_TOL_UNITS = st.one_of(st.sampled_from([-1.0, 1.0, 0.0, -0.5, 0.5, -2.0, 2.0]),
                          st.floats(-1.0, 1.0), st.floats(-1e8, 1e8))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
              elements=_IN_TOL_UNITS))
@example(np.array([[1.0]]))
@example(np.array([[-1.0]]))
@example(np.array([[0.0]]))
@example(np.array([[3.0]]))
@example(np.array([[-3.0]]))
@example(np.array([[1.0, -1.0], [0.0, 0.5]]))
@example(np.array([[1.0, 5.0], [2.0, 3.0]]))
@example(np.array([[-1.0, -5.0], [-2.0, -3.0]]))
def test_sign_class_matches_zero_band(units):
    vals = units * _BAND_TOL
    got = _sign_class(float(np.min(vals)), float(np.max(vals)), _BAND_TOL)
    assert got == _zero_band_class(vals.ravel().tolist(), _BAND_TOL)


# -- predicted intervals and consistency --------------------------------


def test_predicted_interval_zero_potential(zero1):
    rep = predicted_sign_interval(zero1, "N")
    lo, hi = rep["negative"]
    assert math.isinf(lo) and hi == pytest.approx(0.0, abs=1e-9)
    lo2, hi2 = rep["nonnegative"]
    assert lo2 == pytest.approx(0.0, abs=1e-9)
    assert hi2 == pytest.approx(HALF_PI_SQ, abs=1e-9)
    assert rep["nonnegative_includes_right_endpoint"] is True

    repD = predicted_sign_interval(zero1, "D")
    assert repD["negative"][1] == pytest.approx(PI ** 2, abs=1e-8)
    assert repD["nonnegative"] is None


def test_predicted_interval_rejects_antiperiodic(zero1):
    with pytest.raises(ValueError):
        predicted_sign_interval(zero1, "A")


@pytest.mark.parametrize("bc", ["P", "N", "D", "M1", "M2"])
def test_threshold_consistency(cos_pi, bc):
    rep = sign_threshold_consistency(cos_pi, bc)
    assert rep["pass"] is True
    graded = [s for s in rep["samples"] if s["pass"] is not None]
    assert len(graded) >= 10
    for s in graded:
        assert s["pass"], s


def test_threshold_consistency_skips_a_resonant_lambda(zero1):
    # pi^2 is the first Dirichlet eigenvalue of a = 0 on [0, 1]: no kernel
    # there, so the sample is marked resonant and left ungraded; 5.0 is graded
    rep = sign_threshold_consistency(zero1, "D", lams=[math.pi ** 2, 5.0])
    resonant, graded = rep["samples"]
    assert resonant["lambda"] == math.pi ** 2
    assert resonant["resonant"] is True and resonant["pass"] is None
    assert "classification" not in resonant
    assert graded["lambda"] == 5.0 and "resonant" not in graded
    assert graded["pass"] is True and graded["expected"] == "negative"
    assert rep["graded"] == 1 and rep["pass"] is True


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: classify_sign reads the node table, and just above the first "
    "Dirichlet eigenvalue the kernel changes sign only in thin triangles at the ends "
    "of the diagonal, between nodes; at n = 60 the table reads nonnegative_with_zeros"))
def test_threshold_consistency_just_above_first_dirichlet_eigenvalue():
    # by Sturm's theorem the kernel changes sign for every lambda above the
    # first eigenvalue (0.9180581766...); an n = 600 table reads sign_changing here
    ex3 = load_builtin("ex3")
    lam1 = find_eigenvalues(ex3, "D", max_count=1).values()[0]
    assert sign_threshold_consistency(ex3, "D", lams=[lam1 + 5e-3], n=60)["pass"]


def test_zero_set_check_modes(zero1):
    ok = zero_set_check(build_green(zero1, HALF_PI_SQ, "N", n=40))
    assert ok["applicable"] and ok["pass"]
    changing = zero_set_check(build_green(zero1, 12.0, "P", n=40))
    assert not changing["applicable"]
    assert changing["pass"] is None


# -- kernel dominance ----------------------------------------------------


def test_dominance_catalog_descriptions():
    assert set(COMPARISON_THEOREMS) <= set(DOMINANCE_RELATIONS)
    for rel, entry in DOMINANCE_RELATIONS.items():
        kernel, mode, description = entry
        assert kernel in ("P2", "N2", "D2", "NBASE")
        assert description


@pytest.mark.parametrize("rel,lam", [
    ("nd_nonneg", 1.0),    # extension periodic kernel positive on (0, (pi/2)^2)
    ("nd_neg", -1.0),      # negative below 0
    ("nm1_nonneg", 0.3),   # extension N kernel nonneg on (0, (pi/4)^2]
    ("nm1_neg", -0.5),
    ("m2d", 1.5),          # extension D kernel negative below its first eigenvalue
    ("bound2_p", 1.0),
    ("bound2_n", 1.0),
])
def test_dominance_zero_potential(zero1, rel, lam):
    rep = verify_dominance(zero1, lam, rel, n=60)
    assert rep["pass"], rep
    for chk in rep["checks"]:
        assert chk["min_margin"] > -1e-9


# hypothesis windows for the cosine: the extension kernels stay nonnegative
# only on the sliver between its first periodic and antiperiodic eigenvalues
@pytest.mark.parametrize("rel,lam", [
    ("nd_nonneg", -0.36), ("nd_neg", -0.6), ("nm1_nonneg", -0.37),
    ("nm1_neg", -0.7), ("m2d", 0.3), ("bound2_p", -0.36), ("bound2_n", -0.36),
])
def test_dominance_cosine(cos_pi, rel, lam):
    rep = verify_dominance(cos_pi, lam, rel, n=60)
    assert rep["pass"], rep


def test_dominance_hypothesis_violation(zero1):
    # at lam = 5 > (pi/2)^2 the extension's periodic kernel changes sign
    with pytest.raises(HypothesisNotMet):
        verify_dominance(zero1, 5.0, "nd_nonneg", n=30)


def test_dominance_unknown_relation(zero1):
    with pytest.raises(KeyError):
        verify_dominance(zero1, 0.5, "never_heard_of_it")


# every verifier's tolerance, slack and margin must be finite and positive
BAD_TOLS = [-1.0, 0.0, math.nan, math.inf]
_EX1 = load_builtin("ex1")
_TOL_CALLS = {
    "verify_dominance": ("tol", lambda bad: verify_dominance(_EX1, 1.0, "bound2_p", n=40,
                                                             tol=bad)),
    "verify_solution_comparison": ("slack", lambda bad: verify_solution_comparison(
        _EX1, 1.0, "nd_nonneg", 1.0, 0.5, n=40, slack=bad)),
    "classify_sign": ("zero_tol", lambda bad: classify_sign(
        build_green(load_builtin("ex3"), 0.3, "N", n=40), bad)),
    "zero_set_check": ("zero_tol", lambda bad: zero_set_check(
        build_green(load_builtin("ex3"), 0.3, "N", n=40), bad)),
    "sign_threshold_consistency": ("zero_tol", lambda bad: sign_threshold_consistency(
        _EX1, "D", zero_tol=bad)),
    "verify_monotonicity": ("eps", lambda bad: verify_monotonicity(_EX1, 1.0, "D", eps=bad)),
}


@pytest.mark.parametrize("bad", BAD_TOLS)
@pytest.mark.parametrize("entry", list(_TOL_CALLS))
def test_verifier_tolerance_must_be_finite_and_positive(entry, bad):
    # a NaN tolerance used to flip verdicts silently: bound2_p and nd_nonneg read
    # pass False, and classify_sign read a sign-changing kernel as signed
    name, call = _TOL_CALLS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got "):
        call(bad)


@pytest.mark.parametrize("pad", [math.nan, math.inf, -1.0, -1e-9])
def test_boundary_pad_must_be_finite_and_nonnegative(pad):
    # a NaN or negative pad used to grade the samples it should mark marginal
    with pytest.raises(ValueError, match="^boundary_pad must be finite and nonnegative, got "):
        sign_threshold_consistency(_EX1, "D", lams=[1.0], boundary_pad=pad)


def test_boundary_pad_marks_the_samples_next_to_a_threshold():
    lam1 = find_eigenvalues(_EX1, "D", max_count=1).values()[0]
    lams = [lam1 - 5e-5, lam1 + 5e-5]
    padded = sign_threshold_consistency(_EX1, "D", lams=lams)
    assert [s["marginal"] for s in padded["samples"]] == [True, True] and padded["graded"] == 0
    # a pad of 0 marks none
    bare = sign_threshold_consistency(_EX1, "D", lams=lams, boundary_pad=0.0)
    assert [s["marginal"] for s in bare["samples"]] == [False, False] and bare["graded"] == 2


def test_bound2_reflected_value(zero1):
    # the two-sided bound pins |G_D| and |G_N - G_D| by the reflected
    # extension kernel 2 G_N2(2T - t, s); spot check the reflected factor
    rep = verify_dominance(zero1, 0.8, "bound2_p", n=50)
    names = [c["check"] for c in rep["checks"]]
    assert len(names) == len(set(names))
    assert rep["pass"]


@pytest.mark.parametrize("rel,bc2,bc_other", [("bound2_p", "P", "D"),
                                             ("bound2_n", "N", "M1")])
def test_bound2_reflected_block_matches_full_table(cos_pi, rel, bc2, bc_other):
    # the reflected block G2(2T - t, s) is read from the extension kernel's
    # factors; the margins must be those of the full (2n+1)^2 table
    n, lam = 30, -0.36
    rep = verify_dominance(cos_pi, lam, rel, n=n)
    idx = np.arange(n + 1)
    refl = table_slice(family_green(cos_pi, lam, "even2", bc2, n), 2 * n - idx, idx)
    vn = build_green(cos_pi, lam, "N", n=n).combined()
    vo = build_green(cos_pi, lam, bc_other, n=n).combined()
    want = [np.min(2 * refl - vn), np.min(-vo), np.min(vo + 2 * refl), np.min(refl)]
    bound = 1e-13 * max(1.0, float(np.max(np.abs(refl))))
    got = [c["min_margin"] for c in rep["checks"]]
    assert np.all(np.abs(np.subtract(got, want)) <= bound), (got, want)


def test_dominance_slack_scales_with_kernel():
    # kernels up to |G_N| ~ 37: bound2_p/bound2_n touch equality at a point,
    # so their true margin is 0 and the computed one a rounding-level
    # shortfall (about -1.4e-14) that the slack tol * max(1, max |kernel|)
    # must absorb
    p = Potential.piecewise_constant(
        [0, 0.6019185719374425, 0.9736261699230871, 1.5733157079205473,
         2.3854147395831466],
        [0.9888982366419188, -1.0026844243948319, 0.9725680375976768,
         2.2422521900378056])
    lam = -1.410302725551022
    for rel in ("bound2_p", "bound2_n"):
        rep = verify_dominance(p, lam, rel, n=60)
        assert rep["pass"], rep
        assert rep["tol"] == 1e-9
        assert verify_dominance(p, lam, rel, n=60, tol=1e-12)["pass"]
        # the touching check's true margin is 0: what it reads is rounding
        assert abs(rep["checks"][0]["min_margin"]) <= 1e-13
    # the slack still scales a finite tolerance: at 1e-16 (slack about 4e-15)
    # a check passes exactly when its margin exceeds -1e-16 max |kernel|, the
    # kernels being the Neumann one, its companion and the reflected one
    idx = np.arange(61)
    for rel, refl, other in (("bound2_p", "P", "D"), ("bound2_n", "N", "M1")):
        tables = [build_green(p, lam, bc, n=60).combined() for bc in ("N", other)]
        tables.append(table_slice(family_green(p, lam, "even2", refl, 60), 120 - idx, idx))
        scale = max(float(np.max(np.abs(t))) for t in tables)
        rep = verify_dominance(p, lam, rel, n=60, tol=1e-16)
        assert [c["pass"] for c in rep["checks"]] == \
            [c["min_margin"] > -1e-16 * scale for c in rep["checks"]]


# -- dominance reports against whole tables ------------------------------

_SIGN_WORDS = {"nonneg": ("nonnegative", SignReport.is_nonnegative, "min_value"),
               "neg": ("strictly negative",
                       lambda rep: rep.classification == "strictly_negative", "max_value"),
               "nonpos": ("nonpositive", SignReport.is_nonpositive, "max_value")}
_NAMES = {"N": "Neumann", "D": "Dirichlet", "M1": "first mixed", "M2": "second mixed"}


def _lower(table):
    """The entries of a node table at the pairs s <= t (t the row)."""
    return table[np.tril_indices(len(table))]


def _lower_read(G):
    """G as the library reads it, on the node pairs s <= t: each pair s > t
    takes its mirror's value, so classify_sign sees only pairs s <= t."""
    C = G.combined()
    S = np.tril(C) + np.tril(C, -1).T
    return replace(G, table=S)


def _reference_dominance(p, lam, relation, n, tol=1e-9, whole=False):
    """verify_dominance rebuilt from whole kernel tables, read at the node
    pairs s <= t (at every node pair with ``whole``): build_green (the
    extension's from ``family_green``), classify_sign and table arithmetic."""
    hyp_kind, hyp_sign, description = DOMINANCE_RELATIONS[relation]
    lower, lower_read = (np.ravel, lambda G: G) if whole else (_lower, _lower_read)

    def require(rep, sign, kernel):
        word, holds, field = _SIGN_WORDS[sign]
        if not holds(rep):
            raise HypothesisNotMet(f"{kernel} kernel is not {word} at this lambda",
                                   point=getattr(rep, field))

    if hyp_kind == "NBASE":
        GN = build_green(p, lam, "N", n=n)
        rep = classify_sign(lower_read(GN))
        require(rep, "nonneg", "base Neumann")
        bc2, other = ("P", "D") if relation == "bound2_p" else ("N", "M1")
        idx = np.arange(n + 1)
        refl = lower(table_slice(family_green(p, lam, "even2", bc2, n), 2 * n - idx, idx))
        vn = lower(GN.combined())
        vo = lower(build_green(p, lam, other, n=n).combined())
        tables = (vn, vo, refl)
        results = [("double reflected kernel above Neumann", np.min(2 * refl - vn), False),
                   ("companion kernel nonpositive", np.min(-vo), False),
                   ("companion kernel above minus twice the reflected kernel",
                    np.min(vo + 2 * refl), False),
                   ("reflected kernel nonnegative", np.min(refl), False)]
        hyp = {"kernel": "N on the base interval", "classification": rep.classification}
    else:
        bc = hyp_kind[0]
        kernel = f"{bc} on the even extension"
        rep = classify_sign(lower_read(family_green(p, lam, "even2", bc, n)))
        require(rep, hyp_sign, kernel)
        hyp = {"kernel": kernel, "classification": rep.classification}
        bc1, bc2 = COMPARISON_THEOREMS[relation][2:]
        v1 = lower(build_green(p, lam, bc1, n=n).combined())
        v2 = lower(build_green(p, lam, bc2, n=n).combined())
        tables = (v1, v2)
        n1, n2 = _NAMES[bc1], _NAMES[bc2]
        if hyp_sign == "nonneg":
            results = [(f"{n1} minus |{n2}|", np.min(v1 - np.abs(v2)), False)]
        else:
            results = [(f"{n1} minus {n2} (strict)", np.min(v1 - v2), True),
                       (f"{n1} nonpositive", np.min(-v1), False)]
    slack = tol * max(1.0, max(float(np.max(np.abs(v))) for v in tables))
    checks = [{"check": name, "min_margin": float(margin), "strict": strict,
               "pass": bool(margin > -slack)} for name, margin, strict in results]
    return {"relation": relation, "description": description, "lambda": float(lam),
            "n": n, "tol": tol, "hypothesis": hyp, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisNotMet as exc:
        return ("HypothesisNotMet", str(exc), exc.point)
    except ResonanceError as exc:
        return ("ResonanceError", exc.bc, exc.lam, exc.determinant)


def _assert_dominance_matches_reference(p, lam, n):
    for relation in DOMINANCE_RELATIONS:
        got = _outcome(verify_dominance, p, lam, relation, n)
        assert got == _outcome(_reference_dominance, p, lam, relation, n), relation


# n = 100 gives 201 extension rows: the extremes are read over three full
# 64-row slices and a partial one.  n = 32 (65 extension rows) and n = 64
# (65 base rows) leave a one-node tail, which joins the slice before it.
@pytest.mark.parametrize("name,lam,n", [
    pytest.param(name, lam, n, id=f"{name}-{lam}" + ("" if n == 24 else f"-n{n}"))
    for n in (24, 100, 32, 64)
    for name, lam in [("ex1", 0.3), ("ex1", -0.4), ("ex2", -0.7), ("ex2", 0.6),
                      ("ex3", -0.3), ("ex3", 1.2)]])
def test_dominance_matches_whole_tables(name, lam, n):
    _assert_dominance_matches_reference(load_builtin(name), lam, n=n)


@pytest.mark.parametrize("theorem,lam", [("nd_nonneg", 2.0), ("nd_neg", 0.5),
                                         ("nm1_nonneg", -0.5), ("nm1_neg", 2.0),
                                         ("m2d", 2.0)])
def test_solution_comparison_hypothesis_matches_whole_table(cos_pi, theorem, lam):
    hyp_kind, sign = COMPARISON_THEOREMS[theorem][:2]
    bc = hyp_kind[0]
    rep = classify_sign(_lower_read(family_green(cos_pi, lam, "even2", bc, 100)))
    word, holds, field = _SIGN_WORDS[sign]
    assert not holds(rep)
    kernel = {"P": "periodic", "N": "Neumann", "D": "Dirichlet"}[bc]
    want = ("HypothesisNotMet", f"the extension's {kernel} kernel is not {word}",
            getattr(rep, field))
    assert _outcome(verify_solution_comparison, cos_pi, lam, theorem, 1.0, 0.5, 100) == want


def test_failed_dominance_hypothesis_forms_no_whole_table(cos_pi):
    # the extension's Neumann kernel is not strictly negative at lambda = 2,
    # so only its extremes are read: the peak stays below one 601^2 table
    clear_cache()
    tracemalloc.start()
    try:
        with pytest.raises(HypothesisNotMet):
            verify_dominance(cos_pi, 2.0, "nm1_neg", n=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 601 * 601 * 8


def test_warm_dominance_holds_no_whole_table():
    # margins and slack come from one pass of row slices over the pairs
    # s <= t, so a check holds no (n+1)^2 table (0.72 MB at n = 300; a
    # relation compares two or three)
    p = load_builtin("ex3")
    held = []
    for rel in DOMINANCE_RELATIONS:
        try:
            verify_dominance(p, -0.36, rel, n=300)
        except HypothesisNotMet:
            continue
        tracemalloc.start()
        try:
            verify_dominance(p, -0.36, rel, n=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held.append(rel)
        assert peak < 1e6, (rel, peak)
    assert held == ["nd_nonneg", "m2d", "bound2_p", "bound2_n"]


def test_node_passes_form_only_lower_cells(cos_pi, monkeypatch):
    # every node pass forms, per row slice, the block left of the diagonal
    # and the diagonal square: the catalog's five summed left sides that are
    # not rank 1 (41 base nodes) and the extension's periodic kernel (81
    # nodes), then each relation whose hypothesis holds, over its kernels
    cells = []
    original = greens._node_block

    def counting(*args):
        block = original(*args)
        cells.append(block.size)
        return block

    for module in (greens, identities):
        monkeypatch.setattr(module, "_node_block", counting)

    def lower(size):
        return sum((t.stop - t.start) * t.stop for t in greens._row_slices(size))

    clear_cache()
    verify_all(cos_pi, -0.36, n=40)
    kernels = 0
    for rel in DOMINANCE_RELATIONS:
        if not isinstance(_outcome(verify_dominance, cos_pi, -0.36, rel, 40), tuple):
            kernels += 3 if rel.startswith("bound2") else 2
    assert kernels == 10
    assert sum(cells) == 5 * lower(41) + lower(81) + kernels * lower(41)


# -- the symmetry behind reading s <= t ---------------------------------------

def _node_tables(p, lam, n):
    """(label, whole node table, rounding weight, largest squared row) of
    every kernel a pass reads on the pairs s <= t: the separated base
    kernels, the extension's P, N and D, the extension's P and N at
    (2T - t, s), and the nine summed left sides.  The weight is the
    Frobenius norm of the lower branch matrix, summed over the terms of a
    side (|coef| each).  A resonant kernel is left out."""
    cache = greens._kernel_cache(p, n, lam, DEFAULT_TOL)
    rows = {family: float(np.max(states[0] ** 2 + states[2] ** 2))
            for family, states in ((f, cache._family(f)[1]) for f in greens._FAMILIES)}
    idx = np.arange(n + 1)

    def weight(family, bc):
        return float(np.linalg.norm(cache._branches(family, bc)[0]))

    out = []
    for bc in ("N", "D", "M1", "M2"):
        try:
            out.append((f"base {bc}", build_green(p, lam, bc, n=n).combined(),
                        weight("base", bc), rows["base"]))
        except ResonanceError:
            pass
    for bc in ("P", "N", "D"):
        try:
            G2 = family_green(p, lam, "even2", bc, n)
        except ResonanceError:
            continue
        out.append((f"even2 {bc}", G2.combined(), weight("even2", bc), rows["even2"]))
        if bc != "D":
            out.append((f"even2 {bc} at 2T - t", table_slice(G2, 2 * n - idx, idx),
                        weight("even2", bc), rows["even2"]))
    for ident in CATALOG:
        if len(ident.lhs) > 1:
            try:
                table = sum(t.coef * build_green(p, lam, t.bc, n=n).combined() for t in ident.lhs)
            except ResonanceError:
                continue
            out.append((ident.name, table,
                        sum(abs(t.coef) * weight("base", t.bc) for t in ident.lhs), rows["base"]))
    return out


def _assert_read_kernels_symmetric(p, lam, n):
    eps = math.ulp(1.0)
    tables = _node_tables(p, lam, n)
    assert tables
    undecided = set()
    for label, table, weight, rows in tables:
        rounding = 16 * eps * rows * weight
        assert np.max(np.abs(table - table.T)) <= rounding, label
        # the whole table and its pairs s <= t classify alike, unless an
        # extreme lies within rounding of the zero band's edges, where the
        # classification is rounding's (ex4 at lambda = -5: the extension's
        # D kernel peaks at 3e-6 on the whole table, its rounding is 4e-3)
        whole, half = (np.min(table), np.max(table)), (np.min(_lower(table)), np.max(_lower(table)))
        if all(abs(abs(x) - 1e-7) > rounding for x in whole):
            assert _sign_class(*whole, 1e-7) == _sign_class(*half, 1e-7), label
        else:
            undecided.add(label)
    # the base P and A kernels are symmetric to their basis's Wronskian
    # drift: with det M = 1, K_low J + J K_up^T would vanish; no pass reads
    # them on s <= t
    cache = greens._kernel_cache(p, n, lam, DEFAULT_TOL)
    rows = float(np.max(cache.base[1][0] ** 2 + cache.base[1][2] ** 2))
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for bc in ("P", "A"):
        try:
            G = build_green(p, lam, bc, n=n)
        except ResonanceError:
            continue
        k_low, k_up = G.branches.k_low, G.branches.k_up
        drift = float(np.linalg.norm(k_low @ J + J @ k_up.T))
        assert G.symmetry_error() <= (drift + 16 * eps * np.linalg.norm(k_low)) * rows, bc
    # and a pass over every node pair gives every relation the same verdicts,
    # where its hypothesis kernel's classification is decided
    hypothesis = {"P2": "even2 P", "N2": "even2 N", "D2": "even2 D", "NBASE": "base N"}
    for rel in DOMINANCE_RELATIONS:
        if hypothesis[DOMINANCE_RELATIONS[rel][0]] in undecided:
            continue
        half, whole = (_outcome(_reference_dominance, p, lam, rel, n, 1e-9, full)
                       for full in (False, True))
        assert type(half) is type(whole), rel
        if isinstance(half, tuple):
            assert half[:2] == whole[:2], rel
        else:
            assert (half["hypothesis"], half["pass"], [c["pass"] for c in half["checks"]]) == \
                (whole["hypothesis"], whole["pass"], [c["pass"] for c in whole["checks"]]), rel


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
@pytest.mark.parametrize("lam", [-5.0, -0.7, 0.3, 2.0, 7.3])
def test_read_kernels_are_symmetric(name, lam):
    _assert_read_kernels_symmetric(load_builtin(name), lam, n=40)


@settings(max_examples=8, deadline=None)
@given(_GENERATED, st.floats(-1.5, 3.0))
def test_read_kernels_are_symmetric_generated(p, lam):
    _assert_read_kernels_symmetric(p, lam, n=40)


@settings(max_examples=6, deadline=None)
@given(st.one_of(
    st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
              st.floats(0.5, 2.0)).map(
        lambda vl: Potential.piecewise_constant(
            np.linspace(0.0, vl[1], len(vl[0]) + 1), vl[0])),
    st.tuples(st.floats(0.5, 3.0), st.floats(-1.0, 1.0), st.floats(0.2, 2.0),
              st.floats(0.5, 3.0)).map(
        lambda c: Potential.cosine(c[0], c0=c[1], c1=c[2], omega=c[3]))),
    st.floats(-1.5, 3.0))
# the extension's N kernel: its rank-1 and whole-table maxima parted by 1.3e-13
# relative while the rank-1 factor was a matrix-vector product
@example(Potential.cosine(2.960832270272661, c1=1.8391118525777364, omega=1.1032198171114473),
         -0.25)
def test_dominance_matches_whole_tables_generated(p, lam):
    _assert_dominance_matches_reference(p, lam, n=12)


def test_dominance_reads_node_states_once(cos_pi, trajectory_calls):
    # cold cache: one trajectory call of n + 1 nodes on the base basis, whose
    # states give the extension's as well
    assert verify_dominance(cos_pi, -0.36, "nd_nonneg", n=40)["pass"]
    assert trajectory_calls == [41]
    # the node states stay with the cached bases
    trajectory_calls.clear()
    assert verify_dominance(cos_pi, -0.36, "bound2_p", n=40)["pass"]
    assert trajectory_calls == []


def test_relation_pair_takes_hypothesis_extremes_once(cos_pi, monkeypatch):
    # nd_nonneg and nd_neg read the same extension kernel; its extremes are
    # kept in the kernel workspace, and clear_cache drops them with it
    calls = []
    original = greens._node_extrema
    monkeypatch.setattr(greens, "_node_extrema",
                        lambda *args: calls.append(1) or original(*args))

    def both():
        for rel in ("nd_nonneg", "nd_neg"):
            try:
                verify_dominance(cos_pi, -0.36, rel, n=40)
            except HypothesisNotMet:
                pass

    clear_cache()
    both()
    assert len(calls) == 1
    both()
    assert len(calls) == 1
    clear_cache()
    both()
    assert len(calls) == 2


def test_kernel_checks_build_no_tables(cos_pi, build_green_calls):
    # every kernel the dominance and solution checks compare is read from
    # rank-2 factors; none goes through a whole build_green table
    lams = {"nd_nonneg": -0.36, "nd_neg": -0.6, "nm1_nonneg": -0.37, "nm1_neg": -0.7,
            "m2d": 0.3, "bound2_p": -0.36, "bound2_n": -0.36}
    for rel in DOMINANCE_RELATIONS:
        assert verify_dominance(cos_pi, lams[rel], rel, n=30)["pass"], rel
    for thm in COMPARISON_THEOREMS:
        assert verify_solution_comparison(cos_pi, lams[thm], thm, 1.0, 1.0, n=30)["pass"], thm
    assert build_green_calls == []
    # the fixture does count the library's own calls
    assert verify_monotonicity(cos_pi, -2.0, "N", n=10)["pass"]
    assert build_green_calls == [BoundaryCondition.NEUMANN] * 2


# -- one kernel workspace per (basis, n) -----------------------------------

def _comparison_outcomes(p, lam, n):
    """Every dominance relation and every solution theorem, with (1, 1/2) as forcings."""
    return ([_outcome(verify_dominance, p, lam, rel, n) for rel in DOMINANCE_RELATIONS]
            + [_outcome(verify_solution_comparison, p, lam, thm, 1.0, 0.5, n)
               for thm in COMPARISON_THEOREMS])


def _assert_order_free(p, lam, n):
    # the comparisons read the same reports whether or not the catalog pass
    # recorded kernel extremes first; what it recorded is _node_extrema's,
    # exactly, from a separated kernel's rank-1 factors as well
    clear_cache()
    alone = _comparison_outcomes(p, lam, n)
    clear_cache()
    verify_all(p, lam, n=n)
    cache = greens._kernel_cache(p, n, lam, DEFAULT_TOL)
    recorded = dict(cache._extrema)
    assert _comparison_outcomes(p, lam, n) == alone
    for (family, bc), extremes in recorded.items():
        lo, hi = _node_extrema(cache._family(family)[1], cache._branches(family, bc)[0][None])
        # equal as numbers: a zero extreme may differ in sign only
        assert extremes == (lo[0], hi[0]), (family, bc)
    return recorded


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
@pytest.mark.parametrize("lam", [-0.36, 0.3, 2.0])
def test_comparisons_do_not_depend_on_call_order(name, lam):
    recorded = _assert_order_free(load_builtin(name), lam, n=30)
    assert set(recorded) == {("base", bc) for bc in ("N", "D", "M1", "M2")} | {("even2", "P")}


@settings(max_examples=5, deadline=None)
@given(_GENERATED, st.floats(-1.5, 3.0))
def test_comparisons_do_not_depend_on_call_order_generated(p, lam):
    _assert_order_free(p, lam, n=12)


@pytest.fixture
def workspace_builds(monkeypatch):
    """n of every kernel workspace built in the test, from an empty cache."""
    clear_cache()
    calls = []
    original = greens._KernelCache.__init__

    def counting(self, basis, n):
        calls.append(n)
        original(self, basis, n)

    monkeypatch.setattr(greens._KernelCache, "__init__", counting)
    return calls


def test_catalog_and_comparisons_share_one_workspace(cos_pi, trajectory_calls,
                                                     workspace_builds):
    verify_all(cos_pi, -0.36, n=40)
    for bc in BC_ALL:
        build_green(cos_pi, -0.36, bc, n=40)
    for rel in DOMINANCE_RELATIONS:
        _outcome(verify_dominance, cos_pi, -0.36, rel, 40)
    for thm in COMPARISON_THEOREMS:
        _outcome(verify_solution_comparison, cos_pi, -0.36, thm, 1.0, 0.5, 40)
    assert verify_solution_comparison(cos_pi, -0.36, "nd_nonneg", 1.0, 0.5, n=40)["pass"]
    verify_identity("NP", cos_pi, -0.36, n=40)
    assert workspace_builds == [40]
    # one trajectory call on the 41 nodes of the grid; solve_bvp reads others
    assert trajectory_calls.count(41) == 1
    # another n has its own; clear_cache drops both
    verify_identity("NP", cos_pi, -0.36, n=20)
    verify_all(cos_pi, -0.36, n=40)
    assert workspace_builds == [40, 20]
    clear_cache()
    verify_all(cos_pi, -0.36, n=40)
    assert workspace_builds == [40, 20, 40]


def test_catalog_extremes_serve_the_hypotheses(cos_pi, monkeypatch):
    # verify_all records the extremes of the extension's periodic kernel, and
    # the separated hypothesis kernels (the base Neumann kernel and the
    # extension's Neumann and Dirichlet ones) take theirs from rank-1 factors,
    # so after it no hypothesis takes a pass over the nodes; the passes are
    # the catalog's, over the summed left sides that are not rank 1, and the
    # workspace's, over the periodic kernel
    calls = []
    original = greens._node_extrema
    monkeypatch.setattr(greens, "_node_extrema",
                        lambda states, k: calls.append(states.shape[1]) or original(states, k))
    clear_cache()
    verify_all(cos_pi, -0.36, n=40)
    assert calls == [41, 81]
    for rel in DOMINANCE_RELATIONS:
        _outcome(verify_dominance, cos_pi, -0.36, rel, 40)
    assert calls == [41, 81]


def test_workspace_memo_is_bounded(cos_pi, monkeypatch):
    clear_cache()
    grids = 4
    monkeypatch.setattr(integrator, "_CACHE_MAX", grids)

    def cached():
        return [key[3] for key in integrator._WORKSPACES]

    for n in range(1, grids + 3):
        greens._kernel_cache(cos_pi, n, 0.29, DEFAULT_TOL)
    assert cached() == list(range(3, grids + 3))
    # a hit becomes the most recently used
    greens._kernel_cache(cos_pi, 3, 0.29, DEFAULT_TOL)
    kept = [*range(4, grids + 3), 3]
    assert cached() == kept
    # each kept workspace is bounded as well: the largest grid it keeps has
    # _NODE_STATES nodes
    big = integrator._NODE_STATES - 1
    greens._kernel_cache(cos_pi, big, 0.29, DEFAULT_TOL)
    assert cached() == [*kept[1:], big]
    # a grid beyond _NODE_STATES nodes is built on every call and kept by none
    assert (greens._kernel_cache(cos_pi, big + 1, 0.29, DEFAULT_TOL)
            is not greens._kernel_cache(cos_pi, big + 1, 0.29, DEFAULT_TOL))
    assert cached() == [*kept[1:], big]


def test_threads_on_one_basis_read_one_workspace(cos_pi):
    clear_cache()
    want = _comparison_outcomes(cos_pi, -0.36, 40)
    clear_cache()
    results = {}

    def work(k):
        results[k] = _comparison_outcomes(cos_pi, -0.36, 40)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results.get(k) for k in range(4)] == [want] * 4
    assert list(integrator._WORKSPACES) == [(cos_pi, -0.36, DEFAULT_TOL, 40)]


@pytest.mark.parametrize("bc,lam,expected", [
    ("N", 1.0, "strictly_positive"),
    ("N", -1.0, "strictly_negative"),
    ("D", 1.0, "nonpositive_with_zeros"),   # zeros on the square's boundary
    ("N", 5.0, "sign_changing"),
])
def test_classify_sign_matches_brute_force(zero1, bc, lam, expected):
    G = build_green(zero1, lam, bc, n=30)
    for zero_tol in (1e-12, 1e-7, 1e-2):
        values = [(float(t), float(s), float(G.combined()[i, j]))
                  for i, t in enumerate(G.grid) for j, s in enumerate(G.grid)]
        mn = min(v for _, _, v in values)
        mx = max(v for _, _, v in values)
        zeros = tuple((t, s) for t, s, v in values if abs(v) <= zero_tol)
        cls = _zero_band_class([v for _, _, v in values], zero_tol)
        want = SignReport(cls, mn, mx, zeros, zero_tol)
        assert classify_sign(G, zero_tol) == want
        if zero_tol == 1e-7:
            assert cls == expected


# -- solution comparisons ------------------------------------------------


def test_solution_comparison_absolute(zero1):
    # lam = 1, sigma1 = 1, sigma2 = sin(2 pi t): |u_D| <= u_N pointwise
    rep = verify_solution_comparison(zero1, 1.0, "nd_nonneg", 1.0,
                                     lambda t: math.sin(2 * PI * t), n=100)
    assert rep["pass"], rep
    assert rep["case"] == "absolute"


def test_solution_comparison_ordered(zero1):
    # lam = -1, sigma1 = sigma2 = 1: both solutions nonpositive and
    # u_N <= u_D <= 0
    rep = verify_solution_comparison(zero1, -1.0, "nd_neg", 1.0, 1.0, n=100)
    assert rep["pass"], rep
    u_n = solve_bvp(zero1, -1.0, "N", 1.0, n=100)
    u_d = solve_bvp(zero1, -1.0, "D", 1.0, n=100)
    assert np.all(u_n.values <= u_d.values + 1e-12)
    assert np.all(u_d.values <= 1e-12)


def test_solution_comparison_zero_sigma2(zero1):
    # sigma2 = 0 forces u_D = 0 while u_N >= 0 stays
    rep = verify_solution_comparison(zero1, 1.0, "nd_nonneg", 1.0, 0.0, n=80)
    assert rep["pass"], rep
    u_d = solve_bvp(zero1, 1.0, "D", 0.0, n=80)
    assert np.max(np.abs(u_d.values)) < 1e-12


@pytest.mark.parametrize("thm,lam", [
    ("nm1_nonneg", 0.3), ("nm1_neg", -0.5), ("m2d", 1.0),
])
def test_solution_comparison_mixed(zero1, thm, lam):
    rep = verify_solution_comparison(zero1, lam, thm, 1.0,
                                     lambda t: 0.5 * math.cos(t), n=80)
    assert rep["pass"], rep


def test_solution_comparison_forcing_hypothesis(zero1):
    # sigma2 exceeding sigma1 in magnitude violates the forcing hypothesis
    with pytest.raises(HypothesisNotMet) as err:
        verify_solution_comparison(zero1, 1.0, "nd_nonneg", 0.2, 1.0, n=40)
    assert err.value.point is not None


def test_solution_comparison_unordered_forcings(zero1):
    # sigma2 = 2 - 4t crosses zero, so neither ordering holds; the first
    # node that breaks 0 <= sigma2 <= sigma1 is t = 0, where sigma2 > sigma1
    assert _outcome(verify_solution_comparison, zero1, -1.0, "nd_neg", 1.0,
                    lambda t: 2.0 - 4.0 * t) == (
        "HypothesisNotMet",
        "forcings are not ordered as 0 <= sigma2 <= sigma1 nor 0 >= sigma2 >= sigma1", 0.0)


def test_solution_comparison_unknown_theorem(zero1):
    with pytest.raises(KeyError) as err:
        verify_solution_comparison(zero1, -1.0, "nd", 1.0, 1.0)
    assert err.value.args[0] == ("unknown theorem 'nd'; choices: "
                                 "m2d, nd_neg, nd_nonneg, nm1_neg, nm1_nonneg")


def test_solution_comparison_kernel_hypothesis(zero1):
    with pytest.raises(HypothesisNotMet):
        verify_solution_comparison(zero1, 5.0, "nd_nonneg", 1.0, 0.5, n=40)


def test_solution_comparison_cosine(cos_pi):
    rep = verify_solution_comparison(cos_pi, -0.36, "nd_nonneg", 1.0,
                                     lambda t: 0.7 * math.sin(t), n=80)
    assert rep["pass"], rep


def test_array_forcings_sample_each_entry_points_grid():
    # verify_solution_comparison takes an array forcing as samples on its n + 1
    # nodes, interpolated linearly; solve_bvp takes samples on 4n + 1 nodes
    p, lam, n = load_builtin("ex3"), -2.0, 20
    L = p.domain_length
    t, fine = np.linspace(0.0, L, n + 1), np.linspace(0.0, L, 4 * n + 1)
    s1, s2 = 1.0 + 0.5 * np.sin(t), 0.5 + 0.25 * np.sin(t)
    rep = verify_solution_comparison(p, lam, "nd_neg", s1, s2, n=n)
    assert rep == verify_solution_comparison(p, lam, "nd_neg", lambda x: np.interp(x, t, s1),
                                             lambda x: np.interp(x, t, s2), n=n)
    with pytest.raises(ValueError, match="sigma array must match the grid of 21 nodes"):
        verify_solution_comparison(p, lam, "nd_neg", 1.0 + 0.5 * np.sin(fine), 0.5, n=n)
    assert solve_bvp(p, lam, "N", 1.0 + 0.5 * np.sin(fine), n=n).values.shape == (n + 1,)
    with pytest.raises(ValueError, match="sigma array must match the grid of 81 nodes"):
        solve_bvp(p, lam, "N", s1, n=n)


# -- monotonicity --------------------------------------------------------


@pytest.mark.parametrize("bc,lam", [("D", 1.0), ("N", -1.0), ("M1", 0.5)])
def test_monotonicity_in_lambda(zero1, bc, lam):
    # within a constant-sign window the kernel decreases pointwise in lam
    rep = verify_monotonicity(zero1, lam, bc, eps=0.1, n=50)
    assert rep["pass"], rep


# -- report layout -------------------------------------------------------

# Ordered (check, strict) names of every dominance report and of every case
# of every solution theorem (solution checks carry no strict flag).  The
# CLI's compare JSON and downstream consumers read checks by position.
_BOUND2 = [("double reflected kernel above Neumann", False),
           ("companion kernel nonpositive", False),
           ("companion kernel above minus twice the reflected kernel", False),
           ("reflected kernel nonnegative", False)]
REPORT_LAYOUT = [
    ("dominance", "nd_nonneg", 1.0, None, [("Neumann minus |Dirichlet|", False)]),
    ("dominance", "nd_neg", -1.0, None, [("Dirichlet minus Neumann (strict)", True),
                                         ("Dirichlet nonpositive", False)]),
    ("dominance", "nm1_nonneg", 0.3, None, [("Neumann minus |first mixed|", False)]),
    ("dominance", "nm1_neg", -0.5, None, [("first mixed minus Neumann (strict)", True),
                                          ("first mixed nonpositive", False)]),
    ("dominance", "m2d", 1.5, None, [("Dirichlet minus second mixed (strict)", True),
                                     ("Dirichlet nonpositive", False)]),
    ("dominance", "bound2_p", 1.0, None, _BOUND2),
    ("dominance", "bound2_n", 1.0, None, _BOUND2),
    ("solution", "nd_nonneg", 1.0, "absolute", [("|u_D| <= u_N", None)]),
    ("solution", "nd_neg", -1.0, "nonnegative", [("u_N <= u_D", None), ("u_D <= 0", None)]),
    ("solution", "nd_neg", -1.0, "nonpositive", [("u_D <= u_N", None), ("u_D >= 0", None)]),
    ("solution", "nm1_nonneg", 0.3, "absolute", [("|u_M1| <= u_N", None)]),
    ("solution", "nm1_neg", -0.5, "nonnegative", [("u_N <= u_M1", None),
                                                  ("u_M1 <= 0", None)]),
    ("solution", "nm1_neg", -0.5, "nonpositive", [("u_M1 <= u_N", None),
                                                  ("u_M1 >= 0", None)]),
    ("solution", "m2d", 1.0, "nonnegative", [("u_M2 <= u_D", None), ("u_D <= 0", None)]),
    ("solution", "m2d", 1.0, "nonpositive", [("u_D <= u_M2", None), ("u_D >= 0", None)]),
]
_CASE_FORCINGS = {"absolute": (1.0, 0.5), "nonnegative": (1.0, 0.5),
                  "nonpositive": (-1.0, -0.5)}


@pytest.mark.parametrize("level,name,lam,case,expected", REPORT_LAYOUT)
def test_report_layout(zero1, level, name, lam, case, expected):
    covered = {lv: {row[1] for row in REPORT_LAYOUT if row[0] == lv}
               for lv in ("dominance", "solution")}
    assert covered == {"dominance": set(DOMINANCE_RELATIONS),
                       "solution": set(COMPARISON_THEOREMS)}
    if level == "dominance":
        rep = verify_dominance(zero1, lam, name, n=20)
    else:
        rep = verify_solution_comparison(zero1, lam, name, *_CASE_FORCINGS[case], n=20)
        assert rep["case"] == case
    assert [(c["check"], c.get("strict")) for c in rep["checks"]] == expected


@pytest.mark.xfail(strict=True, reason=(
    "nd_neg puts the larger forcing on the Dirichlet problem; its kernel is "
    "the upper one, so u_N[sigma2] <= u_D[sigma1] fails for sigma1 > sigma2 >= 0"))
def test_solution_comparison_ordered_unequal_forcings(zero1):
    # hypothesis holds (extension periodic kernel negative at lam = -1) and
    # 0 <= sigma2 <= sigma1, yet u_D[1] >= u_N[0] = 0 cannot be <= 0 and
    # the reported margin is about -0.113
    rep = verify_solution_comparison(zero1, -1.0, "nd_neg", 1.0, 0.0, n=100)
    assert rep["case"] == "nonnegative"
    assert rep["pass"], rep
