import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hillgreen import (
    BC_ALL,
    CATALOG,
    COMPARISON_THEOREMS,
    DOMINANCE_RELATIONS,
    IDENTITY_NAMES,
    BoundaryCondition,
    Potential,
    build_green,
    find_eigenvalues,
    kernel_value,
    load_builtin,
    table_slice,
    verify_all,
    verify_dominance,
    verify_identity,
    verify_solution_comparison,
)
from hillgreen import clear_cache, greens, identities, integrator
from hillgreen.errors import HypothesisNotMet, ResonanceError

from families import family_green

# lambda values kept away from every eigenvalue of the six conditions
SAFE_LAMS = {
    "zero1": (0.37, -0.8, 2.1),
    "pw2": (0.42, -0.55, 1.3),
    "cos_pi": (0.29, -0.9, 1.7),
    "cos2_pi": (0.31, -1.1, 1.9),
}


def test_catalog_names_unique():
    assert len(IDENTITY_NAMES) == len(set(IDENTITY_NAMES))
    assert len(CATALOG) == 20
    for ident in CATALOG:
        assert ident.note


@pytest.mark.parametrize("name", ["zero1", "pw2", "cos_pi", "cos2_pi"])
def test_all_identities_hold(request, name):
    p = request.getfixturevalue(name)
    for lam in SAFE_LAMS[name]:
        reports = verify_all(p, lam, n=60)
        bad = [r for r in reports if not r.skipped and not r.passed]
        skipped = [r for r in reports if r.skipped]
        assert not bad, [(r.identity_id, r.residual) for r in bad]
        assert not skipped, [(r.identity_id, r.reason) for r in skipped]


def test_residual_shrinks_with_tolerance(cos_pi):
    # node-exact evaluation: residual tracks integrator accuracy, not n
    loose = verify_identity("SUM", cos_pi, 0.29, n=50, integrator_tol=1e-7)
    tight = verify_identity("SUM", cos_pi, 0.29, n=50, integrator_tol=1e-12)
    assert tight.residual < loose.residual or tight.residual < 1e-10


def test_grid_refinement_stays_small(pw2):
    for n in (50, 100, 200):
        rep = verify_identity("NP", pw2, 0.42, n=n)
        assert rep.passed
        assert rep.residual < 1e-8


def test_single_identity_spot_check(zero1):
    # NP by hand at one off-grid point pair: G_N[a](t,s) =
    # G_P[ext](t,s) + G_P[ext](t, 2L - s) with ext on [0, 2]
    lam = 0.37
    ext = zero1.even_extension()
    t, s = 0.3, 0.7
    lhs = kernel_value(zero1, lam, "N", t, s)
    rhs = (kernel_value(ext, lam, "P", t, s)
           + kernel_value(ext, lam, "P", t, 2.0 - s))
    assert lhs == pytest.approx(rhs, abs=1e-10)
    # and the hand trig formula agrees too
    m = math.sqrt(lam)
    want = math.cos(m * min(t, s)) * math.cos(m * (1 - max(t, s))) / (m * math.sin(m))
    assert lhs == pytest.approx(want, abs=1e-10)


def test_mixed_identity_spot_check(zero1):
    # M1A: G_M1[a](t,s) = G_A[ext](t,s) - G_A[ext](2T - t, s)
    lam = 0.42
    ext = zero1.even_extension()
    t, s = 0.25, 0.6
    lhs = kernel_value(zero1, lam, "M1", t, s)
    rhs = (kernel_value(ext, lam, "A", t, s)
           - kernel_value(ext, lam, "A", 2.0 - t, s))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_reflection_identity_spot_check(cos_pi):
    # REFL ties the kernel of the reflected potential to the original:
    # G[a^refl](t,s) = G[a](T - t, T - s) for any separated condition pair
    lam = 0.29
    L = cos_pi.domain_length
    refl = cos_pi.reflect()
    for t, s in ((0.3, 1.1), (2.0, 0.4)):
        assert kernel_value(refl, lam, "D", t, s) == pytest.approx(
            kernel_value(cos_pi, lam, "D", L - t, L - s), abs=1e-10)


def test_skip_at_resonance(zero1):
    # lambda = 0 is a Neumann and periodic eigenvalue of a == 0; identities
    # needing those kernels must skip rather than fail
    reports = verify_all(zero1, 0.0, n=40)
    by_id = {r.identity_id: r for r in reports}
    assert by_id["NP"].skipped
    assert by_id["NP"].reason
    assert by_id["NP"].passed is None
    # the purely antiperiodic/mixed ones survive
    assert by_id["M1A"].passed
    assert by_id["M2A"].passed


def test_verify_identity_rejects_unknown(cos_pi):
    with pytest.raises(KeyError):
        verify_identity("NOPE", cos_pi, 0.3)


def test_report_as_dict(cos_pi):
    rep = verify_identity("DD", cos_pi, 0.29, n=40)
    d = rep.as_dict()
    assert d["id"] == "DD"
    assert d["pass"] is True
    assert d["skipped"] is False
    assert d["residual"] <= 1e-6 * max(1.0, d["lhs_scale"])



# -- equivalence with full kernel tables ----------------------------------

def _reference_reports(p, lam, n, tol=1e-6):
    """The catalog evaluated from whole kernel tables and table_slice gathers:
    build_green for the base family, ``family_green`` for the others.

    Returns (identity_id, residual, lhs_scale, passed, skipped, reason) per
    identity, the reason worded as verify_all words a resonant constituent:
    lhs_scale is max |lhs| over the node pairs s <= t, where verify_all defines
    it, and the residual max |lhs - rhs| over the whole square.
    """
    L = p.domain_length
    labels = {"base": (L, "base interval"), "even2": (2 * L, "even extension"),
              "even4": (4 * L, "doubled even extension"), "refl": (L, "reflected potential")}
    maps = {"id": lambda i: i, "r2": lambda i: 2 * n - i, "rT": lambda i: n - i}
    kernels = {}

    def kernel(family, bc):
        if (family, bc) not in kernels:
            length_f, label = labels[family]
            try:
                kernels[family, bc] = (build_green(p, lam, bc, n=n) if family == "base" else
                                       family_green(p, lam, family, bc, n))
            except ResonanceError:
                kernels[family, bc] = (
                    f"{BoundaryCondition.parse(bc).condition} problem on "
                    f"[0, {length_f:g}] ({label}) is resonant at lambda = {float(lam)!r}")
        return kernels[family, bc]

    out = []
    for ident in CATALOG:
        idx = np.arange(2 * n + 1 if ident.domain == "even2" else n + 1)
        sides, reason = [], None
        for terms in (ident.lhs, ident.rhs):
            total = 0.0
            for term in terms:
                G = kernel(term.family, term.bc)
                if isinstance(G, str):
                    reason = G
                    break
                total = total + term.coef * table_slice(G, maps[term.tmap](idx),
                                                        maps[term.smap](idx))
            if reason is not None:
                break
            sides.append(total)
        if reason is not None:
            out.append((ident.name, None, None, None, True, reason))
            continue
        residual = float(np.max(np.abs(sides[0] - sides[1])))
        scale = float(np.max(np.abs(sides[0])[np.tril_indices(idx.size)]))
        out.append((ident.name, residual, scale, residual <= tol * max(1.0, scale),
                    False, None))
    return out


def _assert_matches_reference(p, lam, n):
    """verify_all against the full tables: verdict, skip and reason equal, and
    lhs_scale within 1e-12 relative of the reference's.  A residual the filter
    certified bounds the full-table one; one from the node evaluation equals it
    bit for bit, as every step of both is exact or the same rounding."""
    with mock.patch.object(identities, "_node_report", wraps=identities._node_report) as node:
        reports = verify_all(p, lam, n=n)
    exact = {call.args[1].name for call in node.call_args_list}
    want = _reference_reports(p, lam, n)
    assert len(reports) == len(want)
    for rep, (name, residual, scale, passed, skipped, reason) in zip(reports, want):
        assert (rep.identity_id, rep.n, rep.tol, rep.passed, rep.skipped, rep.reason) == \
            (name, n, 1e-6, passed, skipped, reason)
        if skipped:
            continue
        assert abs(rep.lhs_scale - scale) <= 1e-12 * scale, name
        if name in exact:
            assert rep.residual == residual, name
        else:
            assert rep.residual >= residual, name
    return reports


# n = 100 gives 201 rows on the extension's grid, more than three 64-row slices
@pytest.mark.parametrize("name,lam,n", [
    pytest.param(name, lam, n, id=f"{name}-{lam}" + ("" if n == 30 else f"-n{n}"))
    for n in (30, 100)
    for name, lam in [("ex1", 0.3), ("ex2", -0.7), ("ex3", 2.0), ("ex4", 0.3)]])
def test_factored_catalog_matches_full_tables(name, lam, n):
    reports = _assert_matches_reference(load_builtin(name), lam, n=n)
    assert all(r.passed for r in reports)


def test_factored_catalog_matches_full_tables_restricted(cos_pi):
    _assert_matches_reference(cos_pi.restrict(0.6 * math.pi), 0.2, n=24)


def test_factored_catalog_matches_full_tables_at_resonance(zero1):
    reports = _assert_matches_reference(zero1, 0.0, n=20)
    assert any(r.skipped for r in reports) and not all(r.skipped for r in reports)


# generated steps and cosines
_GENERATED = st.one_of(
    st.tuples(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=4),
              st.floats(0.5, 2.0)).map(
        lambda vl: Potential.piecewise_constant(
            np.linspace(0.0, vl[1], len(vl[0]) + 1), vl[0])),
    st.tuples(st.floats(0.5, 3.0), st.floats(-1.0, 1.0), st.floats(0.2, 2.0),
              st.floats(0.5, 3.0)).map(
        lambda c: Potential.cosine(c[0], c0=c[1], c1=c[2], omega=c[3])))


@settings(max_examples=6, deadline=None)
@given(_GENERATED, st.floats(-1.5, 3.0))
# the whole square's max |REFL lhs| is 5.5e-12 relative above the s <= t one here
@example(Potential.cosine(2.5, c0=-0.75, c1=0.25, omega=0.75), -1.0)
def test_factored_catalog_matches_full_tables_generated(p, lam):
    _assert_matches_reference(p, lam, n=16)


def _read(call) -> str:
    """A kernel value's bits as hex, or a ResonanceError's text."""
    try:
        return float(call()).hex()
    except ResonanceError as exc:
        return f"resonant: {exc}"


@settings(max_examples=8, deadline=None)
@given(_GENERATED, st.floats(-1.5, 3.0), st.sampled_from(BC_ALL),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_kernel_value_reads_build_greens_kernel(p, lam, bc, x, y):
    # one path to a numerical kernel value: kernel_value is build_green's
    # kernel read at (t, s), bit for bit, and at an eigenvalue of bc both
    # raise the same ResonanceError; kernel_value keeps no kernel workspace
    t, s = x * p.domain_length, y * p.domain_length
    first = find_eigenvalues(p, bc, max_count=1).first()
    for at in (lam, first):
        kept = list(integrator._WORKSPACES)
        one = _read(lambda: kernel_value(p, at, bc, t, s))
        assert list(integrator._WORKSPACES) == kept
        assert one == _read(lambda: build_green(p, at, bc, n=7).value(t, s))
    assert one.startswith("resonant: ")


# -- derived families against direct integration ---------------------------

_DIRECT = {"even2": Potential.even_extension,
           "even4": lambda p: p.even_extension().even_extension(),
           "refl": Potential.reflect}


def _assert_derived_matches_direct(p, lam, n):
    """Every derived family's node table, all six conditions, against
    build_green on the family's potential integrated directly: within
    1e-8 max(1, max |G|) times the kernel's two condition factors,
    max(1, 1e-2 / resonance margin) and max(1, max |M|), which grow near
    resonance and with growing solutions.  A resonant kernel must be
    resonant on both routes."""
    for family, make in _DIRECT.items():
        pieces = greens._FAMILIES[family][0] * n
        idx = np.arange(min(pieces, 2 * n) + 1)
        for bc in BC_ALL:
            try:
                direct = build_green(make(p), lam, bc, n=pieces)
            except ResonanceError:
                with pytest.raises(ResonanceError):
                    family_green(p, lam, family, bc, n)
                continue
            want = table_slice(direct, idx, idx)
            got = family_green(p, lam, family, bc, n).combined()
            err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
            growth = np.max(np.abs(direct.branches.basis.monodromy))
            bound = 1e-8 * max(1.0, 1e-2 / direct.meta["resonance_margin"]) * max(1.0, growth)
            assert err <= bound, (family, bc, err, bound)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
@pytest.mark.parametrize("lam", [0.3, -0.9, 2.0])
def test_derived_families_match_direct_integration(name, lam):
    _assert_derived_matches_direct(load_builtin(name), lam, n=30)


@settings(max_examples=8, deadline=None)
@given(_GENERATED, st.floats(-1.5, 3.0))
def test_derived_families_match_direct_integration_generated(p, lam):
    _assert_derived_matches_direct(p, lam, n=12)


# -- work counts -----------------------------------------------------------

def test_verify_all_one_trajectory_per_family(trajectory_calls):
    # one call of n + 1 nodes on the base basis serves all four families,
    # here through the exact-step dense output of a piecewise constant potential
    verify_all(load_builtin("ex1"), 0.29, n=40)
    assert trajectory_calls == [41]


def test_verify_identity_one_trajectory_per_family(cos_pi, trajectory_calls):
    # every family's node states are derived from the base basis's
    verify_identity("NP", cos_pi, 0.29, n=40)
    assert trajectory_calls == [41]
    clear_cache()
    trajectory_calls.clear()
    verify_all(cos_pi, 0.29, n=40)
    assert trajectory_calls == [41]


def test_verify_all_integrates_only_the_base(monkeypatch):
    # the extension, doubled extension and reflected families take no
    # integration of their own: one Magnus basis, and no solve_ivp call
    calls, builds = [], []
    original, build = integrator.solve_ivp, integrator._magnus_basis
    monkeypatch.setattr(integrator, "solve_ivp",
                        lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
    monkeypatch.setattr(integrator, "_magnus_basis", lambda *args: builds.append(1) or build(*args))
    clear_cache()
    verify_all(load_builtin("ex3"), 0.37, n=40)
    assert calls == [] and builds == [1]


def test_certified_catalog_forms_no_node_block(cos_pi, monkeypatch):
    # every identity is certified by its 2x2 algebra: no node block is formed
    # for a residual, and the only node passes are one for the five multi-term
    # left sides that are not rank 1 (41 base nodes) and one for the
    # extension's periodic kernel, REFL's left side (81 nodes); the separated
    # kernels and the sums N +- M1 and M2 +- D take O(n) extremes
    blocks, passes = [], []
    monkeypatch.setattr(identities, "_node_block", lambda *args: blocks.append(1))
    original = greens._node_extrema
    monkeypatch.setattr(greens, "_node_extrema", lambda states, k_low: passes.append(
        (states.shape[1], k_low.shape)) or original(states, k_low))
    reports = verify_all(cos_pi, 0.29, n=40)
    assert all(r.passed for r in reports)
    assert blocks == []
    assert passes == [(41, (5, 2, 2)), (81, (1, 2, 2))]


def test_verify_all_holds_no_whole_side(cos_pi):
    # with warm bases only row slices are formed; holding every side whole
    # peaks near 9.7 MB here
    verify_all(cos_pi, 0.29, n=300)
    tracemalloc.start()
    try:
        verify_all(cos_pi, 0.29, n=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("lam,n", [(0.29, 40), (-0.9, 70), (1.7, 100)])
def test_verify_identity_matches_verify_all(cos_pi, lam, n):
    for rep in verify_all(cos_pi, lam, n=n):
        assert verify_identity(rep.identity_id, cos_pi, lam, n=n) == rep


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_identity_tolerance_must_be_finite_and_positive(cos_pi, tol):
    # a tolerance no residual can meet, or one every residual meets, is refused
    with pytest.raises(ValueError, match="identity tolerance must be finite and positive"):
        verify_all(cos_pi, 0.3, n=20, tol=tol)
    with pytest.raises(ValueError, match="identity tolerance must be finite and positive"):
        verify_identity("NP", cos_pi, 0.3, n=20, tol=tol)


def test_verify_identity_raises_the_skip_reason(zero1):
    for rep in verify_all(zero1, 0.0, n=20):
        if rep.skipped:
            with pytest.raises(ResonanceError) as info:
                verify_identity(rep.identity_id, zero1, 0.0, n=20)
            assert str(info.value) == rep.reason
        else:
            assert verify_identity(rep.identity_id, zero1, 0.0, n=20) == rep



# -- the certificate and its fallback ----------------------------------------

@pytest.mark.parametrize("p,lam,name", [
    pytest.param(load_builtin("ex3"), -5.0, "MREFL", id="MREFL-ex3"),
    pytest.param(Potential.cosine(1.3, c0=0.4, c1=0.9, omega=2.1), -20.0, "REFL",
                 id="REFL-cosine")])
def test_declined_certificate_gives_the_node_evaluation(p, lam, name):
    # the bound cannot decide here: the report is the node evaluation's, its
    # residual equal bit for bit to the full-table reference's and its
    # lhs_scale, taken over s <= t, within 1e-12 relative
    with mock.patch.object(identities, "_node_report", wraps=identities._node_report) as node:
        rep = verify_identity(name, p, lam, n=60)
    assert [call.args[1].name for call in node.call_args_list] == [name]
    _, residual, scale, passed, skipped, reason = \
        {r[0]: r for r in _reference_reports(p, lam, 60)}[name]
    assert (rep.identity_id, rep.residual, rep.passed, rep.skipped, rep.reason) \
        == (name, residual, passed, skipped, reason)
    assert abs(rep.lhs_scale - scale) <= 1e-12 * scale
    assert rep.passed


@pytest.mark.parametrize("name,scale", [pytest.param("ex3", 0.4662964, id="ex3"),
                                        pytest.param("ex4", 0.4280393, id="ex4")])
def test_node_report_takes_lhs_scale_over_s_le_t(name, scale):
    # at lambda = -2 the bound declines REFL and the node evaluation decides
    # it; its lhs_scale is the s <= t maximum that certified reports give. The
    # kernel is accurate there: the DOP853 and the Magnus basis give the same
    # scale to 2e-9
    p = load_builtin(name)
    with mock.patch.object(identities, "_node_report", wraps=identities._node_report) as node:
        rep = verify_identity("REFL", p, -2.0, n=30)
    assert node.call_count == 1
    _, residual, want, passed, _, _ = \
        {r[0]: r for r in _reference_reports(p, -2.0, 30)}["REFL"]
    assert abs(rep.lhs_scale - want) <= 1e-12 * want
    assert rep.lhs_scale == pytest.approx(scale, rel=1e-6)
    assert (rep.residual, rep.passed) == (residual, passed)


def _mutants(ident):
    """The identity with one term's sign flipped, or one of its r2 maps made id."""
    for side in ("lhs", "rhs"):
        terms = getattr(ident, side)
        for k, term in enumerate(terms):
            changed = [replace(term, coef=-term.coef)]
            changed += [replace(term, **{field: "id"}) for field in ("tmap", "smap")
                        if getattr(term, field) == "r2"]
            for new in changed:
                yield replace(ident, **{side: terms[:k] + (new,) + terms[k + 1:]})


@pytest.mark.parametrize("ident", CATALOG, ids=IDENTITY_NAMES)
def test_mutated_identity_fails(cos_pi, ident):
    cache = identities._kernel_cache(cos_pi, 40, 0.29, integrator.DEFAULT_TOL)
    assert identities._evaluate(cache, (ident,), 1e-6)[0].passed
    mutants = list(_mutants(ident))
    assert len(mutants) >= len(ident.lhs) + len(ident.rhs)
    for mutant in mutants:
        rep = identities._evaluate(cache, (mutant,), 1e-6)[0]
        assert not rep.passed and rep.residual > 1e-2, mutant


@pytest.mark.parametrize("p,lam", [
    # the extension's monodromy is singular in floating point
    pytest.param(load_builtin("ex3"), -20.0, id="ex3"),
    # the base monodromy is singular in floating point
    pytest.param(load_builtin("ex4"), -80.0, id="ex4"),
    # eps I - M of the doubled extension is singular in floating point
    pytest.param(Potential.cosine(2.5, c0=0.5, c1=0.25, omega=2.5), -30.0, id="cosine")])
def test_large_negative_lambda_raises_no_linalg_error(p, lam):
    # the catalog and the comparison checks read a rounding-limited workspace
    # here; each entry point reports, skips or raises a typed error
    clear_cache()
    assert len(verify_all(p, lam, n=60)) == len(CATALOG)
    for name in IDENTITY_NAMES:
        try:
            verify_identity(name, p, lam, n=60)
        except ResonanceError:
            pass
    for rel in DOMINANCE_RELATIONS:
        try:
            verify_dominance(p, lam, rel, n=60)
        except HypothesisNotMet:
            pass
    for thm in COMPARISON_THEOREMS:
        try:
            verify_solution_comparison(p, lam, thm, 1.0, 0.5, n=60)
        except HypothesisNotMet:
            pass


def test_coupled_resonance_reads_the_characteristic_function():
    reports = {r.identity_id: r for r in
               verify_all(Potential.cosine(2.7, c0=0.7, c1=0.2, omega=2.25), -20.0, n=60)}
    assert not reports["ALL4"].skipped, reports["ALL4"].reason
