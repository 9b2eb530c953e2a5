"""Acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to also see the printed summary lines with measured
errors and timings). Tolerances and budgets are stated inline and never
loosened; a failure here means the library does not meet its contract.
"""

import math
import time

import numpy as np
import pytest

from hillgreen import (
    build_green,
    classify_sign,
    closed_form_constant,
    find_eigenvalues,
    first_eigenvalue_relations,
    fundamental_solutions,
    sign_threshold_consistency,
    verify_all,
    verify_interlacing,
    verify_spectral_decomposition,
    verify_solution_comparison,
)
from hillgreen.comparison import zero_set_check
from hillgreen.errors import ResonanceError

from helpers import estimate_diagonal_jump

ALL_BC = ("P", "A", "N", "D", "M1", "M2")
PI = math.pi


def report(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, text


def firsts(p, bcs):
    return {bc: find_eigenvalues(p, bc, max_count=1).first() for bc in bcs}


def test_criterion_01_step_potential_eigenvalues(pw2):
    # T=2, a=0 then 1/10: four first eigenvalues to 2e-3 in at most 10 s
    t0 = time.perf_counter()
    got = firsts(pw2, ("N", "M2", "M1", "D"))
    elapsed = time.perf_counter() - t0
    want = {"N": -0.0508, "M2": 0.5346, "M1": 0.5984, "D": 2.4170}
    errs = {bc: abs(got[bc] - want[bc]) for bc in want}
    ok = max(errs.values()) <= 2e-3 and elapsed <= 10.0
    report(1, ok, f"step-potential firsts, max err {max(errs.values()):.2e}, "
                  f"{elapsed:.2f}s (limit 10s)")


def test_criterion_02_cosine_eigenvalues(cos_pi):
    t0 = time.perf_counter()
    got = firsts(cos_pi, ("N", "M1", "M2", "D"))
    elapsed = time.perf_counter() - t0
    want = {"N": -0.378, "M1": -0.348, "M2": 0.5948, "D": 0.918}
    errs = {bc: abs(got[bc] - want[bc]) for bc in want}
    ok = max(errs.values()) <= 2e-3 and elapsed <= 10.0
    report(2, ok, f"cosine firsts, max err {max(errs.values()):.2e}, "
                  f"{elapsed:.2f}s (limit 10s)")


def test_criterion_03_half_period_cosine_spectra(cos2_pi):
    t0 = time.perf_counter()
    sets = {
        "N": [-0.1218, 0.47065, 4.1009],
        "D": [1.4668, 3.9792],
        "M1": [0.0923, 2.34076],
        "M2": [0.0923, 2.34076],
    }
    errs = []
    for bc, want in sets.items():
        got = find_eigenvalues(cos2_pi, bc, max_count=len(want)).values()
        errs.extend(abs(g - w) for g, w in zip(got, want))
        errs.append(0.0 if len(got) == len(want) else math.inf)
    # doubled-twice periodic spectrum with multiplicity
    ext2 = cos2_pi.even_extension().even_extension()
    wantP = [-0.1218, 0.0923, 0.0923, 0.47065, 1.4668,
             2.34076, 2.34076, 3.9792, 4.1009]
    gotP = find_eigenvalues(ext2, "P", max_count=9).expanded()
    errs.extend(abs(g - w) for g, w in zip(gotP, wantP))
    errs.append(0.0 if len(gotP) == 9 else math.inf)
    elapsed = time.perf_counter() - t0
    ok = max(errs) <= 2e-3 and elapsed <= 30.0
    report(3, ok, f"half-period cosine spectra incl. doubled-twice periodic, "
                  f"max err {max(errs):.2e}, {elapsed:.2f}s (limit 30s)")


def test_criterion_04_constant_potential_closed_forms(zero1):
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        for bc in ALL_BC:
            num = build_green(zero1, m * m, bc, n=100)
            ref = closed_form_constant(m, 1.0, bc, n=100)
            worst = max(worst, float(np.max(np.abs(num.combined()
                                                   - ref.combined()))))
    ok = worst <= 1e-8
    report(4, ok, f"all six closed-form kernels at m=0.5,1,2, sup err {worst:.2e}")


def test_criterion_05_identity_suite(zero1, pw2, cos_pi, cos2_pi):
    lams = {
        id(zero1): (0.37, -0.8, 2.1),
        id(pw2): (0.42, -0.55, 1.3),
        id(cos_pi): (0.29, -0.9, 1.7),
        id(cos2_pi): (0.31, -1.1, 1.9),
    }
    t0 = time.perf_counter()
    bad = []
    count = 0
    for p in (zero1, pw2, cos_pi, cos2_pi):
        for lam in lams[id(p)]:
            for rep in verify_all(p, lam, n=100, tol=1e-6):
                count += 1
                if rep.skipped or not rep.passed:
                    bad.append((rep.identity_id, lam, rep.reason or rep.residual))
    elapsed = time.perf_counter() - t0
    ok = not bad and count >= 19 * 12 and elapsed <= 120.0
    report(5, ok, f"{count} identity checks over 4 potentials x 3 lambdas, "
                  f"failures {bad[:3]}, {elapsed:.1f}s (limit 120s)")


def test_criterion_06_spectral_set_equalities(zero1, pw2, cos_pi, cos2_pi):
    bad = []
    for p in (zero1, pw2, cos_pi, cos2_pi):
        rep = verify_spectral_decomposition(p, count=6, pair_tol=1e-5)
        if not rep["pass"]:
            bad.append([(e["name"], e["max_diff"]) for e in rep["equalities"]
                        if not e["pass"]])
    ok = not bad
    report(6, ok, f"three set equalities with multiplicity on 4 potentials, "
                  f"first 6 eigenvalues, failures {bad}")


def test_criterion_07_first_eigenvalue_relations(zero1, pw2, cos_pi, cos2_pi):
    bad = []
    for p in (zero1, pw2, cos_pi, cos2_pi):
        rep = first_eigenvalue_relations(p, tol=1e-5, margin=1e-6)
        items = {it["item"] for it in rep["items"]}
        if not rep["pass"] or not {1, 5, 6, 7, 8, 9} <= items:
            bad.append([(it["item"], it["pass"]) for it in rep["items"]])
    ok = not bad
    report(7, ok, f"items 1, 5-9 on 4 potentials, failures {bad}")


def test_criterion_08_interlacing(zero1, pw2, cos_pi, cos2_pi):
    bad = []
    for p in (zero1, pw2, cos_pi, cos2_pi):
        rep = verify_interlacing(p, count=3)
        if not rep["pass"]:
            bad.append({k: v["pass"] for k, v in rep["chains"].items()})
    ok = not bad
    report(8, ok, f"oscillation and first-eigenvalue ordering chains, "
                  f"first 3 indices, 4 potentials, failures {bad}")


def test_criterion_09_property_invariants(zero1, pw2, cos_pi, cos2_pi):
    pots = {"zero1": zero1, "pw2": pw2, "cos_pi": cos_pi, "cos2_pi": cos2_pi}
    lam_by_pot = {"zero1": 0.37, "pw2": 0.42, "cos_pi": 0.29, "cos2_pi": 0.31}
    worst_w = worst_sym = worst_jump = 0.0
    zero_fail, thresh_fail = [], []
    for name, p in pots.items():
        lam = lam_by_pot[name]
        for probe in (lam, -0.8):
            basis = fundamental_solutions(p, probe, tol=1e-10)
            ts = np.linspace(0.0, p.domain_length, 41)
            worst_w = max(worst_w, float(np.max(np.abs(basis.wronskian(ts) - 1.0))))
        for bc in ALL_BC:
            try:
                G = build_green(p, lam, bc, n=60)
            except ResonanceError:
                continue
            worst_sym = max(worst_sym, G.symmetry_error())
            worst_jump = max(worst_jump,
                             float(np.max(np.abs(estimate_diagonal_jump(G) - 1.0))))
            zs = zero_set_check(G)
            if zs["applicable"] and not zs["pass"]:
                zero_fail.append((name, bc))
        for bc in ("P", "N", "D", "M1", "M2"):
            rep = sign_threshold_consistency(p, bc)
            if rep["pass"] is not True:
                thresh_fail.append((name, bc))
    ok = (worst_w <= 1e-8 and worst_sym <= 1e-8 and worst_jump <= 1e-6
          and not zero_fail and not thresh_fail)
    report(9, ok, f"wronskian {worst_w:.1e} (<=1e-8), symmetry {worst_sym:.1e} "
                  f"(<=1e-8), jump dev {worst_jump:.1e} (<=1e-6), zero-set "
                  f"failures {zero_fail}, threshold failures {thresh_fail}")


def test_criterion_10_solution_comparisons(zero1):
    results = []
    r1 = verify_solution_comparison(zero1, 1.0, "nd_nonneg", 1.0,
                                    lambda t: math.sin(2 * PI * t),
                                    n=100, slack=1e-6)
    results.append(("abs bound sin forcing", r1["pass"]))
    r2 = verify_solution_comparison(zero1, -1.0, "nd_neg", 1.0, 1.0,
                                    n=100, slack=1e-6)
    results.append(("ordered negative window", r2["pass"]))
    r3 = verify_solution_comparison(zero1, 1.0, "nd_nonneg", 1.0, 0.0,
                                    n=100, slack=1e-6)
    results.append(("zero second forcing", r3["pass"]))
    ok = all(okk for _, okk in results)
    report(10, ok, f"three forcing pairs at slack 1e-6: {results}")
