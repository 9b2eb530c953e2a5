"""Sign classification, dominance bounds and solution comparison checks.

The kernel-level facts all share one shape: a sign hypothesis on an
extension kernel implies a pointwise inequality between two base kernels.
The solution-level theorems integrate those inequalities against ordered
forcings.  Hypotheses are always checked before conclusions; a violated
hypothesis raises instead of silently passing vacuously.

The dominance and solution checks read every kernel they compare through
the kernel workspace (``greens._KernelCache``) of their (p, lambda, tol, n),
shared with the catalog and ``build_green``: the rank-2 factors
row(t) . K . col(s) at each family's grid nodes, with no full table, so the
kernels of one (p, lambda, n) share one ``trajectory`` call.  A sign
hypothesis reads only the kernel's minimum and maximum, which fix its
classification, kept in the workspace (recorded by the catalog pass if it
ran first).  A conclusion is read on s <= t once its hypothesis holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisNotMet, ResonanceError
from .greens import (BoundaryCondition, GreensFunction, _as_callable, _KernelCache,
                     _kernel_cache, _lower_pass, _max_abs, build_green, solve_bvp)
from .integrator import DEFAULT_TOL, _check_positive
from .potential import Potential
from .spectrum import DEFAULT_SCAN, find_eigenvalues

__all__ = [
    "DOMINANCE_RELATIONS",
    "COMPARISON_THEOREMS",
    "SignReport",
    "classify_sign",
    "predicted_sign_interval",
    "sign_threshold_consistency",
    "verify_dominance",
    "verify_monotonicity",
    "verify_solution_comparison",
    "zero_set_check",
]

DEFAULT_ZERO_TOL = 1e-7
STRICT_SLACK = 1e-9

_NONNEGATIVE = ("strictly_positive", "nonnegative_with_zeros")
_NONPOSITIVE = ("strictly_negative", "nonpositive_with_zeros")


@dataclass(frozen=True)
class SignReport:
    classification: str
    min_value: float
    max_value: float
    zero_locations: tuple[tuple[float, float], ...]
    zero_tol: float

    def is_nonnegative(self) -> bool:
        return self.classification in _NONNEGATIVE

    def is_nonpositive(self) -> bool:
        return self.classification in _NONPOSITIVE

    def as_dict(self) -> dict:
        return {"classification": self.classification,
                "min_value": self.min_value, "max_value": self.max_value,
                "zero_count": len(self.zero_locations),
                "zero_tol": self.zero_tol}


def classify_sign(G: GreensFunction, zero_tol: float = DEFAULT_ZERO_TOL) -> SignReport:
    """Grid-based sign classification with the near-zero set reported."""
    _check_positive(zero_tol, "zero_tol")
    vals = G.combined()
    mn = float(np.min(vals))
    mx = float(np.max(vals))
    if mn > zero_tol or mx < -zero_tol:
        zeros = ()
    else:
        zi, zj = np.nonzero((vals >= -zero_tol) & (vals <= zero_tol))
        zeros = tuple(zip(G.grid[zi].tolist(), G.grid[zj].tolist()))
    return SignReport(_sign_class(mn, mx, zero_tol), mn, mx, zeros, zero_tol)


def _sign_class(mn: float, mx: float, zero_tol: float) -> str:
    """The classification of a table from its extremes alone: a table whose
    minimum is >= -zero_tol has an entry in the zero band exactly when that
    minimum is <= zero_tol, and likewise for the maximum."""
    if mn >= -zero_tol and mx > zero_tol:
        return "nonnegative_with_zeros" if mn <= zero_tol else "strictly_positive"
    if mx <= zero_tol and mn < -zero_tol:
        return "nonpositive_with_zeros" if mx >= -zero_tol else "strictly_negative"
    if mn < -zero_tol and mx > zero_tol:
        return "sign_changing"
    # Everything inside the zero band; degenerate but classify as signed.
    return "nonnegative_with_zeros"


def _first_value(p: Potential, bc: str, n_scan: int, integrator_tol: float) -> float:
    return find_eigenvalues(p, bc, max_count=1, n_scan=n_scan,
                            integrator_tol=integrator_tol).values()[0]


def predicted_sign_interval(p: Potential, bc, *, n_scan: int = DEFAULT_SCAN,
                            integrator_tol: float = DEFAULT_TOL) -> dict:
    """Lambda ranges where the kernel is negative resp. nonnegative.

    Negative means on the region where the boundary condition does not
    force zeros: the open square for Dirichlet, the square minus the
    t=T/s=T edges for u'(0)=u(T)=0, minus the t=0/s=0 edges for
    u(0)=u'(T)=0, and the full closed square for Neumann and periodic.
    """
    bc = BoundaryCondition.parse(bc)
    if bc is BoundaryCondition.NEUMANN:
        even = p.even_extension()
        lam1 = _first_value(even, "P", n_scan, integrator_tol)
        m1 = _first_value(p, "M1", n_scan, integrator_tol)
        m2 = _first_value(p, "M2", n_scan, integrator_tol)
        lam2 = min(m1, m2)
        thresholds = {"lambda_P_2T": lam1, "lambda_M1": m1, "lambda_M2": m2}
    elif bc is BoundaryCondition.PERIODIC:
        lam1 = _first_value(p, "P", n_scan, integrator_tol)
        lam2 = _first_value(p, "A", n_scan, integrator_tol)
        thresholds = {"lambda_P": lam1, "lambda_A": lam2}
    elif bc is BoundaryCondition.ANTIPERIODIC:
        raise ValueError("no sign criterion catalogued for the anti-periodic kernel")
    else:
        lam1 = _first_value(p, bc, n_scan, integrator_tol)
        lam2 = None
        thresholds = {f"lambda_{bc.value}": lam1}

    return {
        "bc": bc.value,
        "negative": (-np.inf, lam1),
        "nonnegative": (lam1, lam2) if lam2 is not None else None,
        "nonnegative_includes_right_endpoint": lam2 is not None,
        "thresholds": thresholds,
    }


def _strict_region(vals: np.ndarray, bc: BoundaryCondition) -> np.ndarray:
    """Subgrid where the sign criteria claim strictness: without the edges
    t = 0 and s = 0 where u(0) = 0, nor t = T and s = T where u(T) = 0."""
    if bc.is_coupled:
        return vals
    d0, dT = bc.ends
    keep = slice(1 - d0, len(vals) - 1 + dT)
    return vals[keep, keep]


def sign_threshold_consistency(p: Potential, bc, lams=None, n: int = 60,
                               zero_tol: float = DEFAULT_ZERO_TOL,
                               boundary_pad: float = 1e-4, *,
                               n_scan: int = DEFAULT_SCAN,
                               integrator_tol: float = DEFAULT_TOL) -> dict:
    """Compare classify_sign against the predicted thresholds at many lambda.

    Samples within ``boundary_pad`` of a threshold are flagged marginal and
    carry no pass/fail weight; resonant samples are likewise skipped. A pad
    of 0 marks none; a negative or non-finite pad raises ``ValueError``.
    """
    _check_positive(zero_tol, "zero_tol")
    if not (math.isfinite(boundary_pad) and boundary_pad >= 0):
        raise ValueError(f"boundary_pad must be finite and nonnegative, got {boundary_pad}")
    bc = BoundaryCondition.parse(bc)
    intervals = predicted_sign_interval(p, bc, n_scan=n_scan,
                                        integrator_tol=integrator_tol)
    lam1 = intervals["negative"][1]
    lam2 = intervals["nonnegative"][1] if intervals["nonnegative"] else None

    own = find_eigenvalues(p, bc, max_count=2, n_scan=n_scan,
                           integrator_tol=integrator_tol).values()
    upper_stop = own[1] if len(own) > 1 else (lam2 if lam2 else lam1) + 2.0

    if lams is None:
        below = list(lam1 - np.geomspace(0.02, 3.0, 7))
        inside = []
        if lam2 is not None:
            inside = list(lam1 + (lam2 - lam1) * np.linspace(0.15, 0.85, 6))
        above_start = lam2 if lam2 is not None else lam1
        above = list(above_start
                     + (upper_stop - above_start) * np.linspace(0.15, 0.8, 7))
        lams = below + inside + above
    samples = []
    for lam in lams:
        lam = float(lam)
        if lam < lam1:
            expected = "negative"
            near = abs(lam - lam1) <= boundary_pad
        elif lam2 is not None and lam <= lam2:
            expected = "nonnegative"
            near = min(abs(lam - lam1), abs(lam2 - lam)) <= boundary_pad
        else:
            expected = "not_negative"
            ref = lam2 if lam2 is not None else lam1
            near = abs(lam - ref) <= boundary_pad
        entry = {"lambda": lam, "expected": expected, "marginal": bool(near)}
        try:
            G = build_green(p, lam, bc, n=n, tol=integrator_tol)
        except ResonanceError:
            entry["resonant"] = True
            entry["pass"] = None
            samples.append(entry)
            continue
        report = classify_sign(G, zero_tol)
        entry["classification"] = report.classification
        strict = _strict_region(G.combined(), bc)
        if expected == "negative":
            ok = report.is_nonpositive() and float(np.max(strict)) < 0.0
        elif expected == "nonnegative":
            ok = report.is_nonnegative() and float(np.min(strict)) > 0.0
        else:
            ok = float(np.min(strict)) < -zero_tol
        entry["pass"] = None if near else bool(ok)
        samples.append(entry)

    graded = [s["pass"] for s in samples if s["pass"] is not None]
    return {"bc": bc.value, "intervals": intervals, "zero_tol": zero_tol,
            "samples": samples, "graded": len(graded),
            "pass": bool(all(graded)) if graded else False}


def zero_set_check(G: GreensFunction, zero_tol: float = DEFAULT_ZERO_TOL) -> dict:
    """Zeros of a constant-sign kernel sit on the diagonal or the boundary.

    Neumann kernels are held to the sharper claim: zeros only at the two
    diagonal corners.
    """
    report = classify_sign(G, zero_tol)
    if report.classification == "sign_changing":
        return {"bc": G.bc.value, "applicable": False, "pass": None,
                "reason": "kernel changes sign; no zero-set constraint applies"}
    L = G.length
    h = G.grid[1] - G.grid[0] if len(G.grid) > 1 else L
    edge = 0.25 * h

    def allowed(t: float, s: float) -> bool:
        if G.bc is BoundaryCondition.NEUMANN:
            return (abs(t) <= edge and abs(s) <= edge) or \
                   (abs(t - L) <= edge and abs(s - L) <= edge)
        on_diag = abs(t - s) <= edge
        on_boundary = min(t, s) <= edge or max(t, s) >= L - edge
        return on_diag or on_boundary

    violations = [(t, s) for t, s in report.zero_locations if not allowed(t, s)]
    return {"bc": G.bc.value, "applicable": True,
            "classification": report.classification,
            "zero_count": len(report.zero_locations),
            "violations": violations, "zero_tol": zero_tol,
            "pass": not violations}


# required sign -> (word in the message, classifications that have it, index
# of the extreme naming the worst point in (min, max))
_SIGNS = {
    "nonneg": ("nonnegative", _NONNEGATIVE, 0),
    "neg": ("strictly negative", ("strictly_negative",), 1),
    "nonpos": ("nonpositive", _NONPOSITIVE, 1),
}

_KERNEL_NAMES = {"P": "periodic", "N": "Neumann", "D": "Dirichlet", "M1": "first mixed",
                 "M2": "second mixed"}


def _require(cond: bool, message: str, point=None) -> None:
    if not cond:
        raise HypothesisNotMet(message, point=point)


def _require_sign(cache: _KernelCache, family: str, bc: str, sign: str, message: str) -> str:
    """The classification of a kernel on its family's grid, read from its
    extremes; raises HypothesisNotMet unless the kernel has the required
    sign.  ``message`` names the kernel and carries ``{}`` where the sign goes.
    """
    extremes = cache.extrema(family, bc)
    cls = _sign_class(*extremes, DEFAULT_ZERO_TOL)
    word, classes, worst = _SIGNS[sign]
    _require(cls in classes, message.format(word), point=extremes[worst])
    return cls


def _conclusion(sign: str, names: tuple[str, ...]) -> list[tuple[str, object, bool]]:
    """(name, margin of (v1, v2), strict) of each inequality a theorem concludes.

    A nonnegative hypothesis concludes |v2| <= v1 (one name); a negative or
    nonpositive one concludes v2 < v1 and v1 <= 0 (two names).  A margin is
    nonnegative where its inequality holds.
    """
    if sign == "nonneg":
        return [(names[0], lambda v1, v2: v1 - np.abs(v2), False)]
    return [(names[0], lambda v1, v2: v1 - v2, True),
            (names[1], lambda v1, v2: -v1, False)]


# relation id -> (hypothesis kernel, required sign, description); a hypothesis
# kernel id is its condition's first letter, then 2 for the even extension
DOMINANCE_RELATIONS = {
    "nd_nonneg": ("P2", "nonneg",
                  "Neumann kernel dominates |Dirichlet| when the extension's "
                  "periodic kernel is nonnegative"),
    "nd_neg": ("P2", "neg",
               "Neumann kernel below the (nonpositive) Dirichlet kernel when "
               "the extension's periodic kernel is negative"),
    "nm1_nonneg": ("N2", "nonneg",
                   "Neumann kernel dominates the first mixed kernel in "
                   "absolute value when the extension's Neumann kernel is "
                   "nonnegative"),
    "nm1_neg": ("N2", "neg",
                "Neumann kernel below the (nonpositive) first mixed kernel "
                "when the extension's Neumann kernel is negative"),
    "m2d": ("D2", "nonpos",
            "second mixed kernel below the (nonpositive) Dirichlet kernel "
            "when the extension's Dirichlet kernel is nonpositive"),
    "bound2_p": ("NBASE", "nonneg",
                 "factor-2 bounds of Neumann and Dirichlet kernels by the "
                 "reflected periodic kernel of the extension"),
    "bound2_n": ("NBASE", "nonneg",
                 "factor-2 bounds of Neumann and first mixed kernels by the "
                 "reflected Neumann kernel of the extension"),
}

# theorem id -> (hypothesis kernel, required sign, bc for sigma1, bc for sigma2)
COMPARISON_THEOREMS = {
    "nd_nonneg": ("P2", "nonneg", "N", "D"),
    "nd_neg": ("P2", "neg", "D", "N"),
    "nm1_nonneg": ("N2", "nonneg", "N", "M1"),
    "nm1_neg": ("N2", "neg", "M1", "N"),
    "m2d": ("D2", "nonpos", "D", "M2"),
}


def verify_dominance(p: Potential, lam: float, relation: str, n: int = 100,
                     tol: float = STRICT_SLACK, *,
                     integrator_tol: float = DEFAULT_TOL) -> dict:
    """Pointwise kernel inequality under its sign hypothesis.

    A check passes when its margin exceeds -tol * max(1, scale), with scale
    the largest |value| among the kernels the relation compares.  Raises
    HypothesisNotMet when the required sign condition fails, so a caller
    can distinguish 'hypothesis empty' from 'conclusion false'.
    """
    if relation not in DOMINANCE_RELATIONS:
        raise KeyError(f"unknown relation {relation!r}; "
                       f"choices: {', '.join(sorted(DOMINANCE_RELATIONS))}")
    _check_positive(tol, "tol")
    hyp_kind, hyp_sign, description = DOMINANCE_RELATIONS[relation]
    cache = _kernel_cache(p, n, lam, integrator_tol)

    if hyp_kind == "NBASE":
        hyp_class = _require_sign(cache, "base", "N", "nonneg",
                                  "base Neumann kernel is not {} at this lambda")
        refl, other = ("P", "D") if relation == "bound2_p" else ("N", "M1")
        # Neumann, its companion, and the extension kernel at (2T - t, s)
        kernels = (("base", "N"), ("base", other), ("even2", refl, "r2"))
        results = [
            ("double reflected kernel above Neumann", lambda vn, vo, vr: 2 * vr - vn, False),
            ("companion kernel nonpositive", lambda vn, vo, vr: -vo, False),
            ("companion kernel above minus twice the reflected kernel",
             lambda vn, vo, vr: vo + 2 * vr, False),
            ("reflected kernel nonnegative", lambda vn, vo, vr: vr, False),
        ]
        hyp_desc = {"kernel": "N on the base interval", "classification": hyp_class}
    else:
        bc = hyp_kind[0]
        kernel = f"{bc} on the even extension"
        hyp_class = _require_sign(cache, "even2", bc, hyp_sign,
                                  f"{kernel} kernel is not {{}} at this lambda")
        hyp_desc = {"kernel": kernel, "classification": hyp_class}
        bc1, bc2 = COMPARISON_THEOREMS[relation][2:]
        n1, n2 = _KERNEL_NAMES[bc1], _KERNEL_NAMES[bc2]
        kernels = (("base", bc1), ("base", bc2))
        results = _conclusion(hyp_sign,
                              (f"{n1} minus |{n2}|",) if hyp_sign == "nonneg" else
                              (f"{n1} minus {n2} (strict)", f"{n1} nonpositive"))

    # margins and scale on s <= t from each (rows_low, B): all symmetric, even at (2T - t, s)
    factors = [cache.factors(np.arange(cache.n + 1), *kernel)[:3:2] for kernel in kernels]
    ext = np.array(_lower_pass(factors, lambda *vals: [
        *(np.min(margin(*vals)) for _, margin, _ in results), max(map(_max_abs, vals))]))
    # Strict and non-strict checks share the numeric slack; the flag is kept
    # in the report so readers know which claim was made.
    slack = tol * max(1.0, float(np.max(ext[:, -1])))
    checks = [{"check": name, "min_margin": float(margin), "strict": strict,
               "pass": bool(margin > -slack)}
              for (name, _, strict), margin in zip(results, np.min(ext[:, :-1], axis=0))]
    return {"relation": relation, "description": description,
            "lambda": float(lam), "n": cache.n, "tol": tol,
            "hypothesis": hyp_desc, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def verify_solution_comparison(p: Potential, lam: float, theorem: str,
                               sigma1, sigma2, n: int = 100,
                               slack: float = 1e-6, *,
                               integrator_tol: float = DEFAULT_TOL) -> dict:
    """Solution-level comparison principle for one forcing pair.

    The absolute-value principles require |sigma2| <= sigma1; the ordered
    principles accept either 0 <= sigma2 <= sigma1 or 0 >= sigma2 >= sigma1
    and flip the conclusion accordingly.  A forcing may be a callable, a
    constant, or an array of samples on the n + 1 grid nodes, interpolated
    linearly between them (``solve_bvp`` takes an array on its 4n + 1 grid).
    """
    if theorem not in COMPARISON_THEOREMS:
        raise KeyError(f"unknown theorem {theorem!r}; "
                       f"choices: {', '.join(sorted(COMPARISON_THEOREMS))}")
    _check_positive(slack, "slack")
    hyp_kind, hyp_sign, bc1, bc2 = COMPARISON_THEOREMS[theorem]
    cache = _kernel_cache(p, n, lam, integrator_tol)

    bc = hyp_kind[0]
    kernel = _KERNEL_NAMES[bc]
    hyp_class = _require_sign(cache, "even2", bc, hyp_sign,
                              f"the extension's {kernel} kernel is not {{}}")

    ts = np.linspace(0.0, cache.L, cache.n + 1)
    f1, f2 = _as_callable(sigma1, ts), _as_callable(sigma2, ts)
    s1, s2 = f1(ts), f2(ts)

    if hyp_sign == "nonneg":
        bad = np.nonzero(np.abs(s2) > s1 + 1e-12)[0]
        if bad.size:
            raise HypothesisNotMet(
                "forcing hypothesis |sigma2| <= sigma1 fails",
                point=float(ts[bad[0]]))
        case = "absolute"
    elif np.all(s2 >= -1e-12) and np.all(s1 >= s2 - 1e-12):
        case = "nonnegative"
    elif np.all(s2 <= 1e-12) and np.all(s1 <= s2 + 1e-12):
        case = "nonpositive"
    else:
        bad = int(np.nonzero(~((s2 >= -1e-12) & (s1 >= s2 - 1e-12)))[0][0])
        raise HypothesisNotMet(
            "forcings are not ordered as 0 <= sigma2 <= sigma1 nor "
            "0 >= sigma2 >= sigma1", point=float(ts[bad]))

    v1 = solve_bvp(p, lam, bc1, f1, n=n, tol=integrator_tol).values
    v2 = solve_bvp(p, lam, bc2, f2, n=n, tol=integrator_tol).values
    if case == "absolute":
        names = (f"|u_{bc2}| <= u_{bc1}",)
    elif case == "nonnegative":
        names = (f"u_{bc2} <= u_{bc1}", f"u_{bc1} <= 0")
    else:
        # the solutions are linear in the forcing: the mirror image of the
        # nonnegative case, u_bc1 <= u_bc2 and u_bc1 >= 0
        v1, v2 = -v1, -v2
        names = (f"u_{bc1} <= u_{bc2}", f"u_{bc1} >= 0")
    checks = [{"check": name, "min_margin": (m := float(np.min(margin(v1, v2)))),
               "pass": bool(m >= -slack)} for name, margin, _ in _conclusion(hyp_sign, names)]

    return {"theorem": theorem, "case": case, "lambda": float(lam),
            "hypothesis": {"kernel": kernel, "classification": hyp_class},
            "slack": slack, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def verify_monotonicity(p: Potential, lam: float, bc, eps: float = 0.1,
                        n: int = 60, *,
                        integrator_tol: float = DEFAULT_TOL) -> dict:
    """A larger potential, p shifted up by ``eps`` > 0, strictly lowers a
    constant-sign kernel pointwise."""
    _check_positive(eps, "eps")
    bc = BoundaryCondition.parse(bc)
    G_low = build_green(p, lam, bc, n=n, tol=integrator_tol)
    G_high = build_green(p.shifted(eps), lam, bc, n=n, tol=integrator_tol)
    rep_low = classify_sign(G_low)
    rep_high = classify_sign(G_high)
    same_sign = (rep_low.is_nonnegative() and rep_high.is_nonnegative()) or \
                (rep_low.is_nonpositive() and rep_high.is_nonpositive())
    _require(same_sign, "the two kernels do not share a constant sign",
             point=(rep_low.classification, rep_high.classification))
    diff = G_high.combined() - G_low.combined()
    worst = float(np.max(diff))
    return {"bc": bc.value, "lambda": float(lam), "eps": eps,
            "classifications": (rep_low.classification, rep_high.classification),
            "max_difference": worst,
            "pass": bool(worst < STRICT_SLACK)}
