"""Eigenvalues of the six boundary problems and the relations between them.

The characteristic function of each separated condition is a single entry
of the endpoint state (y1, y1', y2, y2')(L), so eigenvalues come from a
bracketing scan plus a batched refinement.  The scan reads the endpoint
states of the whole search range as ``endpoint_scan`` reads a sweep's:
off a Chebyshev interpolant in lambda where it settles, propagated
otherwise.  Every bracket of one ``find_eigenvalues`` call, of all the
conditions one scan serves, then advances together, one batched Magnus
propagation per step, at step counts estimated once per call for
``integrator_tol``.  The first step samples each bracket at its ends and
Chebyshev nodes, the next around the root that inverse interpolation
through those samples predicts, which in practice closes it, and at the
nodes again.  A ``max_count`` only truncates the sorted result.  The
Dirichlet oscillation audit counts y2's zeros at DOP853 step ends between
the last eigenvalue found and the top of the range.  Periodic and
anti-periodic eigenvalues are the band edges of the discriminant Delta =
y1 + y2'.  Over an even extension they are assembled from the separated
spectra of the half interval; for any potential they are found between the
Dirichlet and Neumann eigenvalues, where the sign of Delta -+ 2 is known
exactly.  Either way a double eigenvalue is two coinciding edges, never a
tangency judged from samples of Delta.  ``verify_spectral_decomposition``
compares the two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import cycle
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import IntegrationError, ResonanceError
from .greens import BoundaryCondition, _check_n, kernel_value
from .integrator import (_SCAN_ACCURACY, DEFAULT_TOL, TOL_MAX, _check_accuracy, _check_ends,
                         _check_positive, _check_tol, _interpolated, _propagate, _scan_plan,
                         _y2_zeros, discriminant, endpoint_scan)
# kept bound though no function here calls it: bench/test_bench.py checks
# that the tracer wraps it in this module too
from .integrator import fundamental_solutions  # noqa: F401
from .potential import Potential

__all__ = [
    "Eigenvalue",
    "Spectrum",
    "dirichlet_zero_count",
    "discriminant_samples",
    "find_eigenvalues",
    "first_eigenvalue_relations",
    "stability_intervals",
    "verify_interlacing",
    "verify_spectral_decomposition",
]

DEFAULT_SCAN = 2000
ROOT_XTOL = 1e-12
# Coincident band edges closer than this (relative) are one double
# eigenvalue of the coupled problem.
MERGE_RTOL = 1e-7
# A scan sample's sign of Delta -+ 2 is trusted when its size exceeds this
# fraction of the largest endpoint entry: 1e4 times the scan's accuracy.
SCAN_MARGIN = 1e-3
# brentq's default relative tolerance: a root is closed within xtol + _RTOL |lambda|
_RTOL = 4.0 * np.finfo(float).eps
# a refinement call samples each bracket at this many interior Chebyshev nodes:
# with its ends, the extrema of the Chebyshev polynomial T_7 mapped onto it
_NODE_COUNT = 6
_NODES = (0.5 - 0.5 * np.cos(np.pi * np.arange(1, _NODE_COUNT + 1) / (_NODE_COUNT + 1))).tolist()


class Eigenvalue(NamedTuple):
    index: int
    value: float
    multiplicity: int


@dataclass(eq=False)
class Spectrum:
    bc: BoundaryCondition
    length: float
    eigenvalues: tuple[Eigenvalue, ...]
    search_range: tuple[float, float]
    tol: float
    scan_points: int
    audit: dict = field(default_factory=dict)

    def values(self) -> list[float]:
        return [e.value for e in self.eigenvalues]

    def expanded(self) -> list[float]:
        return [e.value for e in self.eigenvalues for _ in range(e.multiplicity)]

    def first(self) -> float | None:
        return self.eigenvalues[0].value if self.eigenvalues else None

    CSV_HEADER = "bc,k,lambda,multiplicity\n"

    def csv_rows(self) -> str:
        """One ``CSV_HEADER`` row per eigenvalue, exact float reprs."""
        return "".join(f"{self.bc.value},{e.index},{float(e.value)!r},{e.multiplicity}\n"
                       for e in self.eigenvalues)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.CSV_HEADER + self.csv_rows())


def _auto_range(p: Potential, count: int) -> tuple[float, float]:
    amin, amax = p.sample_bound()
    lo = -amax - 1.0
    hi = ((count + 1.5) * np.pi / p.domain_length) ** 2 - min(amin, 0.0) + 2.0
    return lo, hi


def _scan(p: Potential, lo: float, hi: float, n_scan: int, integrator_tol: float):
    """Scan of [lo, hi] in ``n_scan`` cells, its states, and the states that refine it.

    Returns the scan lambdas, their endpoint states at ``endpoint_scan``'s
    accuracy, read by its rule (``_interpolated``: off the Chebyshev
    interpolant in lambda where it settles, propagated otherwise), and a
    function giving states within ``integrator_tol`` for any lambdas a
    refinement can visit. Both come from one step-count ladder per segment
    (``_scan_plan``) for the range [lo, hi] widened by the 1.5 cells that
    bracket widening can add on each side, probed at 7 evenly spaced points
    of it and its turning values. Raises ``IntegrationError`` when either
    cannot certify its accuracy there.
    """
    _check_tol(integrator_tol)
    lams = np.linspace(lo, hi, n_scan + 1)
    margin = 1.5 * (hi - lo) / n_scan
    try:
        scan, plan = _scan_plan(p, lo - margin, hi + margin, _SCAN_ACCURACY, integrator_tol)
    except IntegrationError as exc:
        # a refusal of the scan itself stands bare
        _scan_plan(p, lo - margin, hi + margin, _SCAN_ACCURACY)
        raise IntegrationError(
            f"eigenvalue refinement over lambda in [{lo:g}, {hi:g}] cannot certify "
            f"integrator_tol {integrator_tol:g} ({exc}); a larger integrator_tol "
            f"(--tol on the command line) lifts the limit", t=exc.t) from exc
    return lams, _interpolated(scan, lams, lo, hi, _SCAN_ACCURACY), partial(_propagate, plan)


def _brackets(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the scan cells where ``values`` changes sign and of its exact zeros."""
    sign = np.sign(values)
    return sign[:-1] * sign[1:] < 0, sign == 0


def _batch_roots(F, a, b, fa, fb, xtol: float, rows=None, inner=None) -> np.ndarray:
    """Roots of ``F`` in the brackets [a, b], all refined together.

    ``F`` maps an array of lambdas to its values there, or to rows of
    values, of which bracket i reads row ``rows[i]`` (default 0). fa, fb are
    the values at the bracket ends, of opposite signs or zero, and ``inner``
    holds lists of points inside each bracket and F's values there, if any.
    A bracket keeps its ends and the samples of the last ``F`` call. It
    closes at an exact zero among them, or at the midpoint of its narrowest
    adjacent pair with a sign change, between finite values where one does
    (NaN differs from every number), once that pair is within
    xtol + 4 eps |lambda| wide (brentq's rule). Else the next ``F`` call, one
    for all open brackets, reads the pair's ``_NODE_COUNT`` interior
    Chebyshev nodes and the points 0.45 tol either side of an estimate of
    the root (``_estimate``), which close the bracket when it is right. The
    nodes cut the bracket to at most 0.23 of its width whatever the
    estimate, so every bracket closes.
    """
    rtol = float(_RTOL)
    rows = [0] * len(a) if rows is None else list(rows)
    inner_x, inner_f = inner if inner is not None else ([()] * len(rows),) * 2
    ends = zip(*(np.asarray(v, dtype=float).tolist() for v in (a, b, fa, fb)), inner_x, inner_f)
    live = [(i, sorted([(lo, flo), *zip(xs, fs), (hi, fhi)]))
            for i, (lo, hi, flo, fhi, xs, fs) in enumerate(ends)]
    roots = [0.0] * len(rows)
    while live:
        points, still = [], []
        for i, samples in live:
            zero = next((x for x, f in samples if f == 0.0), None)
            if zero is not None:
                roots[i] = zero
                continue
            # adjacent pairs ranked by (no sign change, a non-finite end, width)
            lo, hi, flo, fhi = min(((f > 0.0) - (f < 0.0) == (g > 0.0) - (g < 0.0),
                                    not (math.isfinite(f) and math.isfinite(g)), y - x, x, y, f, g)
                                   for (x, f), (y, g) in zip(samples, samples[1:]))[3:]
            tol = xtol + rtol * max(abs(lo), abs(hi))
            if hi - lo <= tol:
                roots[i] = 0.5 * (lo + hi)
                continue
            # the pair r -+ half closes at once when it holds the root
            r = min(max(_estimate(samples, lo, hi, flo, fhi), lo), hi)
            half = 0.45 * (xtol + rtol * abs(r))
            r = min(max(r, lo + half), hi - half)
            points.append([max(r - half, lo), min(r + half, hi),
                           *(lo + (hi - lo) * t for t in _NODES)])
            still.append((i, (lo, flo), (hi, fhi)))
        if not still:
            break
        values = _evaluate(F, np.array(points), [rows[i] for i, _, _ in still]).tolist()
        live = [(i, sorted([lo, hi, *zip(xs, fs)]))
                for (i, lo, hi), xs, fs in zip(still, points, values)]
    return np.array(roots, dtype=float)


def _evaluate(F, x: np.ndarray, rows) -> np.ndarray:
    """``F`` at the points ``x``, row k of them read from row ``rows[k]`` of F's values."""
    values = np.atleast_2d(F(x.ravel()))
    return values[np.repeat(rows, x.shape[1]), np.arange(x.size)].reshape(x.shape)


def _estimate(samples: list, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Where the polynomial x(F) through the finite samples vanishes (Neville's
    scheme on offsets from lo) when F is strictly monotone over them, else the
    regula falsi point of [lo, hi]; its midpoint if the estimate is not finite."""
    finite = [(x - lo, f) for x, f in samples if math.isfinite(f)]
    steps = [g - f for (_, f), (_, g) in zip(finite, finite[1:])]
    if steps and (all(d > 0.0 for d in steps) or all(d < 0.0 for d in steps)):
        p, fs = (list(v) for v in zip(*finite))
        for k in range(1, len(fs)):
            for i in range(len(fs) - k):
                p[i] = (fs[i + k] * p[i] - fs[i] * p[i + 1]) / (fs[i + k] - fs[i])
        r = lo + p[0]
    else:
        r = lo - flo * (hi - lo) / (fhi - flo) if fhi != flo else math.nan
    return r if math.isfinite(r) else 0.5 * (lo + hi)


def _refine_roots(state, conds, lams: np.ndarray, Y: np.ndarray, xtol: float, audit: dict,
                  cells: np.ndarray | None = None) -> list[list[float]]:
    """Roots of the characteristic function of each of ``conds``, from its row of the scan ``Y``.

    ``Y`` holds the states of the scan lambdas ``lams``. Each sign change
    in a scan cell (of ``cells``, default all) is checked on the accurate
    endpoint states ``state`` and widened by half a cell of ``lams`` on each
    side, up to 3 times, until the sign change holds there; cells where it
    never does go into ``audit``. One call reads the ends and the interior
    Chebyshev nodes of every cell, and ``_batch_roots`` refines the brackets
    of all the conditions together, each on its own row of the shared
    states. Exact zeros of the scan are roots as they stand.
    """
    def F(x):
        states = state(x)
        return np.array([bc.characteristic(states) for bc in conds])

    step = (lams[-1] - lams[0]) / (len(lams) - 1)
    signs = [_brackets(bc.characteristic(Y)) for bc in conds]
    cell = [np.flatnonzero(change if cells is None else change & cells) for change, _ in signs]
    which = np.repeat(np.arange(len(conds)), [c.size for c in cell])
    cell = np.concatenate(cell)
    a, b = lams[cell], lams[cell + 1]
    nodes = a[:, None] + (b - a)[:, None] * np.array(_NODES)
    values = _evaluate(F, np.column_stack([a, nodes, b]), which)
    fa, fb = values[:, 0], values[:, -1]
    for _ in range(3):
        # no sign change, or a non-finite end
        lost = ~(np.sign(fa) * np.sign(fb) <= 0.0)
        if not lost.any():
            break
        a[lost] -= 0.5 * step
        b[lost] += 0.5 * step
        fa[lost], fb[lost] = _evaluate(F, np.column_stack([a[lost], b[lost]]), which[lost]).T
    lost = ~(np.sign(fa) * np.sign(fb) <= 0.0)
    if lost.any():
        audit.setdefault("unresolved_brackets", []).extend(lams[cell[lost]].tolist())
    ok = ~lost
    roots = _batch_roots(F, a[ok], b[ok], fa[ok], fb[ok], xtol, which[ok],
                         (nodes[ok].tolist(), values[ok, 1:-1].tolist()))
    return [[*roots[which[ok] == k].tolist(), *lams[np.flatnonzero(zero)].tolist()]
            for k, (_, zero) in enumerate(signs)]


def _coupled_result(method: str, step: float, tagged: list[tuple[float, str]],
                    audit: dict) -> tuple[list[tuple[float, int]], dict]:
    """Merge tagged band edges closer than MERGE_RTOL into double eigenvalues.

    Returns the (value, multiplicity) list and the audit, which records
    where each eigenvalue came from.
    """
    merged: list[tuple[float, int]] = []
    sources: list[tuple[str, ...]] = []
    for value, src in sorted(tagged, key=lambda r: r[0]):
        if merged and abs(value - merged[-1][0]) <= MERGE_RTOL * max(1.0, abs(value)):
            prev_v, prev_m = merged[-1]
            merged[-1] = (0.5 * (prev_v + value), min(2, prev_m + 1))
            sources[-1] = sources[-1] + (src,)
        else:
            merged.append((value, 1))
            sources.append((src,))
    return merged, {"method": method, "scan_step": step, **audit,
                    "sources": [{"value": v, "from": list(s)}
                                for (v, _), s in zip(merged, sources)]}


def _coupled_direct(p: Potential, bc: BoundaryCondition, lo: float, hi: float, n_scan: int,
                    xtol: float, integrator_tol: float) -> tuple[list[tuple[float, int]], dict]:
    """Band edges of the discriminant, bracketed by Dirichlet and Neumann roots.

    At a root of y2(L) or of y1'(L) the monodromy matrix is triangular with
    unit determinant, so Delta = y1 + 1/y1 there and Delta - 2s equals
    (y1 - s)^2 / y1 exactly (s = 1 for P, -1 for A).  Each closed
    instability gap holds one Dirichlet and one Neumann eigenvalue (Magnus &
    Winkler 1966; Eastham 1973), so these roots cut the range into pieces on
    which Delta - 2s changes sign at most once, and its sign at the cuts
    needs no cancellation.  A root where (y1 - s)^2 is within the integrator
    tolerance is a band edge itself; every other edge is refined between
    two cuts, all of them together.  Scan samples whose Delta - 2s is far beyond the
    scan's error are cuts too: they keep each bracket short, and the roots
    in cells they settle need no refinement.
    """
    s = bc.sign
    lams, Y, state = _scan(p, lo, hi, n_scan, integrator_tol)
    scanned = bc.characteristic(Y)
    sure = np.abs(scanned) > SCAN_MARGIN * np.maximum(1.0, np.abs(Y).max(axis=0))
    cuts = dict(zip(lams[sure].tolist(), scanned[sure].tolist()))
    # t = s Delta - 2 is >= 0 exactly in the gaps of sign s, with one maximum
    # in each.  A root whose cell has both ends surely inside such a gap, or
    # both at t < -2, is no band edge unless Delta swings by 2 within one
    # cell, and the sure samples already cut there.
    t = s * scanned
    settled = sure & ((t > 0.0) | (t < -2.0))
    open_cells = ~(settled[:-1] & settled[1:] & (t[:-1] * t[1:] > 0.0))

    audit: dict = {}
    subs = (BoundaryCondition.DIRICHLET, BoundaryCondition.NEUMANN)
    found = [(r, sub.value) for sub, roots in zip(subs, _refine_roots(
        state, subs, lams, Y, xtol, audit, open_cells)) for r in roots]
    roots = {r for r, _ in found}
    ends = [end for end in (lo, hi) if end not in cuts and end not in roots]
    at = state(np.array([r for r, _ in found] + ends))
    tagged: list[tuple[float, str]] = []
    for (r, src), y1 in zip(found, at[0].tolist()):
        square = (y1 - s) ** 2
        # a Dirichlet and a Neumann root at the same point are both kept:
        # together they are a double eigenvalue
        if square <= integrator_tol * abs(y1):
            tagged.append((r, src))
            cuts[r] = 0.0
        else:
            cuts[r] = square / y1
    cuts.update(zip(ends, bc.characteristic(at)[len(found):].tolist()))

    points = np.array(sorted(cuts))
    values = np.array([cuts[x] for x in points.tolist()])
    cross = values[:-1] * values[1:] < 0.0
    edges = _batch_roots(lambda x: bc.characteristic(state(x)), points[:-1][cross],
                         points[1:][cross], values[:-1][cross], values[1:][cross], xtol)
    tagged.extend((v, "Delta") for v in edges.tolist())
    return _coupled_result("direct", (hi - lo) / n_scan, tagged, audit)


def _coupled_union(p: Potential, bc: BoundaryCondition, lo: float, hi: float, n_scan: int,
                   xtol: float, integrator_tol: float) -> tuple[list[tuple[float, int]], dict]:
    """Coupled spectrum as the union of two separated half-interval spectra.

    Valid when the potential is even about its midpoint; the pairing of
    sources also fixes the multiplicity of each discriminant root. One scan
    of the half interval serves both conditions.
    """
    half = p.restrict(p.domain_length / 2.0)
    pair = ((BoundaryCondition.NEUMANN, BoundaryCondition.DIRICHLET)
            if bc is BoundaryCondition.PERIODIC else
            (BoundaryCondition.MIXED1, BoundaryCondition.MIXED2))
    audit: dict = {}
    lams, Y, state = _scan(half, lo, hi, n_scan, integrator_tol)
    roots = _refine_roots(state, pair, lams, Y, xtol, audit)
    tagged = [(v, sub.value) for sub, found in zip(pair, roots) for v in found]
    return _coupled_result("union", (hi - lo) / n_scan, tagged, audit)


def find_eigenvalues(p: Potential, bc, search_range=None, max_count: int | None = None,
                     n_scan: int = DEFAULT_SCAN, tol: float = ROOT_XTOL, *,
                     integrator_tol: float = DEFAULT_TOL,
                     method: str = "auto") -> Spectrum:
    """All eigenvalues of ``bc`` on [0, T] in the range (or the first ``max_count``).

    For the coupled conditions, method "union" assembles the spectrum from
    the half-interval separated problems (the potential must be even about
    its midpoint), "direct" finds the band edges of the discriminant
    between the Dirichlet and Neumann eigenvalues (any potential), and
    "auto" picks union when the symmetry holds.  Both give multiplicity 2
    exactly where two edges coincide.

    A scan of ``n_scan`` cells at the scan accuracy of ``endpoint_scan``,
    read as it reads a sweep, finds the sign changes; they are refined together on Magnus endpoint
    states within ``integrator_tol``, by inverse interpolation through
    Chebyshev samples of each bracket, to a sign-change bracket of width
    max(``tol``, 1e-12) + 4 eps |lambda| (brentq's relative term, which
    dominates above |lambda| ~ 1e3).  The whole range is scanned and
    refined whatever ``max_count`` is, so a ``max_count`` keeps the first
    eigenvalues of the full result, bit for bit, and costs a full scan.
    Raises ``IntegrationError`` when those states cannot certify
    ``integrator_tol`` over the range (at large lambda the float64 rounding
    of the phase alone exceeds it; a larger ``integrator_tol`` lifts it),
    and ``ValueError`` for a bad ``n_scan`` or ``max_count``, a ``tol`` that
    is negative or not finite, a ``search_range`` that is not finite or not
    increasing, or an unknown ``method``.

    For the Dirichlet condition the audit's ``oscillation`` entry counts the
    interior zeros of y2 at a probe midway between the last eigenvalue
    found and the top of the range, which equals the number of eigenvalues
    below it (a Sturm count).  It reads only y2's signs at DOP853 step ends
    (``dirichlet_zero_count``), so it runs at ``TOL_MAX``.
    """
    bc = BoundaryCondition.parse(bc)
    n_scan = _check_n(n_scan, "n_scan")
    if max_count is not None:
        max_count = _check_n(max_count, "max_count")
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if method not in ("auto", "union", "direct"):
        raise ValueError(f"unknown method {method!r}")
    if search_range is None:
        lo, hi = _auto_range(p, max_count or 8)
    else:
        lo, hi = (float(search_range[0]), float(search_range[1]))
        _check_ends(lo, hi)
        if not lo < hi:
            raise ValueError("search range must satisfy lo < hi")

    audit: dict = {"scan_step": (hi - lo) / n_scan}
    xtol = max(tol, ROOT_XTOL)
    if bc.is_coupled:
        if method == "auto":
            method = "union" if p.is_even_about_midpoint() else "direct"
        elif method == "union" and not p.is_even_about_midpoint():
            raise ValueError("union method needs a potential even about its midpoint")
        if method == "union":
            merged, audit = _coupled_union(p, bc, lo, hi, n_scan, xtol, integrator_tol)
        else:
            merged, audit = _coupled_direct(p, bc, lo, hi, n_scan, xtol, integrator_tol)
    else:
        lams, Y, state = _scan(p, lo, hi, n_scan, integrator_tol)
        (roots,) = _refine_roots(state, (bc,), lams, Y, xtol, audit)
        merged = [(v, 1) for v in sorted(roots)]
        if bc is BoundaryCondition.DIRICHLET and merged and hi > merged[-1][0]:
            probe = 0.5 * (merged[-1][0] + hi)
            audit["oscillation"] = {
                "probe_lambda": probe,
                "interior_zeros": dirichlet_zero_count(p, probe, tol=TOL_MAX),
                "eigenvalues_below": sum(1 for v, _ in merged if v < probe),
            }

    if max_count is not None:
        kept: list[tuple[float, int]] = []
        total = 0
        for v, m in merged:
            if total >= max_count:
                break
            kept.append((v, m))
            total += m
        merged = kept
    eigenvalues = tuple(Eigenvalue(k, v, m) for k, (v, m) in enumerate(merged))
    return Spectrum(bc=bc, length=p.domain_length, eigenvalues=eigenvalues,
                    search_range=(lo, hi), tol=tol, scan_points=n_scan, audit=audit)


def dirichlet_zero_count(p: Potential, lam: float, *, tol: float = DEFAULT_TOL) -> int:
    """Zeros of y2(., lam) in (0, T); equals #{Dirichlet eigenvalues < lam}.

    They are the sign changes of y2 at DOP853 step ends that Sturm separation
    spaces to hold one zero at most (``integrator._y2_zeros``): a check of
    the Magnus scan on an integration of its own, exact wherever the solve's
    error at T is below |y2(T)|, just above an eigenvalue too.
    """
    return _y2_zeros(p, lam, tol)


def discriminant_samples(p: Potential, lo: float, hi: float, count: int = 400, *,
                         accuracy: float = 1e-9):
    """(lambda, Delta) samples of the even extension of ``p`` on [0, 2T].

    Delta is read from ``p`` on [0, T] alone: by the Wronskian
    y1 y2' - y2 y1' = 1, Delta(2T) = 2 (y1 y2' + y2 y1')(T) (Magnus and
    Winkler, Hill's Equation, 1966).  The base is scanned at
    ``accuracy`` / 2: ``endpoint_scan`` splits its accuracy over the
    segments, and the extension has twice as many, so each half segment
    takes the steps it takes inside the full scan, with half the work.
    From 136 samples on, ``endpoint_scan`` reads the states off its
    Chebyshev interpolant in lambda when its rule accepts one at the half
    scan's accuracy, a few dozen propagated lambdas in all: from 520
    samples on, its first propagation holds the 33-node level and the 4
    sample nodes of the next, 37 lambdas in one call, and a batch that
    settles at 33 nodes propagates no more. The interpolant adds less than
    ``accuracy`` / 64 to the half scan's states. Otherwise every lambda is
    propagated.
    Raises ``ValueError`` when ``count`` is not an integer of at least 1,
    ``accuracy`` is not in (0, ``TOL_MAX``] or ``lo`` or ``hi`` is not
    finite.
    """
    count = _check_n(count, "count")
    _check_accuracy(accuracy)
    lo, hi = float(lo), float(hi)
    _check_ends(lo, hi)
    lams = np.linspace(lo, hi, count)
    try:
        Y = endpoint_scan(p, lams, accuracy=accuracy / 2.0)
    except IntegrationError as exc:
        raise IntegrationError(
            f"discriminant samples over lambda in [{lo:g}, {hi:g}] cannot certify "
            f"accuracy {accuracy:g} (the half interval is scanned at {accuracy / 2.0:g}: "
            f"{exc})", t=exc.t) from exc
    return lams, 2.0 * (Y[0] * Y[3] + Y[1] * Y[2])


def _match_sets(lhs: list[float], rhs: list[float], pair_tol: float) -> dict:
    """Positional multiset comparison of two sorted expanded spectra."""
    lhs, rhs = sorted(lhs), sorted(rhs)
    k = min(len(lhs), len(rhs))
    diffs = [abs(a - b) for a, b in zip(lhs, rhs)]
    return {"lhs": lhs, "rhs": rhs, "diffs": diffs, "max_diff": max(diffs, default=0.0),
            "unmatched_lhs": lhs[k:], "unmatched_rhs": rhs[k:],
            "pass": len(lhs) == len(rhs) and all(d <= pair_tol for d in diffs)}


def verify_spectral_decomposition(p: Potential, search_range=None, count: int = 6,
                                  pair_tol: float = 1e-5, n_scan: int = DEFAULT_SCAN, *,
                                  integrator_tol: float = DEFAULT_TOL) -> dict:
    """Check the three spectral-set equalities with multiplicity.

    N+D = P(2T), M1+M2 = A(2T) and P(2T)+A(2T) = P(4T) are compared over
    ``search_range``, or else over at least the first ``count`` (an integer
    of at least 1) values of each left side. The right side of each
    equality is recomputed from the discriminant of the extension
    (method="direct"), never assembled from the same separated spectra as
    the left side, so the comparison has content.
    """
    count = _check_n(count, "count")
    _check_positive(pair_tol, "pair_tol")
    even = p.even_extension()
    sep = {bc: find_eigenvalues(p, bc, search_range=search_range,
                                max_count=None if search_range else count + 2,
                                n_scan=n_scan, integrator_tol=integrator_tol).expanded()
           for bc in ("N", "D", "M1", "M2")}
    nd = sorted(sep["N"] + sep["D"])
    mm = sorted(sep["M1"] + sep["M2"])

    def window(values: list[float]) -> tuple[tuple[float, float], int]:
        """Range covering at least ``count`` values, cut inside a wide gap,
        and the number of values to compare.

        Cutting between members of a near-double pair is hopeless (the
        direct method cannot honor a boundary it cannot resolve), so the
        upper edge goes into the first gap beyond index count-1 that is
        comfortably wider than the pairing tolerance; everything up to
        that gap is compared.
        """
        if not values:
            return _auto_range(p, count), count
        for j in range(count, len(values)):
            if values[j] - values[j - 1] > 1e-3:
                return (values[0] - 1.0, 0.5 * (values[j - 1] + values[j])), j
        return (values[0] - 1.0, values[-1] + 1.0), len(values)

    reports = []
    for name, lhs_vals, pot, bc in (("N+D = P(2T)", nd, even, "P"),
                                    ("M1+M2 = A(2T)", mm, even, "A"),
                                    ("P(2T)+A(2T) = P(4T)", sorted(nd + mm),
                                     even.even_extension(), "P")):
        rng, take = (search_range, None) if search_range else window(lhs_vals)
        rhs = find_eigenvalues(pot, bc, search_range=rng, n_scan=n_scan,
                               integrator_tol=integrator_tol, method="direct").expanded()
        lhs = [v for v in lhs_vals if rng[0] <= v <= rng[1]]
        reports.append({**_match_sets(lhs[:take], rhs[:take], pair_tol), "name": name,
                        "search_range": tuple(rng)})
    return {"potential": p.descriptor_hash(), "count": count, "pair_tol": pair_tol,
            "equalities": reports, "pass": all(r["pass"] for r in reports)}


def _link(lhs: str, lhs_value: float, relation: str, rhs: str, rhs_value: float,
          bound: float) -> dict:
    """One graded relation between two named values, with margin rhs - lhs.

    "=" holds when the two are within ``bound``, "<" when the margin exceeds
    ``bound``, and "<=" when lhs <= rhs + 1e-9.
    """
    gap = rhs_value - lhs_value
    ok = {"=": abs(gap) <= bound, "<": gap > bound,
          "<=": lhs_value <= rhs_value + 1e-9}[relation]
    return {"lhs": lhs, "rhs": rhs, "relation": relation, "lhs_value": lhs_value,
            "rhs_value": rhs_value, "margin": gap, "pass": bool(ok)}


def _first_corner_root(p: Potential, corner: float, lo: float, hi: float,
                       integrator_tol: float) -> float | None:
    """First zero of the Neumann kernel corner value between two Neumann poles.

    The mixed eigenvalues interlace with the Neumann ones, N0 < M1_0, M2_0 < N1,
    so the corner value has one zero and no pole in (lo, hi): one bracket 1e-3
    of the span inside each pole holds it (an end where it is exactly zero is
    the root). A resonant end returns None.
    """
    def g(lam: float) -> float:
        return kernel_value(p, lam, "N", corner, corner, tol=integrator_tol)

    span = hi - lo
    a, b = lo + 1e-3 * span, hi - 1e-3 * span
    try:
        ga, gb = g(a), g(b)
    except ResonanceError:
        return None
    return brentq(g, a, b, xtol=1e-10) if np.sign(ga) != np.sign(gb) else None


# Paper item -> (description, links). A link (lhs, relation, rhs) names two
# first eigenvalues by their ``values`` keys, or lambda_M = min(M1, M2). A
# corner entry (corner, mixed) checks the Neumann kernel at (corner, corner)
# against the extension's periodic one, and its first zero against ``mixed``.
_FIRST_RELATIONS = {
    1: ("first Neumann eigenvalue survives the even extension and equals the first "
        "periodic eigenvalue",
        [("lambda_N", "=", "lambda_N_2T"), ("lambda_N", "=", "lambda_P_2T")]),
    5: ("Neumann kernel at (0,0) doubles the extension's periodic corner value; its first "
        "zero is the first eigenvalue of u(0)=u'(T)=0", ("0", "lambda_M2")),
    6: ("Neumann kernel at (T,T) doubles the extension's periodic corner value; its first "
        "zero is the first eigenvalue of u'(0)=u(T)=0", ("T", "lambda_M1")),
    7: ("first anti-periodic eigenvalue of the extension is the smaller of the two mixed "
        "eigenvalues", [("lambda_A_2T", "=", "lambda_M")]),
    8: ("first eigenvalue of u(0)=u'(T)=0 equals the extension's first Dirichlet eigenvalue "
        "and both precede the base Dirichlet eigenvalue",
        [("lambda_M2", "=", "lambda_D_2T"), ("lambda_D_2T", "<", "lambda_D")]),
    9: ("first Neumann eigenvalue precedes the first eigenvalue of u'(0)=u(T)=0",
        [("lambda_N", "<", "lambda_M1")]),
}


def first_eigenvalue_relations(p: Potential, tol: float = 1e-5,
                               margin: float = 1e-6, *, n_scan: int = DEFAULT_SCAN,
                               integrator_tol: float = DEFAULT_TOL) -> dict:
    """First-eigenvalue equalities, orderings and corner characterizations.

    Each paper item (1 and 5-9) is a list of checks, graded "=" within
    ``tol`` and "<" by more than ``margin``; a check names its two sides
    under ``lhs`` and ``rhs`` and reports their values and the margin
    rhs - lhs. The corner zeros of the Neumann kernel are matched against
    the mixed eigenvalues: the (0,0) corner vanishes first at the lowest
    eigenvalue of the problem u(0)=u'(T)=0 and the (T,T) corner at the
    lowest of u'(0)=u(T)=0.  (The kernel corner values are -y2'(T)/y1'(T)
    and -y1(T)/y1'(T), so their zero sets are those two spectra exactly.)
    """
    _check_positive(tol, "tol")
    _check_positive(margin, "margin")
    even = p.even_extension()

    # key -> (potential, condition, count); "direct" only matters for P and A
    runs = {"lambda_N": (p, "N", 2), "lambda_D": (p, "D", 1),
            "lambda_M1": (p, "M1", 1), "lambda_M2": (p, "M2", 1),
            "lambda_N_2T": (even, "N", 1), "lambda_D_2T": (even, "D", 1),
            "lambda_P_2T": (even, "P", 1), "lambda_A_2T": (even, "A", 1)}
    found = {key: find_eigenvalues(pot, bc, max_count=count, n_scan=n_scan,
                                   integrator_tol=integrator_tol, method="direct").values()
             for key, (pot, bc, count) in runs.items()}
    vals = {key: v[0] if v else None for key, v in found.items()}
    if any(v is None for v in vals.values()) or len(found["lambda_N"]) < 2:
        return {"values": vals, "pass": False,
                "error": "not enough eigenvalues found in the scan range"}

    lam_n0, lam_n1 = found["lambda_N"][:2]
    operands = {**vals, "lambda_M": min(vals["lambda_M1"], vals["lambda_M2"])}
    # Sample points where every kernel involved is nonresonant.
    samples = [lam_n0 - 1.0, 0.5 * (lam_n0 + operands["lambda_M"])]

    def corner_checks(corner: str, mixed: str) -> list[dict]:
        """N(c, c) = 2 P_2T(c, c) at the samples, and the first zero of N(c, c),
        kept in ``vals``, against the first eigenvalue of ``mixed``."""
        at = 0.0 if corner == "0" else p.domain_length
        checks = [{**_link(f"N({corner},{corner})",
                           kernel_value(p, lam_s, "N", at, at, tol=integrator_tol), "=",
                           f"2 P_2T({corner},{corner})",
                           2.0 * kernel_value(even, lam_s, "P", at, at, tol=integrator_tol), tol),
                   "lambda": lam_s} for lam_s in samples]
        key = f"corner_root_{corner}{corner}"
        vals[key] = root = _first_corner_root(p, at, lam_n0, lam_n1, integrator_tol)
        checks.append(_link(key, root, "=", mixed, vals[mixed], tol) if root is not None else
                      {"lhs": key, "relation": "=", "rhs": mixed, "pass": False,
                       "error": "corner root not bracketed"})
        return checks

    items = []
    for item, (description, links) in _FIRST_RELATIONS.items():
        checks = corner_checks(*links) if isinstance(links, tuple) else [
            _link(lhs, operands[lhs], rel, rhs, operands[rhs], tol if rel == "=" else margin)
            for lhs, rel, rhs in links]
        items.append({"item": item, "description": description, "checks": checks,
                      "pass": all(c["pass"] for c in checks)})
    return {"values": vals, "items": items, "tol": tol, "margin": margin,
            "pass": all(item["pass"] for item in items)}


def verify_interlacing(p: Potential, count: int = 3, n_scan: int = DEFAULT_SCAN, *,
                       margin: float = 1e-6, integrator_tol: float = DEFAULT_TOL) -> dict:
    """Ordering chains tying the four separated spectra to the extension's.

    Covers the classical alternation of periodic and anti-periodic
    eigenvalues of the even extension, the per-index interlacing of each
    mixed spectrum with Neumann and Dirichlet, and the grouped global
    chain, over the first ``count`` indices, an integer of at least 1
    (Magnus & Winkler, Hill's Equation, 1966, ch. 2).  Each link is graded
    "<" by more than ``margin``, or "<=" within 1e-9; a group link compares
    the largest of one group with the smallest of the next.  Mixed-vs-mixed
    and Neumann-vs-Dirichlet alternation is only observed and reported,
    never asserted; values within their closing widths tie, N before D and M1
    before M2.  The chains pair eigenvalues by index from the lowest, so
    every spectrum is taken from its first eigenvalue on.
    """
    count = _check_n(count, "count")
    _check_positive(margin, "margin")
    need = count + 2
    sep = {bc: find_eigenvalues(p, bc, max_count=need, n_scan=n_scan,
                                integrator_tol=integrator_tol).values()
           for bc in ("N", "D", "M1", "M2")}
    if any(len(v) < count + 1 for v in sep.values()):
        return {"pass": False, "error": "not enough eigenvalues per problem",
                "found": {k: len(v) for k, v in sep.items()}}

    even = p.even_extension()
    spec_p, spec_a = (find_eigenvalues(even, bc, max_count=2 * need, n_scan=n_scan,
                                       integrator_tol=integrator_tol, method="union")
                      for bc in ("P", "A"))
    pexp, aexp = spec_p.expanded(), spec_a.expanded()

    def chain(members: list[tuple[str, tuple[float, ...]]], relations=("<",)) -> dict:
        """Each member's largest value against the next one's smallest, the
        relations taken in turn."""
        links = [_link(a, max(va), rel, b, min(vb), margin)
                 for (a, va), rel, (b, vb) in zip(members, cycle(relations), members[1:])]
        return {"links": links, "pass": all(link["pass"] for link in links)}

    # lambda_0 < mu_1 <= mu_2 < lambda_1 <= lambda_2 < mu_3 <= mu_4 < ...
    oscillation = [("P0", (pexp[0],))] if pexp and aexp else []
    for g in range(min((len(pexp) - 1) // 2, len(aexp) // 2, count)):
        oscillation += [(f"A{2*g+1}", (aexp[2 * g],)), (f"A{2*g+2}", (aexp[2 * g + 1],)),
                        (f"P{2*g+1}", (pexp[2 * g + 1],)), (f"P{2*g+2}", (pexp[2 * g + 2],))]
    chains = {"oscillation": {**chain(oscillation, ("<", "<=")),
                              "sequence": [v for _, (v,) in oscillation]}}
    # low_0 < mid_0 < low_1 < ... < low_count
    for name, low, mid in (("N_M1", "N", "M1"), ("M2_D", "M2", "D"),
                           ("N_M2", "N", "M2"), ("M1_D", "M1", "D")):
        chains[name] = chain([(f"{bc}{k}", (sep[bc][k],)) for k in range(count)
                              for bc in (low, mid)] + [(f"{low}{count}", (sep[low][count],))])
    # N0 < {M1_0, M2_0} < {D0, N1} < {M1_1, M2_1} < ...
    chains["groups"] = chain([("N0", (sep["N"][0],))] + [
        group for k in range(count)
        for group in ((f"M1_{k}/M2_{k}", (sep["M1"][k], sep["M2"][k])),
                      (f"D{k}/N{k+1}", (sep["D"][k], sep["N"][k + 1])))])

    # Multiplicity coherence of the union assembly.
    parity = [{**entry, "pass": set(entry["from"]) == pair}
              for spec, pair in ((spec_a, {"M1", "M2"}), (spec_p, {"N", "D"}))
              for entry in spec.audit.get("sources", []) if len(entry["from"]) == 2]
    parity_pass = all(e["pass"] for e in parity)

    def pattern(first: str, second: str) -> str:
        # each value moves by its closing width, first's down and second's up:
        # two values within their combined widths read first, then second
        return "".join(bc for *_, bc in sorted((v + s * (ROOT_XTOL + _RTOL * abs(v)), s, bc)
                                               for s, bc in ((-1, first), (1, second))
                                               for v in sep[bc]))

    observations = {"mixed_order_pattern": pattern("M1", "M2"),
                    "neumann_dirichlet_pattern": pattern("N", "D"),
                    "mixed_spectra_coincide": bool(max(abs(x - y) for x, y in zip(
                        sep["M1"][:count], sep["M2"][:count])) <= 1e-6)}
    return {"potential": p.descriptor_hash(), "count": count, "chains": chains,
            "pair_parity": parity, "pair_parity_pass": parity_pass,
            "observations": observations,
            "pass": all(c["pass"] for c in chains.values()) and parity_pass}


def stability_intervals(p: Potential, search_range=None, n_scan: int = DEFAULT_SCAN, *,
                        integrator_tol: float = DEFAULT_TOL) -> list[tuple[tuple[float, float], str]]:
    """Stable/unstable bands of the even extension's discriminant.

    The band edges are the periodic and anti-periodic eigenvalues of the
    extension.  Each simple eigenvalue switches between stable (|Delta| < 2)
    and unstable; a double one pinches a stable band at a point and splits
    it there.  Only the first piece is classified by |Delta| itself, so a
    gap too shallow for the computed |Delta| to show is still reported.
    """
    even = p.even_extension()
    if search_range is None:
        lo, hi = _auto_range(p, 8)
    else:
        lo, hi = (float(search_range[0]), float(search_range[1]))

    edges = sorted((e for bc in ("P", "A")
                    for e in find_eigenvalues(even, bc, search_range=(lo, hi), n_scan=n_scan,
                                              integrator_tol=integrator_tol).eigenvalues),
                   key=lambda e: e.value)
    cuts = [lo] + [e.value for e in edges] + [hi]
    mid = 0.5 * (cuts[0] + cuts[1])
    stable = abs(discriminant(even, mid, tol=integrator_tol)) < 2.0
    out: list[tuple[tuple[float, float], str]] = []
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if k and edges[k - 1].multiplicity == 1:
            stable = not stable
        if b - a > 1e-12:
            out.append(((a, b), "stable" if stable else "unstable"))
    return out
