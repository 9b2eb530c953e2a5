"""Fundamental solutions of u'' + (a(t) + lambda) u = 0.

Two solution bases drive everything downstream: an accurate integration
(one lambda at a time, cached, with dense output for kernel grids) and a
vectorized sweep over many lambda values at once for locating eigenvalue
brackets cheaply.

Both work piecewise: every segment between potential breakpoints is
smooth, so discontinuities never land inside a step. A segment inside a
constant piece (directly or through mirror wrappers) takes one exact
transfer step, with cos/sin of sqrt(q) h, cosh/sinh for q < 0 and (1, h)
for q = 0, in both routes. Other segments use adaptive Dormand-Prince
8(5,3) (``solve_ivp``, method DOP853) for the single-lambda basis and
fixed-step RK4 for the sweep.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, IntegrationError
from .potential import ConstPiece, MirrorPiece, Potential

__all__ = [
    "TOL_MIN",
    "TOL_MAX",
    "DEFAULT_TOL",
    "SolutionBasis",
    "fundamental_solutions",
    "discriminant",
    "endpoint_scan",
]

TOL_MIN = 1e-14
TOL_MAX = 1e-4
DEFAULT_TOL = 1e-10

# RK4 steps per segment beyond which endpoint_scan refuses the batch
_SCAN_MAX_STEPS = 400_000


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    return tol


def _segments(p: Potential, length: float):
    """Edges of the smooth segments of [0, length], and each segment's constant.

    The constant is a + shift on a segment inside a ``ConstPiece`` (seen
    through any ``MirrorPiece`` wrappers) and None on any other segment.
    """
    inner = [b for b in p.breakpoints if 1e-14 < b < length * (1 - 1e-14)]
    edges = np.array([0.0, *inner, length])
    consts = []
    for t0, t1 in zip(edges, edges[1:]):
        mid = 0.5 * (t0 + t1)
        piece = next(pc for a, b, pc in p.pieces if a <= mid < b)
        while isinstance(piece, MirrorPiece):
            piece = piece.base
        consts.append(piece.value + p.shift if isinstance(piece, ConstPiece) else None)
    return edges, consts


def _exact_step(y, q, h):
    """State (y1, y1', y2, y2') carried by h across a constant piece u'' + q u = 0.

    q and h broadcast against the entries of y: a batch of lambdas takes one
    step of a common h, and dense output takes many h from one state.
    """
    q, h = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(h, dtype=float))
    c = np.ones(q.shape)
    s = h.copy()
    # each branch only where it applies: cosh of a large argument overflows
    pos, neg = q > 0, q < 0
    w = np.sqrt(q[pos])
    c[pos] = np.cos(w * h[pos])
    s[pos] = np.sin(w * h[pos]) / w
    w = np.sqrt(-q[neg])
    c[neg] = np.cosh(w * h[neg])
    s[neg] = np.sinh(w * h[neg]) / w
    qs = q * s
    return np.stack([c * y[0] + s * y[1], c * y[1] - qs * y[0],
                     c * y[2] + s * y[3], c * y[3] - qs * y[2]])


def _exact_dense(y0, q, t0, t):
    return _exact_step(y0, q, np.asarray(t, dtype=float) - t0)


@dataclass(eq=False)
class SolutionBasis:
    """Normalized solution pair for one (potential, lambda).

    y1 solves y(0)=1, y'(0)=0; y2 solves y(0)=0, y'(0)=1. The state vector
    is (y1, y1', y2, y2') and ``trajectory`` evaluates it anywhere on
    [0, length] from stored dense output.
    """

    lam: float
    length: float
    tol: float
    y1_end: float
    y1p_end: float
    y2_end: float
    y2p_end: float
    _edges: np.ndarray = field(repr=False)
    _sols: list = field(repr=False)

    @property
    def monodromy(self) -> np.ndarray:
        return np.array([[self.y1_end, self.y2_end], [self.y1p_end, self.y2p_end]])

    @property
    def discriminant(self) -> float:
        return self.y1_end + self.y2p_end

    def trajectory(self, t):
        """State (y1, y1', y2, y2') at t; shape (4,) for scalars, (4, n) for arrays."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        tt = np.atleast_1d(arr).astype(float)
        slack = 1e-12 * (1.0 + self.length)
        if tt.size and (tt.min() < -slack or tt.max() > self.length + slack):
            raise DomainError(f"evaluation point outside [0, {self.length}]")
        tt = np.clip(tt, 0.0, self.length)
        idx = np.searchsorted(self._edges, tt, side="right") - 1
        np.clip(idx, 0, len(self._sols) - 1, out=idx)
        out = np.empty((4, tt.size))
        for k in np.unique(idx):
            m = idx == k
            out[:, m] = self._sols[k](tt[m])
        return out[:, 0] if scalar else out

    def wronskian(self, t) -> float:
        y = self.trajectory(t)
        return float(y[0] * y[3] - y[1] * y[2]) if y.ndim == 1 else y[0] * y[3] - y[1] * y[2]


_CACHE: OrderedDict = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = 256


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def fundamental_solutions(p: Potential, lam: float, length: float | None = None,
                          tol: float = DEFAULT_TOL) -> SolutionBasis:
    """Solve for the normalized basis over [0, length] (default: the full domain).

    A segment inside a constant piece takes one exact transfer step, and its
    dense output is the same closed form. Every other segment is integrated
    by ``solve_ivp`` with DOP853 at rtol = max(tol/10, 1e-13) and
    atol = max(tol * 1e-3, 1e-15). Results are cached per (potential,
    lambda, length, tolerance); the cache is threadsafe and bounded.
    """
    tol = _check_tol(tol)
    L = float(p.domain_length if length is None else length)
    if not 0.0 < L <= p.domain_length * (1 + 1e-12):
        raise ValueError(f"integration length {L} not within the potential domain")
    L = min(L, p.domain_length)
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")

    key = (p, lam, L, tol)
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            _CACHE.move_to_end(key)
            return hit

    edges, consts = _segments(p, L)
    rtol = max(tol / 10.0, 1e-13)
    atol = max(tol * 1e-3, 1e-15)
    y = np.array([1.0, 0.0, 0.0, 1.0])
    sols = []
    for t0, t1, const in zip(edges, edges[1:], consts):
        if const is not None:
            sols.append(partial(_exact_dense, y, const + lam, t0))
            y = _exact_step(y, const + lam, t1 - t0)
            continue
        # stage times can land exactly on t1; clamp the evaluation onto this
        # segment's piece so a jump's right-hand value never leaks in
        back = t1 - 1e-12 * (1.0 + L)

        def rhs(t, y, _b=back):
            q = p.eval(min(t, _b)) + lam
            return (y[1], -q * y[0], y[3], -q * y[2])

        res = solve_ivp(rhs, (t0, t1), y, method="DOP853", dense_output=True,
                        rtol=rtol, atol=atol)
        if not res.success:
            raise IntegrationError(
                f"integration stalled on [{t0}, {t1}] at lambda={lam}: {res.message}",
                t=float(res.t[-1]) if res.t.size else t0)
        sols.append(res.sol)
        y = res.y[:, -1]

    basis = SolutionBasis(lam=lam, length=L, tol=tol,
                          y1_end=float(y[0]), y1p_end=float(y[1]),
                          y2_end=float(y[2]), y2p_end=float(y[3]),
                          _edges=edges, _sols=sols)
    with _CACHE_LOCK:
        _CACHE[key] = basis
        if len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return basis


def discriminant(p: Potential, lam: float, length: float | None = None,
                 tol: float = DEFAULT_TOL) -> float:
    """Trace of the monodromy matrix, y1(L) + y2'(L)."""
    return fundamental_solutions(p, lam, length, tol).discriminant


def endpoint_scan(p: Potential, lams, length: float | None = None,
                  accuracy: float = 1e-7) -> np.ndarray:
    """Endpoint states for a whole batch of lambda values in one sweep.

    Returns shape (4, K): rows y1(L), y1'(L), y2(L), y2'(L) per lambda.
    A segment inside a constant piece takes one exact step for the whole
    batch, whatever ``accuracy``. Other segments take fixed-step RK4 with
    the step chosen from the stiffest lambda in the batch, so accuracy is
    approximate there; use the scan to bracket roots, then refine with
    ``fundamental_solutions``. Raises ``IntegrationError``, before any
    stepping, when a segment would need more than 400,000 RK4 steps.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all(np.isfinite(lams)):
        raise ValueError("lambda values must be finite")
    L = float(p.domain_length if length is None else length)
    if not 0.0 < L <= p.domain_length * (1 + 1e-12):
        raise ValueError(f"scan length {L} not within the potential domain")
    L = min(L, p.domain_length)
    K = lams.size
    lam_mag = float(np.max(np.abs(lams))) if K else 0.0

    edges, consts = _segments(p, L)
    steps = [None if const is not None else _rk4_steps(p, t0, t1, lam_mag, accuracy)
             for t0, t1, const in zip(edges, edges[1:], consts)]

    Y = np.zeros((4, K))
    Y[0] = 1.0
    Y[3] = 1.0
    for t0, t1, const, n in zip(edges, edges[1:], consts, steps):
        if const is not None:
            Y = _exact_step(Y, const + lams, t1 - t0)
            continue
        h = (t1 - t0) / n
        ts_nodes = t0 + h * np.arange(n + 1)
        # the closing node sits on the breakpoint; evaluate just left of it
        # so the next piece's value never enters this segment's steps
        ts_nodes[-1] = t1 - 1e-12 * (1.0 + L)
        a_nodes = p.eval(ts_nodes)
        a_half = p.eval(t0 + h * (np.arange(n) + 0.5))

        for i in range(n):
            q0 = a_nodes[i] + lams
            qh = a_half[i] + lams
            q1 = a_nodes[i + 1] + lams

            k1 = _rhs_batch(q0, Y)
            k2 = _rhs_batch(qh, Y + 0.5 * h * k1)
            k3 = _rhs_batch(qh, Y + 0.5 * h * k2)
            k4 = _rhs_batch(q1, Y + h * k3)
            Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return Y


def _rk4_steps(p: Potential, t0: float, t1: float, lam_mag: float, accuracy: float) -> int:
    """RK4 steps that give ``accuracy`` on one scan segment; refuses more than the cap."""
    span = t1 - t0
    qmax = float(np.max(np.abs(p.eval(np.linspace(t0, t1, 33))))) + lam_mag
    omega = math.sqrt(max(qmax, 1.0))
    # global RK4 error ~ span * h^4 * omega^5 / 120, solved for span / h
    # without forming omega^5, which overflows for large lambda
    n = math.ceil(span * omega ** 1.25 / (120.0 * accuracy / span) ** 0.25)
    if n > _SCAN_MAX_STEPS:
        raise IntegrationError(
            f"scan segment [{t0}, {t1}] needs {n:.3g} RK4 steps at |lambda| up to "
            f"{lam_mag:g} and accuracy {accuracy:g}, over the cap of {_SCAN_MAX_STEPS}",
            t=float(t0))
    return max(8, n)


def _rhs_batch(q: np.ndarray, Y: np.ndarray) -> np.ndarray:
    out = np.empty_like(Y)
    out[0] = Y[1]
    out[1] = -q * Y[0]
    out[2] = Y[3]
    out[3] = -q * Y[2]
    return out
