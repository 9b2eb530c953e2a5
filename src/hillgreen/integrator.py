"""Fundamental solutions of u'' + (a(t) + lambda) u = 0.

Two solution bases drive everything downstream: an adaptive high-accuracy
integration (one lambda at a time, cached, with dense output for kernel
grids) and a vectorized fixed-step sweep over many lambda values at once
for locating eigenvalue brackets cheaply.

Both integrate piecewise: every segment between potential breakpoints is
smooth, so discontinuities never land inside a step.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, IntegrationError
from .potential import Potential

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


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    return tol


def _segment_edges(p: Potential, length: float) -> np.ndarray:
    inner = [b for b in p.breakpoints if 1e-14 < b < length * (1 - 1e-14)]
    return np.array([0.0, *inner, length])


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
    """Integrate the normalized basis over [0, length] (default: the full domain).

    Results are cached per (potential, lambda, length, tolerance); the cache
    is threadsafe and bounded.
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

    edges = _segment_edges(p, L)
    rtol = max(tol, 1e-13)
    atol = max(tol * 1e-2, 1e-14)
    y = np.array([1.0, 0.0, 0.0, 1.0])
    sols = []
    for t0, t1 in zip(edges, edges[1:]):
        # stage times can land exactly on t1; clamp the evaluation onto this
        # segment's piece so a jump's right-hand value never leaks in
        back = t1 - 1e-12 * (1.0 + L)

        def rhs(t, y, _b=back):
            q = p.eval(min(t, _b)) + lam
            return (y[1], -q * y[0], y[3], -q * y[2])

        res = solve_ivp(rhs, (t0, t1), y, method="RK45", dense_output=True,
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
    Fixed-step RK4 with the step chosen from the stiffest lambda in the
    batch, so accuracy is approximate; use it to bracket roots, then refine
    with ``fundamental_solutions``.
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

    Y = np.zeros((4, K))
    Y[0] = 1.0
    Y[3] = 1.0

    edges = _segment_edges(p, L)
    for t0, t1 in zip(edges, edges[1:]):
        span = t1 - t0
        a_probe = p.eval(np.linspace(t0, t1, 33))
        qmax = float(np.max(np.abs(a_probe))) + lam_mag
        omega = math.sqrt(max(qmax, 1.0))
        # global RK4 error ~ span * h^4 * omega^5 / 120
        h_target = (120.0 * accuracy / (span * omega ** 5)) ** 0.25
        n = max(8, min(int(math.ceil(span / h_target)), 400_000))
        h = span / n
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


def _rhs_batch(q: np.ndarray, Y: np.ndarray) -> np.ndarray:
    out = np.empty_like(Y)
    out[0] = Y[1]
    out[1] = -q * Y[0]
    out[2] = Y[3]
    out[3] = -q * Y[2]
    return out
