"""Fundamental solutions of u'' + (a(t) + lambda) u = 0.

Two solution bases drive everything downstream: an integration one lambda
at a time (a table of pieces from which any point's state is read, cached
by ``_memo`` like the kernel workspaces of ``greens._KernelCache``) and a
vectorized sweep over many lambdas at once, which both scans for eigenvalue
brackets and, with its steps planned once at the integrator tolerance,
refines them.

Both work piecewise: segments end at the potential's breakpoints and at
the nodes of its table pieces, so no step straddles a jump of a or of a'.
A segment inside a constant piece (directly or through mirror wrappers)
takes one exact transfer step, with cos/sin of sqrt(q) h, cosh/sinh for
q < 0 and (1, h) for q = 0, in both routes. Other segments use adaptive
Dormand-Prince 8(5,3) (``solve_ivp``, method DOP853) for the single-lambda
basis. That basis keeps one flat table of pieces: each constant segment
and each DOP853 step, with its start state and either q or the step's
7th-degree dense-output polynomial (Hairer, Norsett & Wanner, Solving ODEs
I, II.6). Any batch of points is read from it by one search and one
vectorized pass per kind of piece. The sweep takes equal 6th-order Magnus
steps there (three-point Gauss; Iserles & Norsett 1999, Blanes, Casas &
Ros 2000, Blanes, Casas, Oteo & Ros 2009): each step is exp(Omega) with
Omega = [[d, e], [f, -d]] affine in lambda, and the exact step is the same
formula with d = 0, e = h, f = -h q. The step count per segment comes from
a Richardson estimate (n against 2n steps at a few probe lambdas), one
ladder for every accuracy asked, whose levels up to 256 steps are formed
in one pass, and the steps of a block of lambdas, one (2, 2, steps,
lambdas) array, are multiplied out pairwise as a tree.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .potential import ConstPiece, MirrorPiece, Potential, TablePiece, _on_domain

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

# Magnus steps per segment beyond which endpoint_scan refuses the batch
_MAX_STEPS = 1 << 16
# cells (steps x lambdas) per block of Magnus steps, and lambdas per block:
# smaller blocks pay more numpy calls, larger ones fall out of cache
_BLOCK = 16384
_LAMBDA_BLOCK = 4096
# probe lambdas spread over the batch for the step-count estimate
_PROBES = 7
# the ladder's levels up to this many steps are formed in one pass; a wider
# pass would evaluate the potential at more points than the ladder visits
_LADDER_PASS = 256
# endpoint_scan's default accuracy, at which find_eigenvalues scans for brackets
_SCAN_ACCURACY = 1e-7


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    return tol


def _check_positive(value: float, name: str) -> None:
    """Every verifier's rule for a tolerance, slack or margin: finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_accuracy(accuracy: float) -> None:
    if not 0.0 < float(accuracy) <= TOL_MAX:
        raise ValueError(f"accuracy {accuracy} outside (0, {TOL_MAX}]")


def _unwrap(piece):
    """The piece under any ``MirrorPiece`` wrappers, and their centers, outermost first."""
    centers = []
    while isinstance(piece, MirrorPiece):
        centers.append(piece.center)
        piece = piece.base
    return piece, centers


def _segments(p: Potential):
    """Edges of the smooth segments of ``p``'s domain, and each segment's constant.

    Edges are the breakpoints and the nodes of every table piece (seen
    through any ``MirrorPiece`` wrappers), where a linear table's first
    derivative and a PCHIP table's second derivative jump. The constant is
    a + shift on a segment inside a ``ConstPiece`` and None on any other
    segment.
    """
    length = p.domain_length
    slack = 1e-12 * (1.0 + length)
    cuts = set(p.breakpoints.tolist())
    for a, b, piece in p.pieces:
        base, centers = _unwrap(piece)
        if isinstance(base, TablePiece):
            xs = np.asarray(base.xs, dtype=float)
            for c in reversed(centers):
                xs = 2.0 * c - xs
            cuts.update(x for x in xs.tolist() if a + slack < x < b - slack)
    inner = sorted(b for b in cuts if 1e-14 < b < length * (1 - 1e-14))
    edges = np.array([0.0, *inner, length])
    consts = []
    for t0, t1 in zip(edges, edges[1:]):
        mid = 0.5 * (t0 + t1)
        base, _ = _unwrap(next(pc for a, b, pc in p.pieces if a <= mid < b))
        consts.append(base.value + p.shift if isinstance(base, ConstPiece) else None)
    return edges, consts


def _cos_sinc(w2):
    """C = cos(w) and S = sin(w) / w for w^2 = w2, elementwise; cosh and sinh for w2 < 0.

    exp(Omega) = C I + S Omega for a traceless 2x2 Omega with Omega^2 = -w2 I.
    w2 = 0 gives (1, 1). Each branch runs only where it applies: cosh of a
    large argument overflows.
    """
    w2 = np.asarray(w2, dtype=float)
    osc = w2 > 0
    if osc.all():
        return _oscillating(w2)
    c = np.ones(w2.shape)
    s = np.ones(w2.shape)
    grow = w2 < 0
    c[osc], s[osc] = _oscillating(w2[osc])
    c[grow], s[grow] = _growing(w2[grow])
    return c, s


def _oscillating(w2):
    # from t = tan(w / 2): cos w = (1 - t^2) / (1 + t^2), sin w = 2 t / (1 + t^2);
    # numpy's tan is several times faster than its cos and sin together
    half = 0.5 * np.sqrt(w2)
    t = np.tan(half)
    u = 1.0 / (1.0 + t * t)
    return (1.0 - t * t) * u, t * u / half


def _growing(w2):
    w = np.sqrt(-w2)
    return np.cosh(w), np.sinh(w) / w


def _exact_step(y, q, h):
    """State (y1, y1', y2, y2') carried by h across a constant piece u'' + q u = 0.

    q and h broadcast against the entries of y: a batch of lambdas takes one
    step of a common h, and dense output takes many h from one state. It is
    the Magnus step of a constant potential: d = 0 and one step of length h.
    """
    q, h = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(h, dtype=float))
    c, s = _cos_sinc(q * h * h)
    s = s * h
    return _apply((c, s, -q * s, c), y)


def _apply(m, y):
    """Transfer matrices m = (m00, m01, m10, m11) applied to states (y1, y1', y2, y2')."""
    return np.array([m[0] * y[0] + m[1] * y[1], m[2] * y[0] + m[3] * y[1],
                     m[0] * y[2] + m[1] * y[3], m[2] * y[2] + m[3] * y[3]])


def _matmul(a, b):
    """2x2 products a @ b of matrices stacked as (2, 2, ...) arrays, entrywise
    over the trailing axes: out[i, j] = a[i, 0] b[0, j] + a[i, 1] b[1, j]."""
    out = a[:, :1] * b[:1]
    out += a[:, 1:] * b[1:]
    return out


def _magnus_nodes(p: Potential, t0: float, t1: float, *counts: int):
    """The lambda-free coefficients (d0, d1, e, f0, g) of n Magnus-6 steps on [t0, t1],
    for each n of ``counts``: one block of steps per count, in order, from one
    evaluation of the potential.

    Each step's Omega is [[d, e], [f, -d]], affine in lambda: d = d0 + lambda d1
    and f = f0 + lambda g. With three-point Gauss nodes (Blanes, Casas & Ros
    2000), h = (t1 - t0) / n, a1, a2, a3 the potential at t_m - h sqrt(15)/10,
    t_m and t_m + h sqrt(15)/10, s = a1 - 2 a2 + a3 and D = a1 - a3:
    d1 = -sqrt(15) h^4 D / 540,
    d0 = -sqrt(15) D (h^2/36 + h^4 (a1 + a3)/6480 + h^4 a2/648),
    e = h + h^3 s/54 + h^5 D^2/2160, g = -h + h^3 s/54 - h^5 D^2/2160 and
    f0 = -h (5 a1 + 8 a2 + 5 a3)/18 - h^5 a2 D^2/2160
         + h^3 (22 a1 a3 + 4 a2 (a1 + a3) - 7 (a1^2 + a3^2) - 16 a2^2)/648.
    A constant potential a gives d = 0, e = h and f = -h (a + lambda). Each
    step carries its own h, so a block's values do not depend on the others.
    """
    sizes = np.array(counts)
    h = np.repeat((t1 - t0) / sizes, sizes)
    step = np.arange(h.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    mid = t0 + h * (step + 0.5)
    r = h * math.sqrt(15.0) / 10.0
    a1, a2, a3 = p.eval(np.concatenate([mid - r, mid, mid + r])).reshape(3, h.size)
    h2 = h * h
    dd = a1 - a3
    curve = (h * h2 / 54.0) * (a1 - 2.0 * a2 + a3)
    tail = (h * h2 * h2 / 2160.0) * dd * dd
    d1 = (-math.sqrt(15.0) * h2 * h2 / 540.0) * dd
    d0 = -math.sqrt(15.0) * dd * (h2 / 36.0 + h2 * h2 * (a1 + a3 + 10.0 * a2) / 6480.0)
    f0 = (-h / 18.0) * (5.0 * (a1 + a3) + 8.0 * a2) - tail * a2 + (h * h2 / 648.0) * (
        22.0 * a1 * a3 + 4.0 * a2 * (a1 + a3) - 7.0 * (a1 * a1 + a3 * a3) - 16.0 * a2 * a2)
    return d0, d1, h + curve + tail, f0, curve - tail - h


def _magnus_steps(d0, d1, e, f0, g, lams):
    """Step matrices exp(Omega) = C I + S Omega, Omega = [[d, e], [f, -d]].

    d = d0 + lambda d1 and f = f0 + lambda g; Omega^2 = -w2 I with
    w2 = -d^2 - e f. Returns one (2, 2, steps, lambdas) array.
    """
    m = np.empty((2, 2, d0.size, lams.size))
    d = np.multiply(d1[:, None], lams, out=m[0, 0])
    d += d0[:, None]
    f = np.multiply(g[:, None], lams, out=m[1, 0])
    f += f0[:, None]
    e = e[:, None]
    w2 = e * f
    w2 += d * d
    np.negative(w2, out=w2)
    c, s = _cos_sinc(w2)
    d *= s
    f *= s
    np.subtract(c, d, out=m[1, 1])
    d += c
    np.multiply(s, e, out=m[0, 1])
    return m


def _tree_product(m):
    """Ordered product, last step leftmost, of (2, 2, steps, ...) step matrices, pairwise."""
    while m.shape[2] > 1:
        rows = m.shape[2]
        pairs = _matmul(m[:, :, 1::2], m[:, :, 0:rows - 1:2])
        m = pairs if rows % 2 == 0 else np.concatenate([pairs, m[:, :, -1:]], axis=2)
    return m[:, :, 0]


def _blocks(coeffs, counts) -> list:
    """``_magnus_nodes(p, t0, t1, *counts)``'s coefficients cut into one tuple per count."""
    bounds = np.cumsum([0, *counts])
    return [tuple(x[i:j] for x in coeffs) for i, j in zip(bounds, bounds[1:])]


def _magnus_levels(p: Potential, t0: float, t1: float, counts: list, lams: np.ndarray):
    """Coefficients and transfer matrices (2, 2, lambdas) of ascending power-of-two
    step counts on [t0, t1], from one node pass and one pass of step matrices.

    The product is ``_tree_product``'s, level-wise over all the steps at
    once: each round pairs neighbouring steps, which stay inside their block
    while every block left is even, and a block reduced to one matrix leaves
    from the front. So each count's matrix equals ``_magnus_transfer`` of its
    steps bit for bit as long as its steps times ``lams.size`` fit in one
    ``_BLOCK``.
    """
    coeffs = _magnus_nodes(p, t0, t1, *counts)
    m = _magnus_steps(*coeffs, lams)
    sizes = list(counts)
    transfers = []
    while sizes:
        m = _matmul(m[:, :, 1::2], m[:, :, 0::2])
        sizes = [size // 2 for size in sizes]
        while sizes and sizes[0] == 1:
            transfers.append(m[:, :, 0])
            m = m[:, :, 1:]
            del sizes[0]
    return _blocks(coeffs, counts), transfers


def _magnus_transfer(d0, d1, e, f0, g, lams):
    """Transfer matrix of all the steps for every lambda, of shape (2, 2, lambdas).

    Blocks of at most ``_BLOCK`` (step, lambda) cells are built at once and
    tree-reduced to one matrix per lambda.
    """
    coeffs = (d0, d1, e, f0, g)
    n, K = d0.size, lams.size
    kb = max(1, min(K, _LAMBDA_BLOCK))
    sb = 1 << max(0, (_BLOCK // kb).bit_length() - 1)
    out = np.empty((2, 2, K))
    for k0 in range(0, K, kb):
        lam = lams[k0:k0 + kb]
        total = None
        for s0 in range(0, n, sb):
            block = _tree_product(_magnus_steps(*(x[s0:s0 + sb] for x in coeffs), lam))
            total = block if total is None else _matmul(block, total)
        out[..., k0:k0 + kb] = total
    return out


class _PieceTable(NamedTuple):
    """The pieces of a solution basis: each constant segment and each DOP853 step.

    Row j starts at ``starts[j]`` in state ``states[j]``. On a constant
    piece ``q[j]`` = a + lambda and t is read by the exact step from there.
    On a DOP853 step ``q[j]`` is NaN and t is read by that step's dense
    output, from its length ``h[j]`` and coefficients ``coeffs[j]`` (the
    ``F`` of scipy's ``Dop853DenseOutput``).
    """

    starts: np.ndarray
    states: np.ndarray
    q: np.ndarray
    h: np.ndarray
    coeffs: np.ndarray

    def read(self, t: np.ndarray) -> np.ndarray:
        """States (4, t.size) at t in [0, L], each from the last piece starting
        at or before it."""
        k = np.searchsorted(self.starts, t, side="right") - 1
        smooth = np.isnan(self.q[k])
        if smooth.all():
            return self._dop853(t, k)
        if not smooth.any():
            return self._exact(t, k)
        out = np.empty((4, t.size))
        out[:, smooth] = self._dop853(t[smooth], k[smooth])
        out[:, ~smooth] = self._exact(t[~smooth], k[~smooth])
        return out

    def point(self, t: float) -> list:
        """The state at one t in [0, L] as four floats, by the arithmetic of
        ``read`` operation for operation, so equal to it bit for bit."""
        k = int(self.starts.searchsorted(t, side="right")) - 1
        t0, y0, q = float(self.starts[k]), self.states[k].tolist(), float(self.q[k])
        if math.isnan(q):
            x, y = (t - t0) / float(self.h[k]), [0.0] * 4
            for i, f in enumerate(reversed(self.coeffs[k].tolist())):  # _dop853's loop
                y = [(a + b) * (1 - x if i % 2 else x) for a, b in zip(y, f)]
            return [a + b for a, b in zip(y, y0)]
        # _exact_step: _cos_sinc's branches on a float, then _apply
        h = t - t0
        w2 = q * h * h
        c, s = _oscillating(w2) if w2 > 0 else _growing(w2) if w2 < 0 else (1.0, 1.0)
        s = s * h
        return _apply((c, s, -q * s, c), y0).tolist()

    def _exact(self, t, k):
        return _exact_step(self.states[k].T, self.q[k], t - self.starts[k])

    def _dop853(self, t, k):
        # Dop853DenseOutput._call_impl on the gathered steps, operation for
        # operation, so every value is scipy's to the last bit
        x = ((t - self.starts[k]) / self.h[k])[:, None]
        factors = (x, 1 - x)
        y = np.zeros((t.size, 4))
        for i, f in enumerate(self.coeffs[k][:, ::-1].transpose(1, 0, 2)):
            y += f
            y *= factors[i % 2]
        y += self.states[k]
        return y.T


@dataclass(eq=False)
class SolutionBasis:
    """Normalized solution pair for one (potential, lambda).

    y1 solves y(0)=1, y'(0)=0; y2 solves y(0)=0, y'(0)=1. The state vector
    is (y1, y1', y2, y2') and ``trajectory`` evaluates it anywhere on
    [0, length] from a table of the integration's pieces (``_PieceTable``):
    the constant segments and the DOP853 steps with their dense output. Its
    kernel workspaces (``greens._KernelCache``) live in ``_WORKSPACES``.
    """

    lam: float
    length: float
    tol: float
    y1_end: float
    y1p_end: float
    y2_end: float
    y2p_end: float
    _edges: np.ndarray = field(repr=False)
    _pieces: _PieceTable = field(repr=False)

    @property
    def monodromy(self) -> np.ndarray:
        return np.array([[self.y1_end, self.y2_end], [self.y1p_end, self.y2p_end]])

    @property
    def discriminant(self) -> float:
        return self.y1_end + self.y2p_end

    def trajectory(self, t):
        """State (y1, y1', y2, y2') at t, of shape (4, *np.shape(t)): (4,) for a scalar.

        Points off [0, length] follow ``potential._on_domain``, the domain
        rule of every point reader.  A point where two pieces meet (a segment
        edge or a DOP853 step's end) is read from the later piece, at its
        start state.
        """
        t = np.asarray(t, dtype=float)
        return self._pieces.read(_on_domain(t.ravel(), self.length)).reshape((4, *t.shape))

    def wronskian(self, t) -> float:
        y = self.trajectory(t)
        return float(y[0] * y[3] - y[1] * y[2]) if y.ndim == 1 else y[0] * y[3] - y[1] * y[2]


# Bases by (p, lambda, tol) and kernel workspaces by (p, lambda, tol, n); a
# kept workspace has at most _NODE_STATES nodes (512 KB), so 128 MB in all.
_CACHE: OrderedDict = OrderedDict()
_WORKSPACES: OrderedDict = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = 256
_NODE_STATES = 4096


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()
        _WORKSPACES.clear()


def _memo(cache: OrderedDict, key, make):
    """``make()`` memoized in ``cache`` under ``key``, at most ``_CACHE_MAX``
    entries, least recently used first out. ``make`` runs outside the lock;
    when two threads miss at once, both get the value stored first."""
    with _CACHE_LOCK:
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            return hit
    value = make()
    with _CACHE_LOCK:
        value = cache.setdefault(key, value)
        while len(cache) > _CACHE_MAX:
            cache.popitem(last=False)
    return value


def fundamental_solutions(p: Potential, lam: float, *,
                          tol: float = DEFAULT_TOL) -> SolutionBasis:
    """Solve for the normalized basis over [0, T], the domain of ``p``.

    A segment inside a constant piece takes one exact transfer step, and its
    dense output is the same closed form. Every other segment is integrated
    by ``solve_ivp`` with DOP853 at rtol = max(tol/10, 1e-13) and
    atol = max(tol * 1e-3, 1e-15). These are per-step tolerances: the
    global error grows with the number of oscillations, and at lambda = 1e4
    on ex3's even extension it is about 4.9e-10 relative to max(1, |Y|)
    even at tol 1e-13. Each segment and each DOP853 step becomes a row of
    the basis's piece table. Results are cached per (potential, lambda,
    tolerance); the cache is threadsafe and bounded.
    """
    tol = _check_tol(tol)
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    return _memo(_CACHE, (p, lam, tol), lambda: _integrate(p, lam, tol))


def _integrate(p: Potential, lam: float, tol: float) -> SolutionBasis:
    """The basis of ``fundamental_solutions``, integrated afresh."""
    L = p.domain_length
    edges, consts = _segments(p)
    rtol = max(tol / 10.0, 1e-13)
    atol = max(tol * 1e-3, 1e-15)
    y = np.array([1.0, 0.0, 0.0, 1.0])
    # rows of the piece table: (start, state, q, h, coefficients)
    rows = []
    for t0, t1, const in zip(edges, edges[1:], consts):
        if const is not None:
            rows.append((t0, y, const + lam, math.nan, np.zeros((7, 4))))
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
        rows.extend((s.t_old, s.y_old, math.nan, s.h, s.F) for s in res.sol.interpolants)
        y = res.y[:, -1]

    pieces = _PieceTable(*(np.array(column) for column in zip(*rows)))
    return SolutionBasis(lam=lam, length=L, tol=tol,
                         y1_end=float(y[0]), y1p_end=float(y[1]),
                         y2_end=float(y[2]), y2p_end=float(y[3]),
                         _edges=edges, _pieces=pieces)


def discriminant(p: Potential, lam: float, *, tol: float = DEFAULT_TOL) -> float:
    """Trace of the monodromy matrix, y1(T) + y2'(T)."""
    return fundamental_solutions(p, lam, tol=tol).discriminant


def endpoint_scan(p: Potential, lams, *, accuracy: float = _SCAN_ACCURACY) -> np.ndarray:
    """Endpoint states for a whole batch of lambda values in one sweep.

    Returns shape (4, K): rows y1(T), y1'(T), y2(T), y2'(T) per lambda,
    each column within ``accuracy`` * max(1, |Y|). A segment inside a
    constant piece takes one exact step for the whole batch, whatever
    ``accuracy``. Every other segment takes n equal Magnus-6 steps, the
    same n for every lambda, chosen from an error estimate: n and 2n steps
    are compared at a few probe lambdas (the batch's extremes and
    quantiles, and the turning values -a) until they agree within the
    segment's share of ``accuracy``, and n is then trimmed by the n^-6 law.
    The shares split ``accuracy`` over the segments and divide it by
    omega = sqrt(max(1, max|a| + max|lambda|)): an error in the phase of
    an oscillation reaches y1'(T) multiplied by omega.

    Raises ``ValueError`` for an ``accuracy`` outside (0, ``TOL_MAX``], and
    ``IntegrationError``, before any stepping of the batch, when it cannot
    certify ``accuracy``: when a segment would need more than 2**16
    steps, or when float64 rounding of the phase alone,
    10 eps (n + omega * segment length), exceeds ``accuracy``.
    """
    _check_accuracy(accuracy)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    (plan,) = _scan_plan(p, lams, accuracy)
    return _propagate(plan, lams)


def _scan_plan(p: Potential, lams: np.ndarray, *accuracies: float) -> list:
    """The steps of ``endpoint_scan`` for any lambda within the range of ``lams``,
    one plan per accuracy.

    A plan has one entry per segment: (constant, length, None) for a constant
    piece, (None, length, Magnus grid) for any other. A segment's grids come
    from one ladder at probes spread over ``lams``, and ``_propagate`` applies
    a plan to any batch inside that range.
    """
    if not np.all(np.isfinite(lams)):
        raise ValueError("lambda values must be finite")
    edges, consts = _segments(p)
    smooth = [(t0, t1) for t0, t1, const in zip(edges, edges[1:], consts) if const is None]
    grids = {}
    if smooth and lams.size:
        amin, amax = p.sample_bound()
        omega = math.sqrt(max(1.0, max(-amin, amax) + float(np.max(np.abs(lams)))))
        probes = np.unique(np.concatenate([
            np.quantile(lams, np.linspace(0.0, 1.0, _PROBES)),
            np.clip([-amax, -0.5 * (amin + amax), -amin], lams.min(), lams.max())]))
        # half of each accuracy, split over the segments: the n-against-2n
        # difference can miss the true error by about 2 where constant pieces follow
        targets = [(accuracy / (2.0 * omega * len(smooth)), accuracy) for accuracy in accuracies]
        for t0, t1 in smooth:
            grids[t0] = _magnus_grid(p, t0, t1, probes, omega, targets)
    return [[(const, t1 - t0, grids[t0][k] if t0 in grids else None)
             for t0, t1, const in zip(edges, edges[1:], consts)] for k in range(len(accuracies))]


def _propagate(plan, lams: np.ndarray) -> np.ndarray:
    """Endpoint states (4, K) of the lambdas ``lams`` through the steps of ``plan``."""
    Y = np.zeros((4, lams.size))
    Y[0] = 1.0
    Y[3] = 1.0
    for const, h, grid in plan:
        if const is not None:
            Y = _exact_step(Y, const + lams, h)
        elif lams.size:
            Y = _apply(_magnus_transfer(*grid, lams).reshape(4, -1), Y)
    return Y


def _magnus_grid(p: Potential, t0: float, t1: float, probes: np.ndarray, omega: float,
                 targets: list) -> list:
    """Magnus steps for [t0, t1], one grid per (share, accuracy) target, from one ladder.

    Doubles n from 8 until n and 2n steps agree within a target's share at
    every probe, in the energy scaling (u, u'/w) with w = sqrt(max(1, |a + lambda|)),
    where the error of an oscillation is flat in lambda. A level counts for
    a target once the error is visibly in its sixth-order regime: the level
    before it also met the share, or missed it by at least 32 times. A
    non-finite estimate (cosh overflows at coarse levels when lambda h^2 is
    huge) is a miss. Each target takes the grid of the first level that
    counts for it, as a ladder of its own would, and a refusal names the
    tightest accuracy not yet met. Every level up to ``_LADDER_PASS`` steps
    that the refusal checks let the ladder reach is formed in one pass
    (``_magnus_levels``) when the first is needed, each level above it on
    its own, and the grids of all targets in one node pass at the end; no
    step count is formed twice.
    """
    a_mid = float(np.mean(p.eval(np.linspace(t0, t1, 9))))
    w = np.sqrt(np.maximum(1.0, np.abs(probes + a_mid)))
    nodes = {}  # step count -> coefficients
    states = {}  # step count -> endpoint states at the probes, energy scaled

    def floor(n):
        return 10.0 * np.finfo(float).eps * (n + omega * (t1 - t0))

    def keep(counts, level_nodes, transfers):
        nodes.update(zip(counts, level_nodes))
        for n, m in zip(counts, transfers):
            m = m.reshape(4, -1)
            states[n] = np.stack([m[0], m[1] * w, m[2] / w, m[3]])

    chosen = [None] * len(targets)
    n = 8
    before = math.nan
    while True:
        accuracy = min(acc for (_, acc), found in zip(targets, chosen) if found is None)
        if floor(n) > accuracy:
            raise IntegrationError(
                f"scan segment [{t0:g}, {t1:g}] cannot certify accuracy {accuracy:g}: "
                f"float64 rounding of the phase (omega = {omega:.3g}) alone is about "
                f"{floor(n):.1e}, beyond any number of Magnus steps", t=float(t0))
        if 2 * n > _MAX_STEPS:
            raise IntegrationError(
                f"scan segment [{t0:g}, {t1:g}] cannot certify accuracy {accuracy:g} "
                f"within {_MAX_STEPS} Magnus steps (estimated error {before:.1e} at "
                f"{n // 2} steps)", t=float(t0))
        with np.errstate(over="ignore", invalid="ignore"):
            if not states:
                # level 2k is reached from level k when k passes both checks
                counts = [n]
                while 2 * counts[-1] <= min(_LADDER_PASS, _MAX_STEPS) and \
                        floor(counts[-1]) <= accuracy:
                    counts.append(2 * counts[-1])
                keep(counts, *_magnus_levels(p, t0, t1, counts, probes))
            if 2 * n not in states:
                level = _magnus_nodes(p, t0, t1, 2 * n)
                keep([2 * n], [level], [_magnus_transfer(*level, probes)])
            at_coarse, at_fine = states[n], states[2 * n]
            err = float(np.max(np.max(np.abs(at_coarse - at_fine), axis=0)
                               / np.maximum(1.0, np.max(np.abs(at_fine), axis=0))))
        for k, (share, _) in enumerate(targets):
            if chosen[k] is None and err <= share and (before <= share or before >= 32.0 * err):
                # the error falls as n^-6: trim n to what the estimate asks for
                chosen[k] = max(n // 2, math.ceil(n * (err / share) ** (1.0 / 6.0)))
        if None not in chosen:
            break
        n, before = 2 * n, err
    new = sorted(set(chosen) - nodes.keys())
    if new:
        nodes.update(zip(new, _blocks(_magnus_nodes(p, t0, t1, *new), new)))
    return [nodes[c] for c in chosen]
