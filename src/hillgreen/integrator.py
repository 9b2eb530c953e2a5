"""Fundamental solutions of u'' + (a(t) + lambda) u = 0.

The normalized pair y1, y2 has one basis, ``fundamental_solutions``, on
Magnus-6 steps, cached by ``_memo`` like the kernel workspaces of
``greens._KernelCache``: every kernel, ``kernel_value``, ``solve_bvp`` and
``discriminant`` read it. A vectorized sweep over many lambdas at once both
scans for eigenvalue brackets and, with its steps planned once at the
integrator tolerance, refines them. The Dirichlet oscillation audit alone
integrates by adaptive Dormand-Prince 8(5,3) (``solve_ivp``, method DOP853,
in ``_y2_zeros``), as its cross-check of the Magnus scan: it counts the sign
changes of y2 at step ends too close together to hold two zeros.

All work piecewise: segments end at the potential's breakpoints and at the
nodes of its table pieces, so no step straddles a jump of a or of a'. A
segment inside a constant piece (directly or through mirror wrappers) takes
one exact transfer step, with cos/sin of sqrt(q) h, cosh/sinh for q < 0 and
(1, h) for q = 0, in every route. Other segments take equal 6th-order
Magnus steps (three-point Gauss; Iserles & Norsett 1999, Blanes, Casas &
Ros 2000, Blanes, Casas, Oteo & Ros 2009): each step is exp(Omega) with
Omega = [[d, e], [f, -d]] affine in lambda, and the exact step is the same
formula with d = 0, e = h, f = -h q.

A basis keeps one flat table of pieces (``_PieceTable``): each constant
segment and each Magnus step, with its start state and q; a point inside a
Magnus step is read by one Magnus step from the start. Any batch of points
is read from it by one search and one vectorized pass per kind of piece.
The basis's step count per segment comes from a ladder over the states at
every step end (``_kernel_steps``). The sweep's comes from a Richardson
estimate at the segment's end (n against 2n steps at 7 evenly spaced
lambdas of the range it is planned for and the turning values inside it),
one ladder for every accuracy asked, whose levels up to 256 steps are formed,
and compared, in one pass, and the steps of a block of lambdas, one (2, 2,
steps, lambdas) array, are multiplied out pairwise as a tree.
``endpoint_scan`` reads a large batch off a Chebyshev interpolant in lambda
of the same steps, propagated at a few dozen nodes and summed up to the term
where its coefficients settle, a level early when a sample at 4 of the next
level's nodes agrees; from 520 lambdas on its first propagation holds the
33-node level and the sample of the 65 level, so a batch that settles at 33
nodes is propagated in one call. ``find_eigenvalues`` propagates its scans
and refinements at every lambda.
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
# fractions of the lambda range at which the step-count estimate probes it
_QUANTILES = np.linspace(0.0, 1.0, 7).tolist()
# the sweep ladder's levels up to this many steps are formed in one pass, the
# basis ladder's up to half as many; a wider pass would evaluate the potential
# at more points than the ladder visits
_LADDER_PASS = 256
# endpoint_scan's default accuracy, at which find_eigenvalues scans for brackets
_SCAN_ACCURACY = 1e-7
# Chebyshev-Lobatto nodes of the first level of endpoint_scan's interpolant in lambda
_NODES = 17


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tolerance {tol} outside [{TOL_MIN}, {TOL_MAX}]")
    return tol


def _check_positive(value: float, name: str) -> None:
    """Every verifier's rule for a tolerance, slack or margin: finite and positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_ends(lo: float, hi: float) -> None:
    """Every lambda range's rule: a non-finite end is refused before ``np.linspace`` warns."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("lambda values must be finite")


def _check_accuracy(accuracy: float) -> None:
    if not 0.0 < float(accuracy) <= TOL_MAX:
        raise ValueError(f"accuracy {accuracy} outside (0, {TOL_MAX}]")


def _mean_a(p: Potential, t0: float, t1: float) -> float:
    """The mean of a at 9 equally spaced points of [t0, t1], both ladders' energy scale."""
    return float(p.eval(np.linspace(t0, t1, 9)).sum() / 9)


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
    step of a common h, and the audit's substeps take many h from one state. It is
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
    evaluation of the potential (``_magnus_coeffs``). Each step carries its own
    h, so a block's values do not depend on the others.
    """
    sizes = np.array(counts)
    h = np.repeat((t1 - t0) / sizes, sizes)
    step = np.arange(h.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    mid = t0 + h * (step + 0.5)
    return _magnus_coeffs(h, *p.eval(np.concatenate(_gauss_nodes(mid, h))).reshape(3, h.size))


def _gauss_nodes(mid, h):
    """The three Gauss nodes of Magnus-6 steps of length h centred at mid."""
    r = h * math.sqrt(15.0) / 10.0
    return mid - r, mid, mid + r


def _magnus_coeffs(h, a1, a2, a3):
    """The lambda-free coefficients (d0, d1, e, f0, g) of Magnus-6 steps of length h,
    from the potential a1, a2, a3 at each step's ``_gauss_nodes``. Arithmetic
    only, so arrays and Python floats give the same bits.

    Each step's Omega is [[d, e], [f, -d]], affine in lambda: d = d0 + lambda d1
    and f = f0 + lambda g. With three-point Gauss nodes (Blanes, Casas & Ros
    2000), s = a1 - 2 a2 + a3 and D = a1 - a3:
    d1 = -sqrt(15) h^4 D / 540,
    d0 = -sqrt(15) D (h^2/36 + h^4 (a1 + a3)/6480 + h^4 a2/648),
    e = h + h^3 s/54 + h^5 D^2/2160, g = -h + h^3 s/54 - h^5 D^2/2160 and
    f0 = -h (5 a1 + 8 a2 + 5 a3)/18 - h^5 a2 D^2/2160
         + h^3 (22 a1 a3 + 4 a2 (a1 + a3) - 7 (a1^2 + a3^2) - 16 a2^2)/648.
    A constant potential a gives d = 0, e = h and f = -h (a + lambda).
    """
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
    """The pieces of a solution basis of (p, lambda): each constant segment and
    each Magnus step.

    Row j starts at ``starts[j]`` in state ``states[j]``. On a constant
    piece ``q[j]`` = a + lambda and t is read by the exact step from there.
    On a Magnus step ``q[j]`` is NaN and t is read by one Magnus-6 step of
    length t - ``starts[j]``.
    """

    starts: np.ndarray
    states: np.ndarray
    q: np.ndarray
    p: Potential
    lam: float

    def read(self, t: np.ndarray) -> np.ndarray:
        """States (4, t.size) at t in [0, L], each from the last piece starting
        at or before it."""
        k = np.searchsorted(self.starts, t, side="right") - 1
        smooth = np.isnan(self.q[k])
        if smooth.all():
            return self._magnus(t, k)
        if not smooth.any():
            return self._exact(t, k)
        out = np.empty((4, t.size))
        out[:, smooth] = self._magnus(t[smooth], k[smooth])
        out[:, ~smooth] = self._exact(t[~smooth], k[~smooth])
        return out

    def point(self, t: float) -> list:
        """The state at one t in [0, L] as four floats, by the arithmetic of
        ``read`` operation for operation, so equal to it bit for bit."""
        k = int(self.starts.searchsorted(t, side="right")) - 1
        t0, y0, q = float(self.starts[k]), self.states[k].tolist(), float(self.q[k])
        h = t - t0
        if not math.isnan(q):
            # _exact_step: _cos_sinc's branches on a float, then _apply
            w2 = q * h * h
            c, s = _oscillating(w2) if w2 > 0 else _growing(w2) if w2 < 0 else (1.0, 1.0)
            s = s * h
            return _apply((c, s, -q * s, c), y0).tolist()
        # _magnus: the potential as its array path forms it (the piece's values on
        # an array, plus the shift), then _magnus_steps on floats
        p, lam = self.p, self.lam
        mid = t0 + 0.5 * h
        a = [v + p.shift for v in p._piece_at(mid).values(np.array(_gauss_nodes(mid, h))).tolist()]
        d0, d1, e, f0, g = _magnus_coeffs(h, *a)
        d, f = d1 * lam + d0, g * lam + f0
        w2 = -(e * f + d * d)
        c, s = _oscillating(w2) if w2 > 0 else _growing(w2) if w2 < 0 else (1.0, 1.0)
        d, f = d * s, f * s
        return _apply((d + c, s * e, f, c - d), y0).tolist()

    def _exact(self, t, k):
        return _exact_step(self.states[k].T, self.q[k], t - self.starts[k])

    def _magnus(self, t, k):
        p, lam = self.p, self.lam
        h = t - self.starts[k]
        a = p.eval(np.concatenate(_gauss_nodes(self.starts[k] + 0.5 * h, h))).reshape(3, h.size)
        m = _magnus_steps(*_magnus_coeffs(h, *a), np.array([lam]))
        return _apply(m.reshape(4, -1), self.states[k].T)


@dataclass(eq=False)
class SolutionBasis:
    """Normalized solution pair for one (potential, lambda).

    y1 solves y(0)=1, y'(0)=0; y2 solves y(0)=0, y'(0)=1. The state vector
    is (y1, y1', y2, y2') and ``trajectory`` evaluates it anywhere on
    [0, length] from a table of its pieces (``_PieceTable``): the constant
    segments and the Magnus steps. Its kernel workspaces
    (``greens._KernelCache``) live in ``_WORKSPACES``.
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
        edge or a step's end) is read from the later piece, at its start
        state.
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
    """Solve for the normalized basis over [0, T], the domain of ``p``, on Magnus-6 steps.

    A segment inside a constant piece takes one exact transfer step; every
    other segment takes the equal steps of ``_kernel_steps``, chosen so that
    the states at every step end meet ``tol``. Each is a row of the basis's
    piece table, read inside by one step of length t - its start. Every step
    matrix has det 1 to rounding, so the basis's Wronskian drift is rounding
    by construction. Results are cached per (potential, lambda, tolerance);
    the cache is threadsafe and bounded. Raises ``IntegrationError`` when a
    segment would need more than 2**16 steps.
    """
    lam, tol = _check_lam_tol(lam, tol)
    return _memo(_CACHE, (p, lam, tol), lambda: _magnus_basis(p, lam, tol))


def _check_lam_tol(lam: float, tol: float) -> tuple[float, float]:
    tol = _check_tol(tol)
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")
    return lam, tol


def _magnus_basis(p: Potential, lam: float, tol: float) -> SolutionBasis:
    """The basis of ``fundamental_solutions``, built afresh."""
    edges, consts = _segments(p)
    Y = np.eye(2)
    starts, states, q = [], [], []
    for t0, t1, const in zip(edges, edges[1:], consts):
        if const is None:
            ends = _kernel_steps(p, t0, t1, lam, tol)
        else:
            step = _exact_step(np.array([1.0, 0.0, 0.0, 1.0]), const + lam, t1 - t0)
            ends = step.reshape(2, 2, 1).transpose(1, 0, 2)
        n = ends.shape[2]
        starts.append(t0 + (t1 - t0) / n * np.arange(n))
        q.append(np.full(n, math.nan if const is None else const + lam))
        # the state (y1, y1', y2, y2') at each step start: the steps before it applied to Y
        states.append(np.concatenate([Y[..., None], _matmul(ends[:, :, :-1], Y[:, :, None])],
                                     axis=2).transpose(2, 1, 0).reshape(-1, 4))
        Y = ends[:, :, -1] @ Y
    pieces = _PieceTable(np.concatenate(starts), np.concatenate(states), np.concatenate(q),
                         p, lam)
    (y1, y2), (y1p, y2p) = Y.tolist()
    return SolutionBasis(lam=lam, length=p.domain_length, tol=tol, y1_end=y1, y1p_end=y1p,
                         y2_end=y2, y2p_end=y2p, _edges=edges, _pieces=pieces)


def _kernel_steps(p: Potential, t0: float, t1: float, lam: float, tol: float) -> np.ndarray:
    """Transfers (2, 2, n) from t0 to the end of each of n equal Magnus-6 steps on
    [t0, t1] at lambda, for ``fundamental_solutions``: a ladder over the states inside.

    Doubles n from 8 until n and 2n steps agree at every end of the n steps
    within tol / w, in the energy scaling (u, u'/w) with w = sqrt(max(1,
    |a + lambda|)) at the segment's mean a, and keeps the 2n steps, whose
    error is about 2^-6 of that. The states inside count, not the end alone:
    the error of a large lambda cancels over each period of a, so on ex4 at
    lambda = 1e4 the end agrees to 3e-13 at 256 steps while the states inside
    differ by 2e-9. A share below eps (256 + w (t1 - t0)), where rounding
    alone levels the estimate off, is raised to it. Each level's transfers
    are one prefix product of its step matrices (Hillis & Steele), so no
    level depends on which others share its pass. The levels up to half
    ``_LADDER_PASS`` steps are formed in one pass, each level above them
    on its own once the ladder needs it. At the default tolerance and
    lambda near the bottom of the spectrum the builtin smooth potentials
    settle at 64 steps against 128, so a wider first pass would form 256
    steps they never read; a basis that keeps 256 steps pays one more pass.
    """
    lams = np.array([lam])
    w = math.sqrt(max(1.0, abs(_mean_a(p, t0, t1) + lam)))
    scale = np.array([[1.0, w], [1.0 / w, 1.0]])[..., None]
    share = max(tol / w, np.finfo(float).eps * (256.0 + w * (t1 - t0)))

    def transfers(counts):
        # one node pass and one prefix product over blocks of steps, one block per count
        ends = _magnus_steps(*_magnus_nodes(p, t0, t1, *counts), lams)[..., 0]
        inner = np.arange(ends.shape[2]) - np.repeat(np.cumsum(counts) - counts, counts)
        span = 1
        while span < max(counts):
            np.copyto(ends[:, :, span:], _matmul(ends[:, :, span:], ends[:, :, :-span]),
                      where=inner[span:] >= span)
            span *= 2
        return dict(zip(counts, np.split(ends, np.cumsum(counts)[:-1], axis=2)))

    levels = transfers([1 << k for k in range(3, _LADDER_PASS.bit_length() - 1)])
    n = 8
    while True:
        if 2 * n > _MAX_STEPS:
            raise IntegrationError(
                f"kernel basis on [{t0:g}, {t1:g}] at lambda={lam}: {_MAX_STEPS} Magnus "
                f"steps do not meet tolerance {tol:g}", t=float(t0))
        if 2 * n not in levels:
            levels.update(transfers([2 * n]))
        coarse, fine = levels[n], levels[2 * n]
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.max(np.max(np.abs(coarse - fine[:, :, 1::2]) * scale, axis=(0, 1))
                         / np.maximum(1.0, np.max(np.abs(fine[:, :, 1::2]) * scale, axis=(0, 1))))
        if err <= share:
            return fine
        n *= 2


def discriminant(p: Potential, lam: float, *, tol: float = DEFAULT_TOL) -> float:
    """Trace of the monodromy matrix, y1(T) + y2'(T)."""
    return fundamental_solutions(p, lam, tol=tol).discriminant


def _y2_zeros(p: Potential, lam: float, tol: float) -> int:
    """Zeros of y2 in (0, T) by DOP853, for the Dirichlet oscillation audit: a
    route of its own, independent of the Magnus steps.

    Zeros of y2 lie at least pi / sqrt(max(a + lambda)) apart (Sturm
    separation), so steps of at most h = pi / (2 sqrt(q)), q the largest
    a + lambda at a segment's ends and 65 points (the whole segment if
    q <= 0), hold one zero at most, and the count is y2's sign changes over
    the step ends, from its + just after 0 to T. A constant segment takes
    ceil(length / h) exact substeps, any other ``solve_ivp``'s DOP853 steps
    at rtol = max(tol/10, 1e-13), atol = max(tol * 1e-3, 1e-15) and
    ``max_step`` h.
    """
    lam, tol = _check_lam_tol(lam, tol)
    edges, consts = _segments(p)
    rtol, atol = max(tol / 10.0, 1e-13), max(tol * 1e-3, 1e-15)
    y = np.array([1.0, 0.0, 0.0, 1.0])
    values = [np.ones(1)]
    for t0, t1, const in zip(edges, edges[1:], consts):
        q = lam + (const if const is not None else float(np.max(p.eval(np.linspace(t0, t1, 65)))))
        h = math.pi / (2.0 * math.sqrt(q)) if q > 0 else t1 - t0
        if const is not None:
            states = _exact_step(y, q, np.linspace(0.0, t1 - t0, math.ceil((t1 - t0) / h) + 1)[1:])
        else:
            # stage times can land exactly on t1; clamp the evaluation onto this
            # segment's piece so a jump's right-hand value never leaks in
            back = t1 - 1e-12 * (1.0 + p.domain_length)

            def rhs(s, z, _b=back):
                a = p.eval(min(s, _b)) + lam
                return (z[1], -a * z[0], z[3], -a * z[2])

            res = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=rtol, atol=atol, max_step=h)
            if not res.success:
                raise IntegrationError(
                    f"integration stalled on [{t0}, {t1}] at lambda={lam}: {res.message}",
                    t=float(res.t[-1]) if res.t.size else t0)
            states = res.y[:, 1:]
        values.append(states[2])
        y = states[:, -1]
    sign = np.sign(np.concatenate(values))
    sign = sign[sign != 0]
    return int(np.count_nonzero(sign[:-1] != sign[1:]))


def endpoint_scan(p: Potential, lams, *, accuracy: float = _SCAN_ACCURACY) -> np.ndarray:
    """Endpoint states for a whole batch of lambda values in one sweep.

    Returns shape (4, K): rows y1(T), y1'(T), y2(T), y2'(T) per lambda,
    each column within ``accuracy`` * max(1, |Y|). A segment inside a
    constant piece takes one exact step for the whole batch, whatever
    ``accuracy``. Every other segment takes n equal Magnus-6 steps, the
    same n for every lambda, chosen from an error estimate: n and 2n steps
    are compared at a few probe lambdas (7 evenly spaced points of the
    batch's range [min, max], and the turning values -a inside it) until
    they agree within the segment's share of ``accuracy``, and n is then
    trimmed by the n^-6 law.
    The shares split ``accuracy`` over the segments and divide it by
    omega = sqrt(max(1, max|a| + max|lambda|)): an error in the phase of
    an oscillation reaches y1'(T) multiplied by omega.

    A batch of K >= 136 lambdas spanning a range, on a potential with a
    smooth piece, is read off a Chebyshev interpolant in lambda of those
    same steps (``_interpolated``): it is read at nested levels of 17, 33,
    65, ... Chebyshev-Lobatto nodes of [min, max], and each level's series
    is cut after the last term whose tail of coefficients exceeds
    ``accuracy`` / 128. A level is accepted when every coefficient of its
    upper half is within ``accuracy`` / 64 in absolute value, or a level
    early when its cut keeps at most 3/4 of its terms and meets the
    propagated states within ``accuracy`` / 64 at 4 of the next level's
    nodes, spread over them: the sample catches a series that aliases. The
    first propagation holds the 33 nodes when K >= 264, and also the 4
    sample nodes of the 65 level when K >= 520; later levels propagate only
    the nodes not yet propagated. The coefficients fall geometrically, so
    the interpolant adds less than ``accuracy`` / 32 to the certified
    Magnus error. When the next level would pass K/8 nodes, or a node state
    is not finite, every lambda is propagated directly, as for any other
    batch, at most 1/8 more steps in all.

    An empty batch gives shape (4, 0). Raises ``ValueError`` for an
    ``accuracy`` outside (0, ``TOL_MAX``], a batch of more than one
    dimension or a lambda that is not finite, and
    ``IntegrationError``, before any stepping of the batch, when it cannot
    certify ``accuracy``: when a segment would need more than 2**16
    steps, or when float64 rounding of the phase alone,
    10 eps (n + omega * segment length), exceeds ``accuracy``.
    """
    _check_accuracy(accuracy)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if lams.ndim > 1:
        raise ValueError(f"lambda values must be one-dimensional, got shape {lams.shape}")
    if not lams.size:
        return np.empty((4, 0))
    lo, hi = float(lams.min()), float(lams.max())
    (plan,) = _scan_plan(p, lo, hi, accuracy)
    return _interpolated(plan, lams, lo, hi, accuracy)


def _scan_plan(p: Potential, lo: float, hi: float, *accuracies: float) -> list:
    """The steps of ``endpoint_scan`` for any lambda in [lo, hi], one plan per accuracy.

    A plan has one entry per segment: (constant, length, None) for a constant
    piece, (None, length, Magnus grid) for any other. A segment's grids come
    from one ladder probed at 7 evenly spaced points of [lo, hi] (numpy's
    linear-method lerp, counting down from hi from the middle on) and at the
    turning values -a inside it, and ``_propagate`` applies a plan to any
    batch inside that range. Raises ``ValueError`` when an end is not finite.
    """
    _check_ends(lo, hi)
    edges, consts = _segments(p)
    smooth = [(t0, t1) for t0, t1, const in zip(edges, edges[1:], consts) if const is None]
    grids = {}
    if smooth:
        amin, amax = p.sample_bound()
        omega = math.sqrt(max(1.0, max(-amin, amax) + max(-lo, hi)))
        turning = (-amax, -0.5 * (amin + amax), -amin)
        spread = (lo + (hi - lo) * q if q < 0.5 else hi - (hi - lo) * (1.0 - q) if q < 1.0 else hi
                  for q in _QUANTILES)
        probes = np.array(sorted({*spread, *(min(max(v, lo), hi) for v in turning)}))
        # half of each accuracy, split over the segments: the n-against-2n
        # difference can miss the true error by about 2 where constant pieces follow
        targets = [(accuracy / (2.0 * omega * len(smooth)), accuracy) for accuracy in accuracies]
        for t0, t1 in smooth:
            grids[t0] = _magnus_grid(p, t0, t1, probes, omega, targets)
    return [[(const, t1 - t0, grids[t0][k] if const is None else None)
             for t0, t1, const in zip(edges, edges[1:], consts)] for k in range(len(accuracies))]


def _interpolated(plan, lams: np.ndarray, lo: float, hi: float, accuracy: float) -> np.ndarray:
    """``_propagate(plan, lams)``, read off a Chebyshev interpolant in lambda where that pays.

    For a fixed plan the endpoint map is entire in lambda, so its Chebyshev
    series on [lo, hi], the range of ``lams``, converges geometrically (Trefethen,
    Approximation Theory and Approximation Practice, 2013, ch. 8). Each
    level of Chebyshev-Lobatto nodes keeps the last level's, and its
    coefficients are one rfft of the mirrored node values (DCT-I). The
    series is cut before the first term k whose tail, the sum over j >= k
    of the largest |c_j| of the four rows, is within ``accuracy`` / 128: as
    |T_j| <= 1, the tail bounds what the cut leaves out (Aurentz &
    Trefethen, Chopping a Chebyshev series, ACM TOMS 43, 2017). A level
    whose cut keeps at most 3/4 of its terms is tested at 4 of the next
    level's new nodes; when the test fails, those 4 states are nodes of the
    next level, so no lambda is propagated twice. The first batch holds the
    first level, the next level's new nodes and the sample nodes of the level
    after it, each while its level fits the K/8 cap: 17 + 16 + 4 = 37 lambdas
    in one ``_propagate`` call from 520 lambdas on, so a batch that settles at
    33 nodes, by either rule, is propagated once. A state that is not finite,
    at any node propagated so far, sends the batch to the direct route before
    the next level. When it engages and accepts is ``endpoint_scan``'s rule.
    """
    cap = lams.size / 8
    if _NODES > cap or all(grid is None for _, _, grid in plan) or hi == lo:
        return _propagate(plan, lams)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = size = _NODES - 1
    # the finest level the cap lets the loop reach
    while 2 * size + 1 <= cap:
        size *= 2
    # every node is one of the finest level's cos(pi j / size), j = 0..size, its
    # state zero until propagated: level n's are every (size / n)-th, bit for
    # bit, as pi / size is pi / n times a power of two
    x = np.cos(np.pi / size * np.arange(size + 1))
    Y = np.zeros((4, size + 1))
    done = set()

    def fill(at):
        # propagate the nodes at positions ``at`` not propagated yet
        todo = [j for j in at if j not in done]
        if todo:
            done.update(todo)
            Y[:, todo] = _propagate(plan, np.clip(mid + half * x[todo], lo, hi))

    def new(n):
        # positions of the nodes that level 2n adds to level n, cos(pi j / 2n) for odd j
        return range(size // n // 2, size, size // n)

    fill([*range(0, size + 1, size // min(size, 2 * n)),
          *(new(2 * n)[n // 4::n // 2] if size > 2 * n else ())])
    while True:
        if not np.isfinite(Y).all():
            return _propagate(plan, lams)
        values = Y[:, ::size // n]
        c = np.fft.rfft(np.concatenate([values, values[:, -2:0:-1]], axis=1), axis=1).real / n
        c[:, [0, n]] *= 0.5
        peak = np.abs(c).max(axis=0)
        tail = np.cumsum(peak[::-1])[::-1]
        # at least T_0 and T_1, which _chebyshev_sum's recurrence starts from
        c = c[:, :max(2, int(np.count_nonzero(tail > accuracy / 128.0)))]
        if peak[n // 2:].max() <= accuracy / 64.0:
            return _chebyshev_sum(c, (lams - mid) / half)
        if 2 * n + 1 > cap:
            return _propagate(plan, lams)
        fresh = new(n)
        # the sample test takes 4 of the new nodes, one in each quarter
        if c.shape[1] <= 3 * n // 4:
            test = fresh[n // 8::n // 4]
            fill(test)
            if (np.abs(_chebyshev_sum(c, x[test]) - Y[:, test]) <= accuracy / 64.0).all():
                return _chebyshev_sum(c, (lams - mid) / half)
        fill(fresh)
        n *= 2


def _chebyshev_sum(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum c_k T_k(x) of rows of coefficients c (4, n + 1) at x in [-1, 1]: the
    T_k by the three-term recurrence, one block of lambdas at a time, and one
    matrix product per block. A block of T_k has at most 4 ``_BLOCK`` cells,
    as a (2, 2, steps, lambdas) block of Magnus steps."""
    out = np.empty((4, x.size))
    width = max(1, 4 * _BLOCK // c.shape[1])
    T = np.empty((c.shape[1], min(width, x.size)))
    for k0 in range(0, x.size, width):
        xs = x[k0:k0 + width]
        t = T[:, :xs.size]
        t[0] = 1.0
        t[1] = xs
        twice = 2.0 * xs
        for k in range(2, c.shape[1]):
            np.multiply(t[k - 1], twice, out=t[k])
            t[k] -= t[k - 2]
        out[:, k0:k0 + width] = c @ t
    return out


def _propagate(plan, lams: np.ndarray) -> np.ndarray:
    """Endpoint states (4, K) of the lambdas ``lams`` through the steps of ``plan``."""
    Y = np.zeros((4, lams.size))
    Y[0] = 1.0
    Y[3] = 1.0
    for const, h, grid in plan:
        if const is not None:
            Y = _exact_step(Y, const + lams, h)
        else:
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
    step count is formed twice. The errors of all the levels of a pass, each
    against the next, are one expression over their stacked energy-scaled
    states, the same floats as one comparison per level.
    """
    w = np.sqrt(np.maximum(1.0, np.abs(probes + _mean_a(p, t0, t1))))
    nodes = {}  # step count -> coefficients
    errors = {}  # step count n -> error of n against 2n steps over the probes
    top = []  # the endpoint states at the probes of the finest level, energy scaled

    def floor(n):
        return 10.0 * np.finfo(float).eps * (n + omega * (t1 - t0))

    def keep(counts, level_nodes, transfers):
        # the levels of one pass, energy scaled and stacked on the finest level
        # before them, and the error of each level against the next, at once
        nodes.update(zip(counts, level_nodes))
        m = np.stack([*top, *(t.reshape(4, -1) for t in transfers)])
        m[len(top):, 1] *= w
        m[len(top):, 2] /= w
        err = np.abs(m[:-1] - m[1:]).max(axis=1) / np.maximum(1.0, np.abs(m[1:]).max(axis=1))
        coarse = counts[0] // 2 if top else counts[0]
        errors.update((coarse << k, e) for k, e in enumerate(err.max(axis=1).tolist()))
        top[:] = [m[-1]]

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
            if not top:
                # level 2k is reached from level k when k passes both checks
                counts = [n]
                while 2 * counts[-1] <= min(_LADDER_PASS, _MAX_STEPS) and \
                        floor(counts[-1]) <= accuracy:
                    counts.append(2 * counts[-1])
                keep(counts, *_magnus_levels(p, t0, t1, counts, probes))
            if n not in errors:
                level = _magnus_nodes(p, t0, t1, 2 * n)
                keep([2 * n], [level], [_magnus_transfer(*level, probes)])
        err = errors[n]
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
