"""Green's functions for u'' + (a(t) + lambda) u = sigma under six endpoint conditions.

Every kernel has two analytic branches,
    G(t, s) = row(t) . K . col(s),  row(t) = (y1(t), y2(t)),  col(s) = (-y2(s), y1(s)),
with one coefficient matrix per branch and the branch picked by s <= t.
K_low - K_up = I for every condition, which forces continuity on the
diagonal and a unit jump in dG/dt across it by construction.  ``build_green``
stores one node table, each entry from its own branch on the kernel
workspace's node states (``_KernelCache``, shared with the catalog and
comparisons); ``tables(tpts, spts, deriv=False)`` gives both branches of G, or
of dG/dt, at any points, for the numerical and the closed-form kernel alike.

Coupled conditions (periodic, anti-periodic) use K_up = (eps I - M)^{-1} M
with M the monodromy matrix; separated conditions use the rank-one kernel
built from the pair of one-sided solutions.  Each condition's eps and
characteristic function live on ``BoundaryCondition``, and
``_branch_matrices`` is the one place that finds a kernel resonant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import PoleError, ResonanceError
from .integrator import (_NODE_STATES, _WORKSPACES, DEFAULT_TOL, SolutionBasis, _memo,
                         fundamental_solutions)
from .potential import Potential, _on_domain

__all__ = [
    "BC_ALL",
    "BoundaryCondition",
    "KernelBranches",
    "GreensFunction",
    "BvpSolution",
    "build_green",
    "closed_form_constant",
    "kernel_value",
    "solve_bvp",
    "table_slice",
]

RESONANCE_RTOL = 1e-10


class BoundaryCondition(Enum):
    PERIODIC = "P"
    ANTIPERIODIC = "A"
    NEUMANN = "N"
    DIRICHLET = "D"
    MIXED1 = "M1"
    MIXED2 = "M2"

    @classmethod
    def parse(cls, text) -> "BoundaryCondition":
        """A condition from its short name or its member name, in any case,
        with any '-' and '_' ignored (``"m1"``, ``"Anti-Periodic"``)."""
        if isinstance(text, cls):
            return text
        key = str(text).strip().lower().replace("-", "").replace("_", "")
        for bc in cls:
            if key in (bc.value.lower(), bc.name.lower()):
                return bc
        raise ValueError(f"unknown boundary condition {text!r}")

    @property
    def is_coupled(self) -> bool:
        return self.ends is None

    @property
    def ends(self) -> tuple[int, int] | None:
        """Which derivative of u vanishes at t = 0 and at t = T (0 for u, 1
        for u'); None for the coupled conditions."""
        return _ENDS.get(self)

    @property
    def sign(self) -> float | None:
        """eps of a coupled condition u(0) = eps u(T), u'(0) = eps u'(T): 1.0
        for P, -1.0 for A; None for the separated conditions."""
        return _SIGNS.get(self)

    @property
    def condition(self) -> str:
        if self.is_coupled:
            s = "" if self.sign > 0 else "-"
            return f"u(0)={s}u(T), u'(0)={s}u'(T)"
        u0, uT = (("u", "u'")[d] for d in self.ends)
        return f"{u0}(0)=0, {uT}(T)=0"

    def characteristic(self, Y):
        """The characteristic function from the end state (y1, y1', y2, y2')(T)
        of the basis: it vanishes exactly at the condition's eigenvalues, where
        no Green's function exists.  Delta - 2 eps for a coupled condition; for
        a separated one, the solution meeting it at 0 (y1 where u' vanishes, y2
        where u does), or its derivative, at T.  ``Y`` holds one entry per
        component: floats for one lambda or the rows of an ``endpoint_scan``."""
        if self.is_coupled:
            return Y[0] + Y[3] - 2.0 * self.sign
        d0, dT = self.ends
        return Y[2 * (1 - d0) + dT]


# Each condition's data, stated once: which of u, u' vanishes at 0 and at T
# for the separated ones, and eps for the coupled ones.
_ENDS = {BoundaryCondition.NEUMANN: (1, 1), BoundaryCondition.DIRICHLET: (0, 0),
         BoundaryCondition.MIXED1: (1, 0), BoundaryCondition.MIXED2: (0, 1)}
_SIGNS = {BoundaryCondition.PERIODIC: 1.0, BoundaryCondition.ANTIPERIODIC: -1.0}

# Every condition's short name, in declaration order: P, A, N, D, M1, M2.
BC_ALL = tuple(bc.value for bc in BoundaryCondition)


def _branch_matrices(M: np.ndarray, lam: float, bc: BoundaryCondition, length: float,
                     family: str = "base"):
    """Coefficient matrices (k_low, k_up) plus the resonance margin, from the
    monodromy M = [[y1, y2], [y1', y2']](length) at lambda of ``family``.

    Raises ResonanceError when lambda sits on an eigenvalue of the chosen
    condition, where no Green's function exists: where the characteristic
    function, d = -eps (tr M - 2 eps) = det(eps I - M) for det M = 1, or the
    boundary Wronskian -``bc.characteristic``, is below RESONANCE_RTOL |M|.
    A coupled condition takes K_up = (eps I - M)^-1 M = eps adj(eps I - M) / d - I,
    which subtracts nothing near resonance and keeps the kernel symmetric
    to rounding.
    """
    scale = max(1.0, float(np.linalg.norm(M)))
    eps = bc.sign if bc.is_coupled else 1.0
    det = -eps * bc.characteristic(M.T.ravel())
    if abs(det) < RESONANCE_RTOL * scale:
        raise ResonanceError(f"{bc.condition} problem on [0, {length:g}] "
                             f"({_FAMILIES[family][1]}) is resonant at lambda = {lam!r}",
                             float(det), bc, lam)
    if bc.is_coupled:
        C = (eps / det) * np.array([[eps - M[1, 1], M[0, 1]], [M[1, 0], eps - M[0, 0]]]) \
            - np.eye(2)
        return C + np.eye(2), C, abs(det) / scale
    # l is the solution meeting the condition at 0, r the one meeting it at T,
    # and det their Wronskian
    d0, dT = bc.ends
    l = (1.0, 0.0) if d0 else (0.0, 1.0)
    r = (M[1, 1], -M[1, 0]) if dT else (M[0, 1], -M[0, 0])
    return np.outer(r, (-l[1], l[0])) / det, np.outer(l, (-r[1], r[0])) / det, abs(det) / scale


def _factors(Rt: np.ndarray, Rs: np.ndarray, deriv: bool = False):
    """Rank-2 factors: rows (y1, y2) at the t states, or (y1', y2') with
    ``deriv``, and columns (-y2, y1) at the s states."""
    A = np.stack([Rt[1], Rt[3]]) if deriv else np.stack([Rt[0], Rt[2]])
    B = np.stack([-Rs[2], Rs[0]])
    return A, B


@dataclass(eq=False)
class KernelBranches:
    """Exact two-branch evaluator backed by a solution basis."""

    basis: SolutionBasis
    k_low: np.ndarray
    k_up: np.ndarray

    def tables(self, tpts, spts, deriv: bool = False):
        """(lower, upper) matrices with rows indexed by t and columns by s;
        with ``deriv`` the same layout for dG/dt."""
        A, B = _factors(self.basis.trajectory(np.atleast_1d(tpts)),
                        self.basis.trajectory(np.atleast_1d(spts)), deriv)
        return A.T @ self.k_low @ B, A.T @ self.k_up @ B

    def value(self, t: float, s: float) -> float:
        """One kernel value, from the branch that s <= t selects: two states read by
        ``_PieceTable.point``, then ``tables``'s product in numpy (BLAS fuses its
        multiply-adds, which Python floats cannot)."""
        y, z = (self.basis._pieces.point(_on_domain(float(v), self.basis.length)) for v in (t, s))
        A, B = np.array([[y[0]], [y[2]]]), np.array([[-z[2]], [z[0]]])
        return float((A.T @ (self.k_low if s <= t else self.k_up) @ B)[0, 0])


class _TrigBranches:
    """Closed-form branch evaluator for the constant potential a == 0, lambda = m^2,
    on [0, L] with the domain rule of every point reader (``_on_domain``)."""

    def __init__(self, m: float, L: float, bc: BoundaryCondition):
        self.length = L
        if bc is BoundaryCondition.PERIODIC:
            den = 2.0 * m * math.sin(m * L / 2)
            self._low = lambda t, s: np.cos(m * (s - t + L / 2)) / den
            self._dlow = lambda t, s: np.sin(m * (s - t + L / 2)) * (m / den)
            self._dup = lambda t, s: np.sin(m * (s - t - L / 2)) * (m / den)
        elif bc is BoundaryCondition.ANTIPERIODIC:
            den = 2.0 * m * math.cos(m * L / 2)
            self._low = lambda t, s: -np.sin(m * (s - t + L / 2)) / den
            self._dlow = lambda t, s: np.cos(m * (s - t + L / 2)) * (m / den)
            self._dup = lambda t, s: -np.cos(m * (t - s + L / 2)) * (m / den)
        else:
            # G = u0(s) uL(t) / den for s <= t, u0 meeting the condition at 0 and
            # uL at L, den their Wronskian; du0 and duL are their derivatives over m
            d0, dT = bc.ends
            u0, du0 = ((lambda x: np.cos(m * x)), (lambda x: -np.sin(m * x))) if d0 else \
                ((lambda x: np.sin(m * x)), (lambda x: np.cos(m * x)))
            uL, duL = ((lambda x: np.cos(m * (L - x))), (lambda x: np.sin(m * (L - x)))) if dT \
                else ((lambda x: np.sin(m * (x - L))), (lambda x: np.cos(m * (x - L))))
            den = m * math.sin(m * L) if d0 == dT else (m if d0 else -m) * math.cos(m * L)
            self._low = lambda t, s: u0(s) * uL(t) / den
            self._dlow = lambda t, s: u0(s) * duL(t) * (m / den)
            self._dup = lambda t, s: du0(t) * uL(s) * (m / den)
        # the kernel is symmetric, G(t, s) = G(s, t): the upper branch is the lower swapped
        self._up = lambda t, s: self._low(s, t)
        self.denominator = den

    def tables(self, tpts, spts, deriv: bool = False):
        T = _on_domain(np.asarray(tpts, dtype=float), self.length)[:, None]
        S = _on_domain(np.asarray(spts, dtype=float), self.length)[None, :]
        low, up = (self._dlow, self._dup) if deriv else (self._low, self._up)
        return low(T, S), up(T, S)

    def node_table(self, grid) -> np.ndarray:
        """The kernel at every pair of ``grid`` points, each from the branch s <= t
        picks. The upper branch is the lower one with its arguments swapped, so
        the strict upper triangle is the lower branch's table transposed, bit
        for bit: one branch is evaluated, and no second whole-square table."""
        g = _on_domain(np.asarray(grid, dtype=float), self.length)
        table = self._low(g[:, None], g[None, :])
        for i in range(g.size - 1):
            table[i, i + 1:] = table[i + 1:, i]
        return table

    def value(self, t: float, s: float) -> float:
        T, S = (_on_domain(float(v), self.length) for v in (t, s))
        return float((self._low if s <= t else self._up)(T, S))


@dataclass(eq=False)
class GreensFunction:
    """Green's function sampled on a uniform (n+1)^2 grid, with exact branches attached.

    ``table`` holds the kernel at every node pair, read-only, each entry from
    the branch s <= t picks; ``combined``, ``diagonal``, ``table_slice`` and the
    sign checks read it.  ``lower`` and ``upper``, each branch over the whole
    square, are formed from ``branches`` on first read and then kept.
    """

    bc: BoundaryCondition
    length: float
    lam: float
    n: int
    grid: np.ndarray
    table: np.ndarray
    branches: object = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.table.flags.writeable = False

    @cached_property
    def _branch_tables(self) -> tuple:
        return self.branches.tables(self.grid, self.grid)

    lower = property(lambda self: self._branch_tables[0])
    upper = property(lambda self: self._branch_tables[1])

    def combined(self) -> np.ndarray:
        """The stored table itself, read-only: a caller that writes copies it first."""
        return self.table

    def value(self, t: float, s: float) -> float:
        return self.branches.value(t, s)

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.table).copy()

    def symmetry_error(self) -> float:
        return float(np.max(np.abs(self.table - self.table.T)))

    def csv_text(self) -> str:
        """The table as ``t,s,G`` rows, one per node pair, exact float reprs."""
        grid = self.grid.tolist()
        return "".join(["t,s,G\n", *(f"{t!r},{s!r},{v!r}\n" for t, row in
                                      zip(grid, self.table.tolist()) for s, v in zip(grid, row))])

    def to_csv(self, path) -> None:
        Path(path).write_text(self.csv_text())


def table_slice(G: GreensFunction, t_idx, s_idx) -> np.ndarray:
    """Node-exact subtable G(grid[t_idx[i]], grid[s_idx[j]]), gathered from ``G.table``:
    each entry's branch is picked by node index (s <= t), and no interpolation enters."""
    return G.table[np.ix_(np.asarray(t_idx, dtype=int), np.asarray(s_idx, dtype=int))]


def _node_block(rows_low: np.ndarray, rows_up, B: np.ndarray,
                t_idx: np.ndarray, s_idx: np.ndarray) -> np.ndarray:
    """Kernel values G(x[t_idx[i]], x[s_idx[j]]) straight from the rank-2 factors:
    ``rows_low`` and ``rows_up`` hold row(t) . K of each branch at the t nodes,
    ``B`` holds col(s) at the s nodes; ``rows_up`` None reads the lower branch.
    Each entry's branch is picked by node index (s <= t), so mapped arguments
    on compatible grids stay exact; a block on one side forms one product."""
    if rows_up is None or not (t_idx.size and s_idx.size) or s_idx.max() <= t_idx.min():
        return rows_low @ B
    out = rows_up @ B
    if s_idx.min() <= t_idx.max():
        np.copyto(out, rows_low @ B, where=s_idx[None, :] <= t_idx[:, None])
    return out


_SLICE_ROWS = 64


def _row_slices(size: int) -> list[slice]:
    """Slices of ``_SLICE_ROWS`` rows over ``size`` nodes, for kernels taken
    without forming them whole.  A one-node tail joins the slice before it:
    numpy forms a single row by a vector product, which may round otherwise
    than a matrix product, so every entry is the same product in any slice."""
    cuts = list(range(0, size, _SLICE_ROWS))
    if len(cuts) > 1 and size - cuts[-1] == 1:
        cuts.pop()
    cuts.append(size)
    return [slice(i, j) for i, j in zip(cuts, cuts[1:])]


def _node_table(rows_low: np.ndarray, rows_up: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The kernel at every node pair, each entry from the branch s <= t picks, in
    ``_row_slices`` blocks of rows: ``rows_low @ B`` left of a block's diagonal
    square, ``rows_up @ B`` from it on, and the square masked; bit for bit the
    product of the whole-square branch tables."""
    out = np.empty((B.shape[1],) * 2)
    for t in _row_slices(B.shape[1]):
        np.matmul(rows_low[t], B[:, :t.start], out=out[t, :t.start])
        np.matmul(rows_up[t], B[:, t.start:], out=out[t, t.start:])
        np.copyto(out[t, t], rows_low[t] @ B[:, t], where=np.tri(t.stop - t.start, dtype=bool))
    return out


def _lower_pass(factors, reduce) -> list:
    """``reduce(*blocks)`` per ``_row_slices`` slice t of rows; a block holds one
    kernel of ``factors`` (row . k_low, col) on its lower branch at columns
    s < t.stop, each pair s > t repeating its row's diagonal: so a symmetric
    kernel whole, where pairs s <= t take the lower branch (id map, (2T - t, s)).
    Each slice's blocks are freed before the next form, which reuse the memory."""
    def block(rows_low, B, t):
        rows = np.arange(t.start, t.stop)
        out = _node_block(rows_low[..., t, :], None, B[:, :t.stop], rows, np.arange(t.stop))
        square = out[..., t.start:]
        np.copyto(square, np.diagonal(square, axis1=-2, axis2=-1)[..., None],
                  where=rows > rows[:, None])
        return out
    return [reduce(*(block(rows_low, B, t) for rows_low, B in factors))
            for t in _row_slices(factors[0][1].shape[1])]


def _node_extrema(states: np.ndarray, k_low: np.ndarray):
    """(min, max) arrays of the kernels row(t) . k_low[i] . col(s), a stack of
    shape (m, 2, 2), over the node pairs s <= t of ``states`` (the
    ``basis.trajectory`` of the nodes), in one ``_lower_pass``."""
    A, B = _factors(states, states)
    ext = np.array(_lower_pass([(A.T @ k_low, B)], lambda block: (
        np.min(block, axis=(1, 2)), np.max(block, axis=(1, 2)))))
    return np.min(ext[:, 0], axis=0), np.max(ext[:, 1], axis=0)


def _kernel_extrema(states: np.ndarray, k_low: np.ndarray):
    """``_node_extrema`` of one kernel (floats) or a stack; in O(n) where the
    lower branch matrix has a zero column (separated kernels; N +- M1, M2 +- D):
    there G(t_i, s_j) = a_i b_j for s_j <= t_i, bit for bit, a the other column
    q of row . k_low and b the q-th entry of col, so b's prefix extremes give
    the extremes.  The other kernels share one ``_node_extrema`` pass."""
    k = np.reshape(k_low, (-1, 2, 2))
    A, B = _factors(states, states)
    weight = np.abs(k).sum(axis=1)
    q = np.argmax(weight, axis=1)
    a, b = (A.T @ k)[np.arange(len(k)), :, q], B[q]
    ends = np.concatenate([a * np.minimum.accumulate(b, axis=1),
                           a * np.maximum.accumulate(b, axis=1)], axis=1)
    lo, hi = np.min(ends, axis=1), np.max(ends, axis=1)
    rank2 = weight.all(axis=1)
    if rank2.any():
        lo[rank2], hi[rank2] = _node_extrema(states, k[rank2])
    return (float(lo[0]), float(hi[0])) if np.ndim(k_low) == 2 else (lo, hi)


def _max_abs(vals: np.ndarray) -> float:
    """max |vals|, read from the extremes without an abs temporary."""
    return float(max(abs(np.min(vals)), abs(np.max(vals))))


def _check_n(n, name: str = "n", least: int = 1) -> int:
    """A grid size as an int, from an integral int, NumPy number or float."""
    if isinstance(n, bool) or not isinstance(n, (int, float, np.integer, np.floating)) \
            or not float(n).is_integer():
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {n}")
    return int(n)


# Kernel families of the workspace: grid factor and label.  The factor is
# the family's length in units of T and keeps the node spacing T/n shared.
# Each family's fundamental matrix follows from the base one, Phi with
# M = Phi(T), by symmetry (Magnus & Winkler, Hill's Equation; D = diag(1, -1)):
#   base   a          on [0, T],  n    pieces  Phi(t)
#   even2  a~         on [0, 2T], 2 n  pieces  Phi(t), then D Phi(2T - t) M^-1 D M
#   even4  (a~)~      on [0, 4T], 4 n  pieces  the even2 rule applied to even2
#   refl   a(T - .)   on [0, T],  n    pieces  D Phi(T - t) M^-1 D
_FAMILIES = {"base": (1, "base interval"), "even2": (2, "even extension"),
             "even4": (4, "doubled even extension"), "refl": (1, "reflected potential")}
# Argument maps of the node index i: id, 2T - x on the 2n grid, T - x on the n grid.
_MAPS = {"id": lambda i, n: i, "r2": lambda i, n: 2 * n - i, "rT": lambda i, n: n - i}
# D of the family rules: t -> c - t keeps a solution's value and flips its slope.
_D = np.diag([1.0, -1.0])


class _KernelCache:
    """The kernel workspace of one solution basis on its grid of n pieces,
    shared by ``build_green``, the identity catalog and the comparison
    checks: ``_kernel_cache`` keeps one per (p, lambda, tol, n).

    The basis is p integrated once on [0, L]; every other family follows from it
    by the rules of ``_FAMILIES`` on first use.  ``_family`` reads a family's
    (monodromy, read-only states at its grid nodes 0..min(2n, pieces)), the only
    nodes an argument map reaches; ``row_factors`` and ``row_max`` serve the
    catalog's bound.  Per (family, bc) ``_matrices`` holds the branch matrices
    (k_low, k_up) with the resonance margin and ``_extrema`` the kernel's (min,
    max) over the family's node pairs s <= t.  A resonant kernel raises on every
    request.  Threads share a workspace; its derived families and dicts are
    filled check then set, without a lock, so a race forms one value twice, the
    same value.
    """

    def __init__(self, basis: SolutionBasis, n: int):
        self.basis, self.n, self.lam, self.L = basis, n, basis.lam, basis.length
        S = basis.trajectory(np.linspace(0.0, self.L, n + 1))
        S.flags.writeable = False
        self.base = (basis.monodromy, S)
        self.row_max = float(np.max(S[0] ** 2 + S[2] ** 2))
        self._rest, self._matrices, self._extrema = None, {}, {}

    @property
    def row_factors(self) -> dict:
        """X with row_family(k) = row(base node) X, for nodes k up to T and past T."""
        return self._derived()[0]

    def _family(self, family: str) -> tuple:
        """(monodromy, node states) of one family of ``_FAMILIES``."""
        return self.base if family == "base" else self._derived()[1][family]

    def _derived(self) -> tuple[dict, dict]:
        """(row_factors, the other families), derived from the base on first use."""
        if self._rest is None:
            M, S = self.base
            try:
                R = np.linalg.solve(M, _D)
            except np.linalg.LinAlgError:  # singular in floating point; det M = 1 (Liouville)
                R = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) @ _D
            one, C = np.eye(2), R @ M
            even, M2 = np.concatenate([S, _mirrored(S[:, -2::-1], C)], axis=1), _D @ C
            # C is an involution, so M2^-1 D = C and the doubled extension needs
            # no solve with M2, which is singular in floating point at large -lambda
            self._rest = ({"base": (one, one), "even2": (one, C), "even4": (one, C),
                           "refl": (R, R)},
                          {"even2": (M2, even), "even4": (_D @ C @ M2, even),
                           "refl": (_D @ R, _mirrored(S[:, ::-1], R))})
        return self._rest

    def _branches(self, family: str, bc: str):
        """``_branch_matrices`` of G_bc[family]: (k_low, k_up, margin)."""
        key = (family, bc)
        if key not in self._matrices:
            self._matrices[key] = _branch_matrices(
                self._family(family)[0], self.lam, BoundaryCondition.parse(bc),
                _FAMILIES[family][0] * self.L, family)
        return self._matrices[key]

    def factors(self, idx: np.ndarray, family: str, bc: str, tmap="id", smap="id"):
        """The ``_node_block`` arguments of G_bc[family](tmap(t), smap(s)) over idx."""
        k_low, k_up, _ = self._branches(family, bc)
        t_idx, s_idx = _MAPS[tmap](idx, self.n), _MAPS[smap](idx, self.n)
        states = self._family(family)[1]
        A, B = _factors(states[:, t_idx], states[:, s_idx])
        return A.T @ k_low, A.T @ k_up, B, t_idx, s_idx

    def extrema(self, family: str, bc: str) -> tuple[float, float]:
        """(min, max) of G_bc[family] over its node pairs s <= t."""
        k_low = self._branches(family, bc)[0]
        key = (family, bc)
        if key not in self._extrema:
            self._extrema[key] = _kernel_extrema(self._family(family)[1], k_low)
        return self._extrema[key]


def _kernel_cache(p: Potential, n: int, lam: float, tol: float) -> _KernelCache:
    """The workspace of p at lambda on n pieces, kept in the workspace cache
    unless its grid has more than ``_NODE_STATES`` nodes."""
    n = _check_n(n)
    basis = fundamental_solutions(p, lam, tol=tol)
    if n + 1 > _NODE_STATES:
        return _KernelCache(basis, n)
    return _memo(_WORKSPACES, (p, basis.lam, basis.tol, n), lambda: _KernelCache(basis, n))


def _mirrored(states: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Node states of D Phi X, ``states`` holding Phi column by column: (y1, y1', y2, y2')."""
    return np.kron(X.T, _D) @ states


def build_green(p: Potential, lam: float, bc, n: int = 100, *,
                tol: float = DEFAULT_TOL) -> GreensFunction:
    """Construct the Green's function of u'' + (a + lambda) u on [0, T] under ``bc``."""
    bc = BoundaryCondition.parse(bc)
    cache = _kernel_cache(p, n, lam, tol)
    k_low, k_up, margin = cache._branches("base", bc.value)
    basis, L = cache.basis, cache.L
    table = _node_table(*cache.factors(np.arange(cache.n + 1), "base", bc.value)[:3])
    # the basis's Magnus steps have det 1 to rounding: its Wronskian drift
    # |det M - 1| is rounding of det M, not its error
    meta = {
        "potential": p.descriptor(),
        "tol": tol,
        "basis": "magnus6",
        "resonance_margin": margin,
        "wronskian_drift": abs(basis.y1_end * basis.y2p_end
                               - basis.y1p_end * basis.y2_end - 1.0),
    }
    return GreensFunction(bc=bc, length=L, lam=float(lam), n=cache.n,
                          grid=np.linspace(0.0, L, cache.n + 1),
                          table=table, branches=KernelBranches(basis, k_low, k_up), meta=meta)


def kernel_value(p: Potential, lam: float, bc, t: float, s: float, *,
                 tol: float = DEFAULT_TOL) -> float:
    """One kernel value G(t, s) of ``build_green``'s kernel, from the same branch
    matrices and resonance check, without forming a grid or a workspace."""
    basis = fundamental_solutions(p, lam, tol=tol)
    k_low, k_up, _ = _branch_matrices(basis.monodromy, basis.lam, BoundaryCondition.parse(bc),
                                      basis.length)
    return KernelBranches(basis, k_low, k_up).value(t, s)


def closed_form_constant(m: float, length: float, bc, n: int = 100) -> GreensFunction:
    """Exact trigonometric kernel for a == 0 and lambda = m^2 (m > 0).

    Raises PoleError when the requested condition is resonant at m^2, i.e.
    when the closed-form denominator vanishes.
    """
    bc = BoundaryCondition.parse(bc)
    m = float(m)
    L = float(length)
    if not (0 < m < math.inf and 0 < L < math.inf):
        raise ValueError(f"closed form needs a finite m > 0 and a finite positive length, "
                         f"got m={m}, length={L}")
    n = _check_n(n)
    branches = _TrigBranches(m, L, bc)
    if abs(branches.denominator) < 1e-12 * max(1.0, m):
        raise PoleError(
            f"closed-form {bc.name.lower()} kernel has a pole at m={m}, length={L}",
            denominator=branches.denominator)
    grid = np.linspace(0.0, L, n + 1)
    return GreensFunction(bc=bc, length=L, lam=m * m, n=n, grid=grid,
                          table=branches.node_table(grid),
                          branches=branches, meta={"closed_form": True, "m": m})


def _integrand(sigma, t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """f(t) = (-y2(t), y1(t)) sigma(t) from the states y at t."""
    return np.stack([-y[2], y[0]]) * sigma(t)


@dataclass(eq=False)
class BvpSolution:
    """Solution u(t) = integral of G(t, s) sigma(s) ds, callable anywhere on [0, L].

    Since K_low - K_up = I, with row(t) = (y1, y2)(t) and
    c(t) = integral over [0, t] of f(s) = (-y2(s), y1(s)) sigma(s) ds,

        u(t)  = row(t)  . (K_up c(L) + c(t)),
        u'(t) = row'(t) . (K_up c(L) + c(t)),

    the c' term of u' dropping out because row(t) . (-y2, y1)(t) = 0.
    ``solve_bvp`` stores K_up c(L) + c(x) and f(x) at the panel edges x of
    its cumulative Simpson rule. At any t, c(t) is c at the last edge x <= t
    plus one Simpson panel over [x, t], so each point costs the states at t
    and (x + t) / 2, and u is never interpolated. Each node of ``grid`` is an
    edge, where that panel has zero width, so ``solve_bvp`` forms ``values``
    from the states and c it holds at the nodes, and ``u(u.grid)`` equals
    ``u.values`` exactly.  A scalar t is
    read by ``_point`` in Python floats, operation for operation as in an array, so
    bit for bit the same and without numpy's per-call overhead.
    """

    bc: BoundaryCondition
    lam: float
    length: float
    grid: np.ndarray
    values: np.ndarray
    _basis: SolutionBasis = field(repr=False)
    _sigma: object = field(repr=False)
    _edges: np.ndarray = field(repr=False)
    _c: np.ndarray = field(repr=False)
    _f: np.ndarray = field(repr=False)

    def _eval(self, t, deriv: bool):
        tt = np.asarray(t, dtype=float)
        if tt.ndim == 0:
            return self._point(float(tt), deriv)
        pts = _on_domain(tt.reshape(-1), self.length)
        m = pts.size
        k = np.searchsorted(self._edges, pts, side="right") - 1
        x = self._edges[k]
        # one call for t and the panel midpoints
        s = np.concatenate([pts, 0.5 * (x + pts)])
        y = self._basis.trajectory(s)
        f = _integrand(self._sigma, s, y)
        c = self._c[:, k] + (self._f[:, k] + 4.0 * f[:, m:] + f[:, :m]) * ((pts - x) / 6.0)
        row = y[[1, 3], :m] if deriv else y[[0, 2], :m]
        return np.sum(row * c, axis=0).reshape(tt.shape)

    def _point(self, t: float, deriv: bool) -> float:
        """``_eval`` at one point, in Python floats operation for operation."""
        t = _on_domain(t, self.length)
        k = int(self._edges.searchsorted(t, side="right")) - 1
        x = float(self._edges[k])
        mid = 0.5 * (x + t)
        y, ym = (self._basis._pieces.point(v) for v in (t, mid))
        sig, sig_mid = self._sigma(np.array([t, mid])).tolist()
        c = [ck + (fk + 4.0 * (fm * sig_mid) + ft * sig) * ((t - x) / 6.0) for ck, fk, fm, ft in
             zip(self._c[:, k].tolist(), self._f[:, k].tolist(), (-ym[2], ym[0]), (-y[2], y[0]))]
        return y[1] * c[0] + y[3] * c[1] if deriv else y[0] * c[0] + y[2] * c[1]

    def __call__(self, t):
        return self._eval(t, deriv=False)

    def derivative(self, t):
        return self._eval(t, deriv=True)


def _as_callable(sigma, squad: np.ndarray):
    if callable(sigma):
        def fn(s):
            arr = np.asarray(s, dtype=float)
            try:
                out = np.asarray(sigma(arr), dtype=float)
            except (TypeError, ValueError):
                out = None
            if out is not None and out.shape == arr.shape:
                return out
            # scalar-only callable (math.sin, lambda t: 1.0, ...)
            return np.asarray([float(sigma(float(x))) for x in np.atleast_1d(arr)],
                              dtype=float).reshape(arr.shape)
        return fn
    if np.ndim(sigma) == 0:
        c = float(sigma)
        return lambda s: np.full(np.shape(s), c)
    vals = np.asarray(sigma, dtype=float)
    if vals.shape != squad.shape:
        raise ValueError(f"sigma array must match the grid of {squad.size} nodes")
    return lambda s: np.interp(np.asarray(s, dtype=float), squad, vals)


def solve_bvp(p: Potential, lam: float, bc, sigma, n: int = 100, *,
              tol: float = DEFAULT_TOL) -> BvpSolution:
    """Solve u'' + (a + lambda) u = sigma on [0, T] under ``bc`` via the Green's kernel.

    ``sigma`` may be a callable, a constant, or an array on the uniform
    4n+1 grid (interpolated linearly between its nodes). One pass integrates
    c(t) (see ``BvpSolution``) by cumulative Simpson over panels whose edges
    are the 2n+1 uniform ones plus every segment edge of the basis (jumps of
    the potential, table nodes) not already on one, so no panel straddles a
    kink. The n+1 node values are read from that pass, each node being a
    panel edge; every other value of the returned solution continues the
    integral by one partial panel.
    """
    bc = BoundaryCondition.parse(bc)
    n = _check_n(n)
    basis = fundamental_solutions(p, lam, tol=tol)
    L = basis.length
    _, k_up, _ = _branch_matrices(basis.monodromy, basis.lam, bc, L)

    sig_fn = _as_callable(sigma, np.linspace(0.0, L, 4 * n + 1))
    # a segment edge within rounding of its nearest uniform edge adds no sliver panel
    edges, seg = np.linspace(0.0, L, 2 * n + 1), basis._edges
    near = edges[np.rint(seg * (2 * n / L)).astype(int)]
    edges = np.union1d(edges, seg[np.abs(seg - near) > 1e-12 * (1.0 + L)])
    pts = np.empty(2 * edges.size - 1)
    pts[::2], pts[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
    y = basis.trajectory(pts)
    f = _integrand(sig_fn, pts, y)
    # c at the panel edges, by cumulative Simpson with each panel's own width
    panels = (f[:, :-2:2] + 4.0 * f[:, 1::2] + f[:, 2::2]) * (np.diff(edges) / 6.0)
    c = np.concatenate([np.zeros((2, 1)), np.cumsum(panels, axis=1)], axis=1)
    c = (k_up @ c[:, -1])[:, None] + c
    # every node is a panel edge: u there is row . c, with no partial panel
    grid = np.linspace(0.0, L, n + 1)
    at = np.searchsorted(edges, grid)
    return BvpSolution(bc=bc, lam=float(lam), length=L, grid=grid,
                       values=np.sum(y[[0, 2]][:, 2 * at] * c[:, at], axis=0),
                       _basis=basis, _sigma=sig_fn, _edges=edges, _c=c, _f=f[:, ::2])
