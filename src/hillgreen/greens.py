"""Green's functions for u'' + (a(t) + lambda) u = sigma under six endpoint conditions.

Every kernel is stored as two analytic branches over the full square,
    G(t, s) = row(t) . K . col(s),  row(t) = (y1(t), y2(t)),  col(s) = (-y2(s), y1(s)),
with one coefficient matrix per branch and the branch picked by s <= t.
K_low - K_up = I for every condition, which forces continuity on the
diagonal and a unit jump in dG/dt across it by construction.

Coupled conditions (periodic, anti-periodic) use K_up = (eps I - M)^{-1} M
with M the monodromy matrix; separated conditions use the rank-one kernel
built from the pair of one-sided solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

from .errors import PoleError, ResonanceError
from .integrator import DEFAULT_TOL, SolutionBasis, fundamental_solutions
from .potential import Potential

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
    "estimate_diagonal_jump",
    "boundary_residual",
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
        if isinstance(text, cls):
            return text
        key = str(text).strip().lower().replace("-", "").replace("_", "")
        table = {
            "p": cls.PERIODIC, "periodic": cls.PERIODIC,
            "a": cls.ANTIPERIODIC, "antiperiodic": cls.ANTIPERIODIC,
            "n": cls.NEUMANN, "neumann": cls.NEUMANN,
            "d": cls.DIRICHLET, "dirichlet": cls.DIRICHLET,
            "m1": cls.MIXED1, "mixed1": cls.MIXED1,
            "m2": cls.MIXED2, "mixed2": cls.MIXED2,
        }
        try:
            return table[key]
        except KeyError:
            raise ValueError(f"unknown boundary condition {text!r}") from None

    @property
    def is_coupled(self) -> bool:
        return self in (BoundaryCondition.PERIODIC, BoundaryCondition.ANTIPERIODIC)

    @property
    def condition(self) -> str:
        return {
            BoundaryCondition.PERIODIC: "u(0)=u(T), u'(0)=u'(T)",
            BoundaryCondition.ANTIPERIODIC: "u(0)=-u(T), u'(0)=-u'(T)",
            BoundaryCondition.NEUMANN: "u'(0)=0, u'(T)=0",
            BoundaryCondition.DIRICHLET: "u(0)=0, u(T)=0",
            BoundaryCondition.MIXED1: "u'(0)=0, u(T)=0",
            BoundaryCondition.MIXED2: "u(0)=0, u'(T)=0",
        }[self]


# Every condition's short name, in declaration order: P, A, N, D, M1, M2.
BC_ALL = tuple(bc.value for bc in BoundaryCondition)


def _branch_matrices(basis: SolutionBasis, bc: BoundaryCondition):
    """Coefficient matrices (k_low, k_up) plus the resonance margin.

    Raises ResonanceError when lambda sits on an eigenvalue of the chosen
    condition, where no Green's function exists.
    """
    M = basis.monodromy
    scale = max(1.0, float(np.linalg.norm(M)))
    eye = np.eye(2)

    if bc.is_coupled:
        eps = 1.0 if bc is BoundaryCondition.PERIODIC else -1.0
        A = eps * eye - M
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if abs(det) < RESONANCE_RTOL * scale:
            raise ResonanceError(
                f"{bc.name.lower()} condition is resonant at lambda={basis.lam}: "
                f"det(eps*I - M) = {det:.3e}",
                determinant=float(det), bc=bc, lam=basis.lam)
        C = np.linalg.solve(A, M)
        return C + eye, C, abs(det) / scale

    l, r = {
        BoundaryCondition.NEUMANN: ((1.0, 0.0), (basis.y2p_end, -basis.y1p_end)),
        BoundaryCondition.DIRICHLET: ((0.0, 1.0), (basis.y2_end, -basis.y1_end)),
        BoundaryCondition.MIXED1: ((1.0, 0.0), (basis.y2_end, -basis.y1_end)),
        BoundaryCondition.MIXED2: ((0.0, 1.0), (basis.y2p_end, -basis.y1p_end)),
    }[bc]
    W = l[0] * r[1] - l[1] * r[0]
    if abs(W) < RESONANCE_RTOL * scale:
        raise ResonanceError(
            f"{bc.name.lower()} condition is resonant at lambda={basis.lam}: "
            f"boundary Wronskian = {W:.3e}",
            determinant=float(W), bc=bc, lam=basis.lam)
    k_low = np.outer(r, (-l[1], l[0])) / W
    k_up = np.outer(l, (-r[1], r[0])) / W
    return k_low, k_up, abs(W) / scale


@dataclass(eq=False)
class KernelBranches:
    """Exact two-branch evaluator backed by a solution basis."""

    basis: SolutionBasis
    k_low: np.ndarray
    k_up: np.ndarray

    def _row_col(self, tpts, spts, deriv: bool):
        Rt = self.basis.trajectory(np.atleast_1d(np.asarray(tpts, dtype=float)))
        Rs = self.basis.trajectory(np.atleast_1d(np.asarray(spts, dtype=float)))
        A = np.stack([Rt[1], Rt[3]]) if deriv else np.stack([Rt[0], Rt[2]])
        B = np.stack([-Rs[2], Rs[0]])
        return A, B

    def tables(self, tpts, spts):
        """(lower, upper) matrices with rows indexed by t and columns by s."""
        A, B = self._row_col(tpts, spts, deriv=False)
        return A.T @ self.k_low @ B, A.T @ self.k_up @ B

    def tables_dt(self, tpts, spts):
        """Same layout for dG/dt."""
        A, B = self._row_col(tpts, spts, deriv=True)
        return A.T @ self.k_low @ B, A.T @ self.k_up @ B

    def value(self, t: float, s: float, lower: bool | None = None) -> float:
        if lower is None:
            lower = s <= t
        K = self.k_low if lower else self.k_up
        yt = self.basis.trajectory(float(t))
        ys = self.basis.trajectory(float(s))
        row = np.array([yt[0], yt[2]])
        col = np.array([-ys[2], ys[0]])
        return float(row @ K @ col)


class _TrigBranches:
    """Closed-form branch evaluator for the constant potential a == 0, lambda = m^2."""

    def __init__(self, m: float, length: float, bc: BoundaryCondition):
        self.m = m
        self.length = length
        self.bc = bc
        L = length
        if bc is BoundaryCondition.PERIODIC:
            den = 2.0 * m * math.sin(m * L / 2)
            self._low = lambda t, s: np.cos(m * (s - t + L / 2)) / den
            self._up = lambda t, s: np.cos(m * (s - t - L / 2)) / den
            self._dlow = lambda t, s: np.sin(m * (s - t + L / 2)) * (m / den)
            self._dup = lambda t, s: np.sin(m * (s - t - L / 2)) * (m / den)
        elif bc is BoundaryCondition.ANTIPERIODIC:
            den = 2.0 * m * math.cos(m * L / 2)
            self._low = lambda t, s: -np.sin(m * (s - t + L / 2)) / den
            self._up = lambda t, s: -np.sin(m * (t - s + L / 2)) / den
            self._dlow = lambda t, s: np.cos(m * (s - t + L / 2)) * (m / den)
            self._dup = lambda t, s: -np.cos(m * (t - s + L / 2)) * (m / den)
        elif bc is BoundaryCondition.NEUMANN:
            den = m * math.sin(m * L)
            self._low = lambda t, s: np.cos(m * s) * np.cos(m * (L - t)) / den
            self._up = lambda t, s: np.cos(m * t) * np.cos(m * (L - s)) / den
            self._dlow = lambda t, s: np.cos(m * s) * np.sin(m * (L - t)) * (m / den)
            self._dup = lambda t, s: -np.sin(m * t) * np.cos(m * (L - s)) * (m / den)
        elif bc is BoundaryCondition.DIRICHLET:
            den = m * math.sin(m * L)
            self._low = lambda t, s: np.sin(m * s) * np.sin(m * (t - L)) / den
            self._up = lambda t, s: np.sin(m * t) * np.sin(m * (s - L)) / den
            self._dlow = lambda t, s: np.sin(m * s) * np.cos(m * (t - L)) * (m / den)
            self._dup = lambda t, s: np.cos(m * t) * np.sin(m * (s - L)) * (m / den)
        elif bc is BoundaryCondition.MIXED1:
            den = m * math.cos(m * L)
            self._low = lambda t, s: np.cos(m * s) * np.sin(m * (t - L)) / den
            self._up = lambda t, s: np.cos(m * t) * np.sin(m * (s - L)) / den
            self._dlow = lambda t, s: np.cos(m * s) * np.cos(m * (t - L)) * (m / den)
            self._dup = lambda t, s: -np.sin(m * t) * np.sin(m * (s - L)) * (m / den)
        else:
            den = m * math.cos(m * L)
            self._low = lambda t, s: -np.sin(m * s) * np.cos(m * (L - t)) / den
            self._up = lambda t, s: -np.sin(m * t) * np.cos(m * (L - s)) / den
            self._dlow = lambda t, s: -np.sin(m * s) * np.sin(m * (L - t)) * (m / den)
            self._dup = lambda t, s: -np.cos(m * t) * np.cos(m * (L - s)) * (m / den)
        self.denominator = den

    def tables(self, tpts, spts):
        T = np.asarray(tpts, dtype=float)[:, None]
        S = np.asarray(spts, dtype=float)[None, :]
        return self._low(T, S), self._up(T, S)

    def tables_dt(self, tpts, spts):
        T = np.asarray(tpts, dtype=float)[:, None]
        S = np.asarray(spts, dtype=float)[None, :]
        return self._dlow(T, S), self._dup(T, S)

    def value(self, t, s, lower=None):
        if lower is None:
            lower = s <= t
        f = self._low if lower else self._up
        return float(f(t, s))


@dataclass(eq=False)
class GreensFunction:
    """Green's function sampled on a uniform (n+1)^2 grid, with exact branches attached.

    ``lower`` and ``upper`` hold each branch over the whole square (both are
    analytic, so continuing past the diagonal is harmless); selection by
    s <= t happens in ``combined`` and ``value``.
    """

    bc: BoundaryCondition
    length: float
    lam: float
    n: int
    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    branches: object = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)

    def combined(self) -> np.ndarray:
        mask = self.grid[None, :] <= self.grid[:, None]
        return np.where(mask, self.lower, self.upper)

    def value(self, t: float, s: float) -> float:
        return self.branches.value(float(t), float(s))

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.lower).copy()

    def symmetry_error(self) -> float:
        C = self.combined()
        return float(np.max(np.abs(C - C.T)))

    def csv_text(self) -> str:
        """The table as ``t,s,G`` rows, one per node pair, exact float reprs."""
        lines = ["t,s,G"]
        C = self.combined()
        for i, t in enumerate(self.grid):
            ti = repr(float(t))
            for j, s in enumerate(self.grid):
                lines.append(f"{ti},{float(s)!r},{float(C[i, j])!r}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        Path(path).write_text(self.csv_text())


def table_slice(G: GreensFunction, t_idx, s_idx) -> np.ndarray:
    """Node-exact subtable G(grid[t_idx[i]], grid[s_idx[j]]).

    Index arrays refer to nodes of ``G.grid``; the branch is chosen per
    entry by comparing node indices, so transformed arguments evaluated on
    compatible grids stay exact (no interpolation anywhere).
    """
    t_idx = np.asarray(t_idx, dtype=int)
    s_idx = np.asarray(s_idx, dtype=int)
    sub_low = G.lower[np.ix_(t_idx, s_idx)]
    sub_up = G.upper[np.ix_(t_idx, s_idx)]
    mask = s_idx[None, :] <= t_idx[:, None]
    return np.where(mask, sub_low, sub_up)


def build_green(p: Potential, lam: float, bc, n: int = 100,
                length: float | None = None, tol: float = DEFAULT_TOL) -> GreensFunction:
    """Construct the Green's function of u'' + (a + lambda) u under ``bc``."""
    bc = BoundaryCondition.parse(bc)
    L = float(p.domain_length if length is None else length)
    basis = fundamental_solutions(p, lam, L, tol)
    k_low, k_up, margin = _branch_matrices(basis, bc)
    branches = KernelBranches(basis, k_low, k_up)
    grid = np.linspace(0.0, L, n + 1)
    lower, upper = branches.tables(grid, grid)
    meta = {
        "potential": p.descriptor(),
        "tol": tol,
        "resonance_margin": margin,
        "wronskian_drift": abs(basis.y1_end * basis.y2p_end
                               - basis.y1p_end * basis.y2_end - 1.0),
    }
    return GreensFunction(bc=bc, length=L, lam=float(lam), n=int(n), grid=grid,
                          lower=lower, upper=upper, branches=branches, meta=meta)


def kernel_value(p: Potential, lam: float, bc, t: float, s: float,
                 length: float | None = None, tol: float = DEFAULT_TOL) -> float:
    """Single kernel value without building a grid."""
    bc = BoundaryCondition.parse(bc)
    L = float(p.domain_length if length is None else length)
    basis = fundamental_solutions(p, lam, L, tol)
    k_low, k_up, _ = _branch_matrices(basis, bc)
    return KernelBranches(basis, k_low, k_up).value(t, s)


def closed_form_constant(m: float, length: float, bc, n: int = 100) -> GreensFunction:
    """Exact trigonometric kernel for a == 0 and lambda = m^2 (m > 0).

    Raises PoleError when the requested condition is resonant at m^2, i.e.
    when the closed-form denominator vanishes.
    """
    bc = BoundaryCondition.parse(bc)
    m = float(m)
    L = float(length)
    if m <= 0 or L <= 0:
        raise ValueError("closed form needs m > 0 and a positive length")
    branches = _TrigBranches(m, L, bc)
    if abs(branches.denominator) < 1e-12 * max(1.0, m):
        raise PoleError(
            f"closed-form {bc.name.lower()} kernel has a pole at m={m}, length={L}",
            denominator=branches.denominator)
    grid = np.linspace(0.0, L, n + 1)
    lower, upper = branches.tables(grid, grid)
    return GreensFunction(bc=bc, length=L, lam=m * m, n=int(n), grid=grid,
                          lower=lower, upper=upper, branches=branches,
                          meta={"closed_form": True, "m": m})


def estimate_diagonal_jump(G: GreensFunction, npts: int = 20, h: float = 3e-4) -> np.ndarray:
    """Finite-difference estimates of the dG/dt jump across s = t (exact value 1).

    Uses centered differences of each branch separately; both branches are
    analytic across the diagonal so the stencils may straddle it.
    """
    L = G.length
    pts = np.linspace(0.05 * L, 0.95 * L, npts)
    out = np.empty(npts)
    for k, t in enumerate(pts):
        dlow = (G.branches.value(t + h, t, lower=True)
                - G.branches.value(t - h, t, lower=True)) / (2 * h)
        dup = (G.branches.value(t + h, t, lower=False)
               - G.branches.value(t - h, t, lower=False)) / (2 * h)
        out[k] = dlow - dup
    return out


def boundary_residual(G: GreensFunction) -> float:
    """Worst violation of the defining endpoint conditions over the s grid.

    Several separated conditions come out exactly zero in floating point
    because the corresponding kernel coefficients cancel algebraically.
    """
    s = G.grid
    br = G.branches
    zero = np.zeros(1)
    val_at_0 = br.tables(zero, s)[1][0]      # t = 0 lies in the upper branch
    val_at_L = br.tables(np.array([G.length]), s)[0][0]
    dt_at_0 = br.tables_dt(zero, s)[1][0]
    dt_at_L = br.tables_dt(np.array([G.length]), s)[0][0]

    bc = G.bc
    if bc is BoundaryCondition.NEUMANN:
        r0, r1 = dt_at_0, dt_at_L
    elif bc is BoundaryCondition.DIRICHLET:
        r0, r1 = val_at_0, val_at_L
    elif bc is BoundaryCondition.MIXED1:
        r0, r1 = dt_at_0, val_at_L
    elif bc is BoundaryCondition.MIXED2:
        r0, r1 = val_at_0, dt_at_L
    else:
        eps = 1.0 if bc is BoundaryCondition.PERIODIC else -1.0
        # interior s only: at s = 0 and s = L the branch assignment is ambiguous
        keep = slice(1, -1) if len(s) > 2 else slice(None)
        r0 = (val_at_L - eps * val_at_0)[keep]
        r1 = (dt_at_L - eps * dt_at_0)[keep]
    return float(max(np.max(np.abs(r0)), np.max(np.abs(r1))))


def _simpson_weights(npts: int, h: float) -> np.ndarray:
    if npts < 3 or npts % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of nodes, at least 3")
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


@dataclass(eq=False)
class BvpSolution:
    """Solution u(t) = integral of G(t, s) sigma(s) ds, callable anywhere on [0, L].

    Node values use the quadrature grid split exactly at s = t; off-node
    calls integrate the upper branch over the whole interval and add the
    one-sided correction through the kernel jump, so no interpolation of u
    is ever involved.
    """

    bc: BoundaryCondition
    lam: float
    length: float
    grid: np.ndarray
    values: np.ndarray
    _branches: KernelBranches = field(repr=False)
    _sigma: object = field(repr=False)
    _squad: np.ndarray = field(repr=False)
    _sigquad: np.ndarray = field(repr=False)

    def _jump_correction(self, t: float, deriv: bool) -> float:
        # integral over [0, t] of (y2(t) y1(s) - y1(t) y2(s)) sigma(s) ds
        if t <= 0.0:
            return 0.0
        npts = 257
        s = np.linspace(0.0, t, npts)
        traj = self._branches.basis.trajectory(s)
        sig = np.asarray(self._sigma(s), dtype=float)
        w = _simpson_weights(npts, t / (npts - 1))
        i1 = float(w @ (traj[0] * sig))
        i2 = float(w @ (traj[2] * sig))
        yt = self._branches.basis.trajectory(float(t))
        if deriv:
            return yt[3] * i1 - yt[1] * i2
        return yt[2] * i1 - yt[0] * i2

    def _full_upper(self, t: float, deriv: bool) -> float:
        tbl = self._branches.tables_dt if deriv else self._branches.tables
        row = tbl(np.array([t]), self._squad)[1][0]
        h = self.length / (len(self._squad) - 1)
        w = _simpson_weights(len(self._squad), h)
        return float(w @ (row * self._sigquad))

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            return self._full_upper(float(arr), False) + self._jump_correction(float(arr), False)
        return np.array([self(float(x)) for x in arr])

    def derivative(self, t: float) -> float:
        return self._full_upper(float(t), True) + self._jump_correction(float(t), True)


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


def solve_bvp(p: Potential, lam: float, bc, sigma, n: int = 100,
              length: float | None = None, tol: float = DEFAULT_TOL) -> BvpSolution:
    """Solve u'' + (a + lambda) u = sigma under ``bc`` via the Green's kernel.

    ``sigma`` may be a callable, a constant, or an array on the 4n+1
    quadrature grid. Output node values live on the coarser n+1 grid; the
    returned object is callable everywhere.
    """
    bc = BoundaryCondition.parse(bc)
    L = float(p.domain_length if length is None else length)
    basis = fundamental_solutions(p, lam, L, tol)
    k_low, k_up, _ = _branch_matrices(basis, bc)
    branches = KernelBranches(basis, k_low, k_up)

    grid = np.linspace(0.0, L, n + 1)
    squad = np.linspace(0.0, L, 4 * n + 1)
    sig_fn = _as_callable(sigma, squad)
    sigquad = np.asarray(sig_fn(squad), dtype=float)

    lower_rows, upper_rows = branches.tables(grid, squad)
    values = np.empty(n + 1)
    for i in range(n + 1):
        k = 4 * i
        left = 0.0
        if k >= 2:
            left = simpson(lower_rows[i, :k + 1] * sigquad[:k + 1], x=squad[:k + 1])
        right = 0.0
        if 4 * n - k >= 2:
            right = simpson(upper_rows[i, k:] * sigquad[k:], x=squad[k:])
        values[i] = left + right

    return BvpSolution(bc=bc, lam=float(lam), length=L, grid=grid, values=values,
                       _branches=branches, _sigma=sig_fn, _squad=squad, _sigquad=sigquad)
