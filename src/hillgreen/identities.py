"""Grid verification of the kernel decomposition identities.

Each identity relates a kernel on [0, T] to kernels of the even extension
on [0, 2T] (one of them to the doubled extension on [0, 4T]).  Every
kernel's coefficients come from its own condition on its own family's
monodromy, and no term is folded into another.  The families' solutions are
the base solutions reflected (``greens._KernelCache``), so one integration
on [0, T] serves them all; the test suite checks that rule against
integrating the extended and reflected potentials directly.  That workspace,
one per (p, lambda, tol, n) in the workspace cache, also serves
``build_green`` and the comparison checks; this module holds the algebra.

A term reads row(t) X_t K J X_s^T row(s)^T: row = (y1, y2) of the base
basis, K the branch the mapped pair selects, J = [[0, -1], [1, 0]] and X
the 2x2 factor taking a base row to its family's (``greens._FAMILIES``).
On each cell of the grid where every term keeps its branch and factors, an
identity is one 2x2 matrix Q, zero in exact arithmetic; ``bound`` bounds
the node residual by |Q| plus a rounding term.  A bound within the
tolerance passes the identity and is its reported ``residual``.  Otherwise
(at large negative lambda, where the terms cancel catastrophically) the
identity is evaluated at every node pair, in 64-row slices, and
``residual`` is the node residual.  The base grid t_i = i T/n embeds into
the 2T and 4T grids with identical spacing, so 2T - t lands on node 2n - i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import ResonanceError
from .greens import (_MAPS, _KernelCache, _kernel_cache, _kernel_extrema, _max_abs, _node_block,
                     _row_slices)
from .integrator import DEFAULT_TOL, _check_positive
from .potential import Potential

__all__ = [
    "CATALOG",
    "IDENTITY_NAMES",
    "DEFAULT_IDENTITY_TOL",
    "Identity",
    "IdentityReport",
    "Term",
    "verify_all",
    "verify_identity",
]

DEFAULT_IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class Term:
    """One kernel evaluation G_bc[family](tmap(t), smap(s)) times coef.

    Argument maps: ``id`` leaves the point alone, ``r2`` sends it to
    2T - x on the extension grid, ``rT`` to T - x on the base grid.
    """

    coef: float
    family: str
    bc: str
    tmap: str = "id"
    smap: str = "id"


@dataclass(frozen=True)
class Identity:
    name: str
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    note: str
    # Grid the two sides are compared on: "base" means [0,T]^2 with n+1
    # points per axis, "even2" means [0,2T]^2 with 2n+1.
    domain: str = "base"


CATALOG: tuple[Identity, ...] = (
    Identity(
        "NP",
        (Term(1, "base", "N"),),
        (Term(1, "even2", "P"), Term(1, "even2", "P", smap="r2")),
        "Neumann kernel as the even-extension periodic kernel plus its image under s -> 2T - s.",
    ),
    Identity(
        "NP2",
        (Term(1, "base", "N"),),
        (Term(1, "even2", "P"), Term(1, "even2", "P", tmap="r2")),
        "Same periodic decomposition with the reflection moved to the first argument.",
    ),
    Identity(
        "NN",
        (Term(1, "base", "N"),),
        (Term(1, "even2", "N"), Term(1, "even2", "N", tmap="r2")),
        "Neumann kernel from the even-extension Neumann kernel and its reflection.",
    ),
    Identity(
        "DP",
        (Term(1, "base", "D"),),
        (Term(1, "even2", "P"), Term(-1, "even2", "P", tmap="r2")),
        "Dirichlet kernel as a difference of even-extension periodic values.",
    ),
    Identity(
        "DD",
        (Term(1, "base", "D"),),
        (Term(1, "even2", "D"), Term(-1, "even2", "D", tmap="r2")),
        "Dirichlet kernel from the even-extension Dirichlet kernel and its reflection.",
    ),
    Identity(
        "SUM",
        (Term(1, "base", "N"), Term(1, "base", "D")),
        (Term(2, "even2", "P"),),
        "Neumann plus Dirichlet equals twice the even-extension periodic kernel.",
    ),
    Identity(
        "DIF",
        (Term(1, "base", "N"), Term(-1, "base", "D")),
        (Term(2, "even2", "P", tmap="r2"),),
        "Neumann minus Dirichlet equals twice the reflected periodic kernel.",
    ),
    Identity(
        "M1A",
        (Term(1, "base", "M1"),),
        (Term(1, "even2", "A"), Term(-1, "even2", "A", tmap="r2")),
        "First mixed kernel from the even-extension antiperiodic kernel.",
    ),
    Identity(
        "M1N",
        (Term(1, "base", "M1"),),
        (Term(1, "even2", "N"), Term(-1, "even2", "N", tmap="r2")),
        "First mixed kernel from the even-extension Neumann kernel.",
    ),
    Identity(
        "M2A",
        (Term(1, "base", "M2"),),
        (Term(1, "even2", "A"), Term(1, "even2", "A", tmap="r2")),
        "Second mixed kernel from the even-extension antiperiodic kernel.",
    ),
    Identity(
        "M2D",
        (Term(1, "base", "M2"),),
        (Term(1, "even2", "D"), Term(1, "even2", "D", tmap="r2")),
        "Second mixed kernel from the even-extension Dirichlet kernel.",
    ),
    Identity(
        "MSUM",
        (Term(1, "base", "M2"), Term(1, "base", "M1")),
        (Term(2, "even2", "A"),),
        "The two mixed kernels sum to twice the even-extension antiperiodic kernel.",
    ),
    Identity(
        "MDIF",
        (Term(1, "base", "M2"), Term(-1, "base", "M1")),
        (Term(2, "even2", "A", tmap="r2"),),
        "Mixed kernel difference equals twice the reflected antiperiodic kernel.",
    ),
    Identity(
        "NM1",
        (Term(1, "base", "N"), Term(1, "base", "M1")),
        (Term(2, "even2", "N"),),
        "Neumann plus first mixed equals twice the even-extension Neumann kernel.",
    ),
    Identity(
        "NM1D",
        (Term(1, "base", "N"), Term(-1, "base", "M1")),
        (Term(2, "even2", "N", tmap="r2"),),
        "Neumann minus first mixed equals twice the reflected extension Neumann kernel.",
    ),
    Identity(
        "M2DD",
        (Term(1, "base", "M2"), Term(1, "base", "D")),
        (Term(2, "even2", "D"),),
        "Second mixed plus Dirichlet equals twice the even-extension Dirichlet kernel.",
    ),
    Identity(
        "M2DDD",
        (Term(1, "base", "M2"), Term(-1, "base", "D")),
        (Term(2, "even2", "D", tmap="r2"),),
        "Second mixed minus Dirichlet equals twice the reflected extension Dirichlet kernel.",
    ),
    Identity(
        "ALL4",
        (Term(1, "base", "N"), Term(1, "base", "D"),
         Term(1, "base", "M1"), Term(1, "base", "M2")),
        (Term(4, "even4", "P"),),
        "All four separated kernels sum to four times the periodic kernel of the doubled extension.",
    ),
    Identity(
        "REFL",
        (Term(1, "even2", "P"),),
        (Term(1, "even2", "P", tmap="r2", smap="r2"),),
        "The even-extension periodic kernel is invariant under reflecting both arguments.",
        domain="even2",
    ),
    Identity(
        "MREFL",
        (Term(1, "base", "M1", tmap="rT", smap="rT"),),
        (Term(1, "refl", "M2"),),
        "Reflecting both arguments of the first mixed kernel gives the second mixed kernel of the reversed potential.",
    ),
)

IDENTITY_NAMES = tuple(ident.name for ident in CATALOG)
_BY_NAME = {ident.name: ident for ident in CATALOG}


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    n: int
    residual: float
    lhs_scale: float
    tol: float
    passed: bool | None
    skipped: bool = False
    reason: str | None = None

    def as_dict(self) -> dict:
        return {
            "id": self.identity_id,
            "n": self.n,
            "residual": None if self.skipped else self.residual,
            "lhs_scale": None if self.skipped else self.lhs_scale,
            "pass": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
        }


# A term's kernel, its coefficient left out: the key of its factors and blocks.
_kernel = attrgetter("family", "bc", "tmap", "smap")
# col(s) = J row(s)^T
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
# A node pair (in units of n) inside each cell of a grid: the triangles below
# and above the diagonal of [0, n]^2; on [0, 2n]^2, those of the two diagonal
# quadrants and the two other quadrants (an argument past T takes C).
_CELLS = {"base": ((2 / 3, 1 / 3), (1 / 3, 2 / 3)),
          "even2": ((2 / 3, 1 / 3), (1 / 3, 2 / 3), (5 / 3, 4 / 3), (4 / 3, 5 / 3),
                    (3 / 2, 1 / 2), (1 / 2, 3 / 2))}


def lhs_scales(cache: _KernelCache, idents) -> list[float]:
    """max |lhs| of each identity over its grid's node pairs s <= t.  A
    one-term left side is one kernel read through a bijection of its family's
    nodes (id or rT maps); the longer ones sum id-mapped base kernels."""
    summed, extremes = [ident for ident in idents if len(ident.lhs) > 1], {}
    if summed:
        k = np.array([sum(t.coef * cache._branches(t.family, t.bc)[0] for t in ident.lhs)
                      for ident in summed])
        extremes = dict(zip(summed, zip(*_kernel_extrema(cache.base[1], k))))
    return [_max_abs(extremes[ident] if len(ident.lhs) > 1 else
                     cache.extrema(ident.lhs[0].family, ident.lhs[0].bc)) for ident in idents]


def bound(cache: _KernelCache, ident: Identity, memo: dict) -> float:
    """A bound on the node residual ``_node_report`` would find: max |row|^2
    times the largest, over the cells of ``_CELLS``, |Q| + 16 eps sum |coef|
    |X_t| |K| |X_s| (Frobenius norms), the second term for the rounding of
    terms that cancel to Q.  ``memo`` keeps each term's matrix."""
    worst = 0.0
    for x, y in _CELLS[ident.domain]:
        Q, weight = (0.0,) * 4, 0.0
        for sign, terms in ((1.0, ident.lhs), (-1.0, ident.rhs)):
            for term in terms:
                t, s = _MAPS[term.tmap](x, 1), _MAPS[term.smap](y, 1)
                key = (term.family, term.bc, t > 1, s > 1, s <= t)
                if key not in memo:
                    Xt, Xs = (cache.row_factors[term.family][past] for past in key[2:4])
                    K = cache._branches(term.family, term.bc)[0 if key[4] else 1]
                    memo[key] = (tuple((Xt @ K @ _J @ Xs.T).ravel().tolist()),
                                 float(np.linalg.norm(Xt) * np.linalg.norm(K)
                                       * np.linalg.norm(Xs)))
                P, norms = memo[key]
                Q = tuple(q + sign * term.coef * p for q, p in zip(Q, P))
                weight += abs(term.coef) * norms
        worst = max(worst, math.hypot(*Q) + 16 * math.ulp(1.0) * weight)
    return worst * cache.row_max


def _node_report(cache: _KernelCache, ident: Identity, tol: float, scale: float) -> IdentityReport:
    """The identity evaluated at every node pair of its grid, one row slice at
    a time, each term read from its kernel's rank-2 factors; ``scale`` is its
    ``lhs_scales`` entry."""
    idx = np.arange(cache.n + 1 if ident.domain == "base" else 2 * cache.n + 1)
    kernels = {key: cache.factors(idx, *key)
               for key in dict.fromkeys(_kernel(term) for term in ident.lhs + ident.rhs)}
    ext = []
    for t in _row_slices(idx.size):
        blocks = {key: _node_block(rows_low[t], rows_up[t], B, t_idx[t], s_idx)
                  for key, (rows_low, rows_up, B, t_idx, s_idx) in kernels.items()}
        # coefficients +-1, 2 and 4 make every step of each sum exact
        lhs = sum(term.coef * blocks[_kernel(term)] for term in ident.lhs)
        diff = lhs - sum(term.coef * blocks[_kernel(term)] for term in ident.rhs)
        ext.append((np.min(diff), np.max(diff)))
    residual = _max_abs(np.array(ext))
    return IdentityReport(ident.name, cache.n, residual, scale, tol,
                          passed=residual <= tol * max(1.0, scale))


def _evaluate(cache: _KernelCache, idents, tol: float) -> list[IdentityReport]:
    """One report per identity: a skip named by its first resonant term (lhs
    before rhs); a pass with the certified bound as its residual when the
    bound meets the tolerance; else the node evaluation of ``_node_report``."""
    reports, live = {}, []
    for ident in idents:
        try:
            for term in ident.lhs + ident.rhs:
                cache._branches(term.family, term.bc)
            live.append(ident)
        except ResonanceError as exc:
            reports[ident.name] = IdentityReport(ident.name, cache.n, float("nan"),
                                                 float("nan"), tol, passed=None,
                                                 skipped=True, reason=str(exc))
    memo = {}
    for ident, scale in zip(live, lhs_scales(cache, live)):
        certified = bound(cache, ident, memo)
        reports[ident.name] = (IdentityReport(ident.name, cache.n, certified, scale, tol,
                                              passed=True)
                               if certified <= tol * max(1.0, scale) else
                               _node_report(cache, ident, tol, scale))
    return [reports[ident.name] for ident in idents]


def verify_identity(identity_id: str, p: Potential, lam: float, n: int = 100,
                    tol: float = DEFAULT_IDENTITY_TOL, *,
                    integrator_tol: float = DEFAULT_TOL) -> IdentityReport:
    """Evaluate both sides of one catalog identity and report the residual.

    Raises ResonanceError naming the constituent problem if any kernel in
    the identity is singular at this lambda, ValueError for a bad ``tol``.
    """
    _check_positive(tol, "identity tolerance")
    try:
        ident = _BY_NAME[identity_id.upper()]
    except KeyError:
        raise KeyError(f"unknown identity {identity_id!r}; "
                       f"choices: {', '.join(IDENTITY_NAMES)}") from None
    cache = _kernel_cache(p, n, lam, integrator_tol)
    for term in ident.lhs + ident.rhs:
        cache._branches(term.family, term.bc)
    return _evaluate(cache, (ident,), tol)[0]


def verify_all(p: Potential, lam: float, n: int = 100,
               tol: float = DEFAULT_IDENTITY_TOL, *,
               integrator_tol: float = DEFAULT_TOL) -> list[IdentityReport]:
    """Run the whole catalog, recording a skip for resonant constituents."""
    _check_positive(tol, "identity tolerance")
    return _evaluate(_kernel_cache(p, n, lam, integrator_tol), CATALOG, tol)
