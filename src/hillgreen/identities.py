"""Grid verification of the kernel decomposition identities.

Each identity relates a kernel on [0, T] to kernels of the even extension
on [0, 2T] (one of them to the doubled extension on [0, 4T]).  Both sides
are built independently, the left from that boundary condition's own
construction and the right from extension kernels, so agreement is
evidence rather than bookkeeping: every kernel's coefficients come from its
own condition on its own family's solution basis, and no term is folded
into another.

Evaluation is node exact: the base grid t_i = i T/n embeds into the 2T
grid (2n pieces) and the 4T grid (4n pieces) with identical spacing, so a
transformed argument such as 2T - t lands exactly on node 2n - i and no
interpolation enters the residual.  A term is read straight from the
kernel's rank-2 factors, G(t, s) = row(t) . K . col(s): the solution states
at the family's grid nodes (the same ``np.linspace`` nodes as
``build_green``, memoized by the basis) give row and col, and only the node
block the term reads is formed, so no full kernel table is built.  A term's
coefficient is folded into the kernel's 2x2 branch matrices (exactly: the
coefficients are +-1, 2 and 4), each block is added into its side's one
array, and each branch mask is made once per cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError
from .greens import (BoundaryCondition, _branch_matrices, _check_n, _factors, _max_abs,
                     _node_block, _node_extrema)
from .integrator import DEFAULT_TOL, fundamental_solutions
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

# Kernel families used by the catalog.  The grid factor keeps the node
# spacing T/n shared across intervals.
#   base   a          on [0, T],  n    pieces
#   even2  a~         on [0, 2T], 2 n  pieces
#   even4  (a~)~      on [0, 4T], 4 n  pieces
#   refl   a(T - .)   on [0, T],  n    pieces
_FAMILY_FACTOR = {"base": 1, "even2": 2, "even4": 4, "refl": 1}

_FAMILY_LABEL = {
    "base": "base interval",
    "even2": "even extension",
    "even4": "doubled even extension",
    "refl": "reflected potential",
}


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


class _KernelCache:
    """Rank-2 kernel factors for a fixed (p, lambda, n), shared by every term
    and by the dominance and solution comparison checks.

    Every family derives from p restricted to [0, length].  Per family it
    holds one solution basis and its states at the family's grid nodes
    0..min(2n, pieces), the nodes ``build_green`` would use and the only
    ones an argument map reaches; per (family, bc) the branch matrices
    (k_low, k_up), or the resonance that rules the kernel out, raised again
    on every request; per pair of argument maps the branch mask.
    """

    def __init__(self, p: Potential, length: float | None, n: int, lam: float, tol: float):
        self.n = int(n)
        self.lam = float(lam)
        self.tol = float(tol)
        L = float(p.domain_length if length is None else length)
        base = p if length is None else p.restrict(L)
        even = base.even_extension()
        self.specs = {
            "base": (base, L),
            "even2": (even, 2.0 * L),
            "even4": (even.even_extension(), 4.0 * L),
            "refl": (base.reflect(), L),
        }
        self._families: dict = {}
        self._matrices: dict = {}
        self._masks: dict = {}

    def _family(self, family: str):
        """(solution basis, its states at the family's nodes 0..min(2n, pieces))."""
        hit = self._families.get(family)
        if hit is None:
            pot, L = self.specs[family]
            pieces = _FAMILY_FACTOR[family] * self.n
            _check_n(pieces)
            basis = fundamental_solutions(pot, self.lam, L, self.tol)
            states = basis._node_states(pieces, min(pieces, 2 * self.n) + 1)
            hit = self._families[family] = (basis, states)
        return hit

    def _branches(self, family: str, bc: str):
        key = (family, bc)
        hit = self._matrices.get(key)
        if hit is None:
            bc = BoundaryCondition.parse(bc)
            try:
                k_low, k_up, _ = _branch_matrices(self._family(family)[0], bc)
                hit = ("ok", (k_low, k_up))
            except ResonanceError as exc:
                L = self.specs[family][1]
                msg = (f"{bc.condition} problem on [0, {L:g}] ({_FAMILY_LABEL[family]}) "
                       f"is resonant at lambda = {self.lam!r}")
                hit = ("resonant", (msg, exc.determinant, bc))
            self._matrices[key] = hit
        kind, payload = hit
        if kind == "resonant":
            msg, det, rbc = payload
            raise ResonanceError(msg, determinant=det, bc=rbc, lam=self.lam)
        return payload

    def block(self, term: Term, idx: np.ndarray) -> np.ndarray:
        """coef * G_bc[family](tmap(t), smap(s)) over the node indices idx."""
        k_low, k_up = self._branches(term.family, term.bc)
        t_idx, s_idx = _mapped(term.tmap, idx, self.n), _mapped(term.smap, idx, self.n)
        key = (term.tmap, term.smap, idx.size)
        mask = self._masks.get(key)
        if mask is None:
            mask = self._masks[key] = s_idx[None, :] <= t_idx[:, None]
        states = self._family(term.family)[1]
        A, B = _factors(states[:, t_idx], states[:, s_idx])
        # the catalog's coefficients are +-1, 2 and 4: scaling K by one is exact
        return _node_block(A.T @ (term.coef * k_low), A.T @ (term.coef * k_up), B,
                           t_idx, s_idx, mask)

    def extrema(self, family: str, bc: str) -> tuple[float, float]:
        """(min, max) of G_bc[family] over the family's nodes 0..min(2n, pieces)."""
        k_low, k_up = self._branches(family, bc)
        return _node_extrema(self._family(family)[1], k_low, k_up)


def _mapped(name: str, idx: np.ndarray, n: int) -> np.ndarray:
    if name == "id":
        return idx
    if name == "r2":
        return 2 * n - idx
    if name == "rT":
        return n - idx
    raise ValueError(f"unknown argument map {name!r}")


def _evaluate_side(terms, cache: _KernelCache, domain: str) -> np.ndarray:
    """Sum of coef * block over the terms, in a fresh array."""
    idx = np.arange(2 * cache.n + 1 if domain == "even2" else cache.n + 1)
    total = cache.block(terms[0], idx)
    for term in terms[1:]:
        total += cache.block(term, idx)
    return total


def _verify_with_cache(ident: Identity, cache: _KernelCache, tol: float) -> IdentityReport:
    lhs = _evaluate_side(ident.lhs, cache, ident.domain)
    rhs = _evaluate_side(ident.rhs, cache, ident.domain)
    scale = _max_abs(lhs)
    lhs -= rhs
    residual = _max_abs(lhs)
    return IdentityReport(ident.name, cache.n, residual, scale, tol,
                          passed=residual <= tol * max(1.0, scale))


def verify_identity(identity_id: str, p: Potential, lam: float, n: int = 100,
                    tol: float = DEFAULT_IDENTITY_TOL, length: float | None = None,
                    integrator_tol: float = DEFAULT_TOL) -> IdentityReport:
    """Evaluate both sides of one catalog identity and report the residual.

    Raises ResonanceError naming the constituent problem if any kernel in
    the identity is singular at this lambda.
    """
    try:
        ident = _BY_NAME[identity_id.upper()]
    except KeyError:
        raise KeyError(f"unknown identity {identity_id!r}; "
                       f"choices: {', '.join(IDENTITY_NAMES)}") from None
    cache = _KernelCache(p, length, n, lam, integrator_tol)
    return _verify_with_cache(ident, cache, tol)


def verify_all(p: Potential, lam: float, n: int = 100,
               tol: float = DEFAULT_IDENTITY_TOL, length: float | None = None,
               integrator_tol: float = DEFAULT_TOL) -> list[IdentityReport]:
    """Run the whole catalog, recording a skip for resonant constituents."""
    cache = _KernelCache(p, length, n, lam, integrator_tol)
    reports = []
    for ident in CATALOG:
        try:
            reports.append(_verify_with_cache(ident, cache, tol))
        except ResonanceError as exc:
            reports.append(IdentityReport(ident.name, cache.n, float("nan"),
                                          float("nan"), tol, passed=None,
                                          skipped=True, reason=str(exc)))
    return reports
