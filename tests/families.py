"""Whole kernel tables of the identity catalog's kernel families.

``family_green`` forms the table ``build_green`` would form for a family,
each node pair's entry picked from the two whole-square branch products,
but from the monodromy and node states that ``greens._KernelCache``
derives from the base basis, so a reference built from it checks the
catalog's sliced evaluation bit for bit. Whether those derived states are
right is checked separately, against the family's potential integrated
directly (``test_identities.test_derived_families_match_direct_integration``).
"""

import numpy as np

from hillgreen.greens import _FAMILIES, BoundaryCondition, GreensFunction, _factors, _kernel_cache
from hillgreen.integrator import DEFAULT_TOL


def family_green(p, lam, family, bc, n, tol=DEFAULT_TOL):
    """The kernel of ``family`` ("even2", "even4", "refl") under ``bc`` on the
    family's nodes 0..min(2n, pieces), the only ones the catalog reads, as a
    GreensFunction without branches. Raises ResonanceError as build_green does.
    """
    cache = _kernel_cache(p, n, lam, tol)
    states = cache._family(family)[1]
    bc = BoundaryCondition.parse(bc)
    k_low, k_up, _ = cache._branches(family, bc.value)
    A, B = _factors(states, states)
    factor = _FAMILIES[family][0]
    nodes = states.shape[1]
    grid = np.linspace(0.0, factor * cache.L, factor * n + 1)[:nodes]
    table = np.where(np.tri(nodes, dtype=bool), A.T @ k_low @ B, A.T @ k_up @ B)
    return GreensFunction(bc=bc, length=factor * cache.L, lam=float(lam), n=nodes - 1,
                          grid=grid, table=table, branches=None)
