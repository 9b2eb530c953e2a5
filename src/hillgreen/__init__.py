"""Green's functions, spectra and comparison principles for Hill operators.

The operator is u'' + (a(t) + lambda) u on [0, T] under periodic,
anti-periodic, Neumann, Dirichlet and the two mixed boundary conditions.
Everything reduces to the fundamental solutions of the initial value
problem; kernels, eigenvalues, decomposition identities and sign-based
comparison principles are built on top of them.
"""

from .comparison import (COMPARISON_THEOREMS, DOMINANCE_RELATIONS, SignReport,
                         classify_sign, predicted_sign_interval,
                         sign_threshold_consistency, verify_dominance,
                         verify_monotonicity, verify_solution_comparison,
                         zero_set_check)
from .errors import (DomainError, HillgreenError, HypothesisNotMet,
                     IntegrationError, PoleError, ResonanceError)
from .greens import (BC_ALL, BoundaryCondition, BvpSolution, GreensFunction,
                     boundary_residual, build_green, closed_form_constant,
                     estimate_diagonal_jump, kernel_value, solve_bvp,
                     table_slice)
from .identities import (CATALOG, IDENTITY_NAMES, Identity, IdentityReport,
                         Term, verify_all, verify_identity)
from .integrator import (DEFAULT_TOL, SolutionBasis, clear_cache, discriminant,
                         endpoint_scan, fundamental_solutions)
from .potential import BUILTIN_NAMES, Potential, load_builtin
from .spectrum import (Eigenvalue, Spectrum, dirichlet_zero_count,
                       discriminant_samples, find_eigenvalues,
                       first_eigenvalue_relations, neumann_extension_residual,
                       stability_intervals, verify_interlacing,
                       verify_spectral_decomposition)

__version__ = "0.1.0"

__all__ = [
    "BC_ALL",
    "BUILTIN_NAMES",
    "BoundaryCondition",
    "BvpSolution",
    "CATALOG",
    "COMPARISON_THEOREMS",
    "DEFAULT_TOL",
    "DOMINANCE_RELATIONS",
    "DomainError",
    "Eigenvalue",
    "GreensFunction",
    "HillgreenError",
    "HypothesisNotMet",
    "IDENTITY_NAMES",
    "Identity",
    "IdentityReport",
    "IntegrationError",
    "PoleError",
    "Potential",
    "ResonanceError",
    "SignReport",
    "SolutionBasis",
    "Spectrum",
    "Term",
    "boundary_residual",
    "build_green",
    "classify_sign",
    "clear_cache",
    "closed_form_constant",
    "dirichlet_zero_count",
    "discriminant",
    "discriminant_samples",
    "endpoint_scan",
    "estimate_diagonal_jump",
    "find_eigenvalues",
    "first_eigenvalue_relations",
    "fundamental_solutions",
    "kernel_value",
    "load_builtin",
    "neumann_extension_residual",
    "predicted_sign_interval",
    "sign_threshold_consistency",
    "solve_bvp",
    "stability_intervals",
    "table_slice",
    "verify_all",
    "verify_dominance",
    "verify_identity",
    "verify_interlacing",
    "verify_monotonicity",
    "verify_solution_comparison",
    "verify_spectral_decomposition",
    "zero_set_check",
]
