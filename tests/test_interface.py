"""The public surface, pinned: dropping or renaming a name or a flag fails here."""

import argparse

import pytest

import hillgreen
from hillgreen import comparison, greens, identities, integrator, potential, spectrum
from hillgreen.cli import build_parser

PUBLIC_NAMES = [
    "BC_ALL", "BUILTIN_NAMES", "BoundaryCondition", "BvpSolution", "CATALOG",
    "COMPARISON_THEOREMS", "DEFAULT_TOL", "DOMINANCE_RELATIONS", "DomainError",
    "Eigenvalue", "GreensFunction", "HillgreenError", "HypothesisNotMet",
    "IDENTITY_NAMES", "Identity", "IdentityReport", "IntegrationError", "PoleError",
    "Potential", "ResonanceError", "SignReport", "SolutionBasis", "Spectrum", "Term",
    "boundary_residual", "build_green", "classify_sign", "clear_cache",
    "closed_form_constant", "dirichlet_zero_count", "discriminant",
    "discriminant_samples", "endpoint_scan", "estimate_diagonal_jump",
    "find_eigenvalues", "first_eigenvalue_relations", "fundamental_solutions",
    "kernel_value", "load_builtin", "neumann_extension_residual",
    "predicted_sign_interval", "sign_threshold_consistency", "solve_bvp",
    "stability_intervals", "table_slice", "verify_all", "verify_dominance",
    "verify_identity", "verify_interlacing", "verify_monotonicity",
    "verify_solution_comparison", "verify_spectral_decomposition", "zero_set_check",
]

_COMMON = ["--T", "--help", "--output", "--potential", "--tol", "-h"]

CLI_FLAGS = {
    "spectrum": _COMMON + ["--bc", "--count", "--count-in-range", "--format", "--method",
                           "--n-scan", "--range"],
    "green": _COMMON + ["--bc", "--format", "--lambda", "--n"],
    "verify": _COMMON + ["--format", "--identity", "--identity-tol", "--lambda", "--n",
                         "--strict"],
    "compare": _COMMON + ["--format", "--lambda", "--n", "--relation", "--strict"],
    "sweep": _COMMON + ["--format", "--intervals", "--points", "--range"],
    "examples": ["--all", "--format", "--help", "--match-tol", "--n-scan", "--output",
                 "--strict", "--tol", "--which", "-h"],
}


def test_public_names():
    assert sorted(hillgreen.__all__) == PUBLIC_NAMES
    assert all(hasattr(hillgreen, name) for name in hillgreen.__all__)


@pytest.mark.parametrize("module", [potential, integrator, greens, identities, comparison,
                                    spectrum], ids=lambda m: m.__name__)
def test_module_exports_exist(module):
    # a stale entry breaks `from module import *` and hides a name from the bench tracer
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_cli_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(flag for action in sp._actions for flag in action.option_strings)
           for name, sp in sub.choices.items()}
    assert got == {name: sorted(flags) for name, flags in CLI_FLAGS.items()}
