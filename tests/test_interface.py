"""The public surface, pinned: dropping or renaming a name or a flag fails here."""

import argparse
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    "build_green", "classify_sign", "clear_cache", "closed_form_constant",
    "dirichlet_zero_count", "discriminant", "discriminant_samples", "endpoint_scan",
    "find_eigenvalues", "first_eigenvalue_relations", "fundamental_solutions",
    "kernel_value", "load_builtin", "predicted_sign_interval", "sign_threshold_consistency", "solve_bvp",
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


# A problem on [0, T] is posed as ``p.restrict(T)``, so no function that takes
# a potential takes a length. The parameters listed here are keyword-only: a
# call that still passes a length positionally raises TypeError instead of
# filling the next slot.
AFTER_LENGTH = {
    "fundamental_solutions": ["tol"], "discriminant": ["tol"], "endpoint_scan": ["accuracy"],
    "build_green": ["tol"], "kernel_value": ["tol"], "solve_bvp": ["tol"],
    "verify_identity": ["integrator_tol"], "verify_all": ["integrator_tol"],
    "predicted_sign_interval": ["n_scan", "integrator_tol"],
    "sign_threshold_consistency": ["n_scan", "integrator_tol"],
    "verify_dominance": ["integrator_tol"], "verify_solution_comparison": ["integrator_tol"],
    "verify_monotonicity": ["integrator_tol"],
    "find_eigenvalues": ["integrator_tol", "method"],
    "dirichlet_zero_count": ["tol", "npts"], "discriminant_samples": ["accuracy"],
    "verify_spectral_decomposition": ["integrator_tol"],
    "first_eigenvalue_relations": ["n_scan", "integrator_tol"],
    "verify_interlacing": ["margin", "integrator_tol"],
    "stability_intervals": ["integrator_tol"],
}


@pytest.mark.parametrize("name", sorted(AFTER_LENGTH))
def test_no_length_option(name):
    params = inspect.signature(getattr(hillgreen, name)).parameters
    assert "length" not in params
    assert [params[p].kind for p in AFTER_LENGTH[name]] == \
        [inspect.Parameter.KEYWORD_ONLY] * len(AFTER_LENGTH[name])


def test_length_kept_only_without_a_potential(cos_pi):
    assert "length" in inspect.signature(hillgreen.closed_form_constant).parameters
    assert "extend" not in inspect.signature(hillgreen.discriminant_samples).parameters
    with pytest.raises(TypeError):
        hillgreen.endpoint_scan(cos_pi, [0.0, 1.0], 1.0)


def _python(*args):
    """A fresh interpreter that imports hillgreen from where this one does."""
    src = str(Path(hillgreen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_out_scipy_interpolate():
    # only table pieces interpolate, and scipy.interpolate is slow to import
    out = _python("-c", "import sys, hillgreen; print('scipy.interpolate' in sys.modules)")
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def test_python_m_hillgreen_runs_the_cli():
    out = _python("-m", "hillgreen", "--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: hillgreen")


# Every grid size, n or n_scan, takes one rule: an int, NumPy integer or
# integral float of at least 1 is read as that int; anything else raises a
# ValueError that names the argument.
_COS_PI = hillgreen.Potential.cosine(math.pi)
GRID_SIZE_ENTRIES = {
    "build_green": ("n", lambda n: hillgreen.build_green(_COS_PI, -0.36, "D", n=n)
                    .combined().tolist()),
    "closed_form_constant": ("n", lambda n: hillgreen.closed_form_constant(2.0, 1.0, "D", n=n)
                             .combined().tolist()),
    "solve_bvp": ("n", lambda n: hillgreen.solve_bvp(_COS_PI, -0.36, "N", 1.0, n=n)
                  .values.tolist()),
    "verify_all": ("n", lambda n: [r.as_dict() for r in hillgreen.verify_all(_COS_PI, -0.36,
                                                                             n=n)]),
    "verify_identity": ("n", lambda n: hillgreen.verify_identity("NP", _COS_PI, -0.36, n=n)
                        .as_dict()),
    "verify_dominance": ("n", lambda n: hillgreen.verify_dominance(_COS_PI, -0.36, "nd_nonneg",
                                                                   n=n)),
    "verify_solution_comparison": ("n", lambda n: hillgreen.verify_solution_comparison(
        _COS_PI, -0.36, "nd_nonneg", 1.0, 0.5, n=n)),
    "find_eigenvalues": ("n_scan", lambda n: hillgreen.find_eigenvalues(
        _COS_PI, "D", max_count=2, n_scan=n).values()),
}


@pytest.mark.parametrize("entry", sorted(GRID_SIZE_ENTRIES))
def test_grid_sizes_take_one_integer_rule(entry):
    name, call = GRID_SIZE_ENTRIES[entry]
    want = call(10)
    for n in (10.0, np.int64(10), np.float64(10.0)):
        assert call(n) == want, (entry, n)
    for bad in (10.5, float("nan"), float("inf"), "10", None, True, np.bool_(True),
                0, -3, 0.0):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(bad)
