"""Same-numbers check: one SHA-256 per section over public results.

Run it from the repository root against any checkout's sources:

    PYTHONPATH=src python tests/same_numbers.py

It uses only the public API (``hillgreen.__all__``) and the command line
(``python -m hillgreen``), so it runs unchanged against an older ``src/``;
two checkouts that print the same line for a section compute every result
of that section to the last bit.  Floats are hashed by their hex form and
arrays by dtype, shape and bytes.  A call that raises contributes its
exception class, and its message unless it is a ``DomainError``.  pytest
does not collect this file.

Cases: ex1-ex4, a cosine and a step; lambda from -20 to 7.3; n in
{7, 60, 300}.  Sections: kernels (tables, ``table_slice``, ``G.value``,
``kernel_value``, ``classify_sign``, closed forms); catalog and dominance;
BVP values and scalar/array u, u'; spectra and sweep samples;
``Potential.eval`` and ``trajectory`` reads; spectral relations (the
verdicts and values of ``verify_spectral_decomposition``,
``first_eigenvalue_relations`` and ``verify_interlacing``, read by field so
that a record's layout can change under the hash, at two counts); the
command line (stdout, stderr, exit code and any ``--output`` file of a fixed
command set).  The catalog section is also printed with ``lhs_scale`` left
out, and the spectra section with each spectrum's ``audit`` and
``dirichlet_zero_count`` at every lambda included.  The ``reads`` section
moved when ``fundamental_solutions`` became the Magnus basis that kernels
read; the audit's own DOP853 samples did not, and the audit section pins them.
"""

import hashlib
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from hillgreen import (BC_ALL, DOMINANCE_RELATIONS, DomainError, Potential, build_green,
                       classify_sign, closed_form_constant, dirichlet_zero_count,
                       discriminant_samples, find_eigenvalues, first_eigenvalue_relations,
                       fundamental_solutions, kernel_value, load_builtin, solve_bvp, table_slice,
                       verify_all, verify_dominance, verify_interlacing,
                       verify_spectral_decomposition)

POTENTIALS = {**{name: load_builtin(name) for name in ("ex1", "ex2", "ex3", "ex4")},
              "cosine": Potential.cosine(1.3, c0=0.4, c1=0.9, omega=2.1),
              "step": Potential.piecewise_constant([0.0, 0.7, 1.5, 2.0], [1.0, -0.5, 2.0])}
LAMS = (-20.0, -0.7, 0.3, 2.0, 7.3)
NS = (7, 60, 300)


def _feed(h, obj) -> None:
    """Hash ``obj`` by type and value: floats by hex, arrays by their bytes."""
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()}".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif isinstance(obj, bytes):
        h.update(f"y{len(obj)}:".encode() + obj)
    elif obj is None:
        h.update(b"n")
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for key in sorted(obj, key=str):
            _feed(h, str(key))
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        raise TypeError(f"cannot hash {type(obj).__name__}")


def _call(fn, *args, **kwargs):
    """fn's result, or its exception as (class name, message or None)."""
    try:
        return fn(*args, **kwargs)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return ("raised", type(exc).__name__, None if isinstance(exc, DomainError) else str(exc))


def _points(L: float) -> list[float]:
    """Reads of [0, L]: interior points, both ends, -0.0, within the slack past
    each end, and points the domain rule refuses."""
    slack = 1e-12 * (1.0 + L)
    return [0.0, -0.0, L, 0.3 * L, 0.5 * L, 0.77 * L, -0.5 * slack, L + 0.5 * slack,
            -2.0 * slack, L + 2.0 * slack, math.nan, math.inf, -math.inf]


def kernels(h) -> None:
    for name, p in POTENTIALS.items():
        L = p.domain_length
        pairs = [(t, s) for t in _points(L)[:8] for s in (0.0, 0.4 * L, L)]
        pairs += [(math.nan, 0.2 * L), (0.2 * L, math.inf), (-2.0 * L, 0.5 * L)]
        for lam in LAMS:
            for bc in BC_ALL:
                _feed(h, [name, lam, bc, [_call(kernel_value, p, lam, bc, t, s)
                                          for t, s in pairs]])
                for n in NS:
                    G = _call(build_green, p, lam, bc, n=n)
                    if isinstance(G, tuple):
                        _feed(h, G)
                        continue
                    idx = np.arange(0, n + 1, 3)
                    sign = classify_sign(G)
                    _feed(h, [G.grid, G.lower, G.upper, G.combined(), G.diagonal(),
                              G.symmetry_error(), G.meta["resonance_margin"],
                              G.meta["wronskian_drift"], table_slice(G, idx, idx[::-1]),
                              sign.as_dict(), sign.zero_locations])
                    if n != 300:
                        _feed(h, [_call(G.value, t, s) for t, s in pairs])
    for m in (0.5, 1.7, 3.1):
        for L in (1.0, 2.5):
            for bc in BC_ALL:
                for n in (7, 60):
                    G = _call(closed_form_constant, m, L, bc, n=n)
                    if isinstance(G, tuple):
                        _feed(h, G)
                        continue
                    _feed(h, [G.lower, G.upper, classify_sign(G).as_dict(),
                              [_call(G.value, t, s) for t in _points(L) for s in (0.0, 0.6 * L)]])


def catalog(h, with_scale: bool = True) -> None:
    for name, p in POTENTIALS.items():
        for lam in LAMS:
            for n in NS:
                reports = [r.as_dict() for r in verify_all(p, lam, n=n)]
                if not with_scale:
                    for r in reports:
                        del r["lhs_scale"]
                _feed(h, [name, lam, n, reports])
                if with_scale and n != 300:
                    _feed(h, [_call(verify_dominance, p, lam, rel, n=n)
                              for rel in DOMINANCE_RELATIONS])


def bvp(h) -> None:
    forcings = (lambda t: 1.0 + np.sin(3.0 * t), 0.7)
    for name, p in POTENTIALS.items():
        L = p.domain_length
        ts = np.array(_points(L)[:8] + list(np.linspace(0.0, L, 37)))
        for lam in LAMS[1:]:
            for bc in BC_ALL:
                for sigma in forcings:
                    for n in (7, 60):
                        u = _call(solve_bvp, p, lam, bc, sigma, n=n)
                        if isinstance(u, tuple):
                            _feed(h, u)
                            continue
                        _feed(h, [u.grid, u.values, u(ts), u.derivative(ts),
                                  [_call(u, t) for t in _points(L)],
                                  [_call(u.derivative, t) for t in _points(L)],
                                  _call(u, np.array(_points(L)[-3:]))])


def spectra(h, with_audit: bool = False) -> None:
    for name, p in POTENTIALS.items():
        for bc in BC_ALL:
            spec = find_eigenvalues(p, bc, max_count=4)
            _feed(h, [name, bc, [tuple(e) for e in spec.eigenvalues], spec.search_range])
            if with_audit:
                _feed(h, spec.audit)
        for accuracy in (1e-6, 1e-9):
            _feed(h, list(discriminant_samples(p, -2.0, 12.0, count=150, accuracy=accuracy)))
        if with_audit:
            _feed(h, [dirichlet_zero_count(p, lam) for lam in LAMS])


def reads(h) -> None:
    for name, p in POTENTIALS.items():
        L = p.domain_length
        pts = _points(L) + list(p.breakpoints) + list(np.linspace(0.0, L, 29))
        _feed(h, [[_call(p.eval, t) for t in pts], [_call(p.eval, np.array([t])) for t in pts],
                  p.eval(np.array(pts[:8])), _call(p.eval, np.array(pts))])
        for lam in LAMS:
            basis = fundamental_solutions(p, lam)
            _feed(h, [[_call(basis.trajectory, t) for t in pts],
                      basis.trajectory(np.array(pts[:8]).reshape(2, 4)),
                      _call(basis.trajectory, np.array(pts))])


def relations(h) -> None:
    for name, p in POTENTIALS.items():
        first = first_eigenvalue_relations(p)
        _feed(h, [name, first["pass"], first["values"],
                  [(item["item"], item["pass"]) for item in first.get("items", [])]])
        for count in (2, 5):
            split = verify_spectral_decomposition(p, count=count)
            fields = ("lhs", "rhs", "max_diff", "pass", "search_range")
            _feed(h, [count, split["pass"],
                      [[e[key] for key in fields] for e in split["equalities"]]])
            lace = verify_interlacing(p, count=count)
            _feed(h, [lace["pass"], {key: c["pass"] for key, c in lace.get("chains", {}).items()},
                      lace.get("pair_parity_pass"), lace.get("observations")])


# hillgreen commands; FILE stands for an --output path
COMMANDS = (
    "green --potential ex3 --lambda 0.3 --bc N --n 60",
    "green --potential ex3 --lambda 0.3 --bc A --n 60 --format json",
    "green --potential ex1 --lambda -0.7 --bc M2 --n 300",
    "green --potential ex4 --lambda 2 --bc P --n 40 --format json --output FILE",
    "green --potential ex2 --lambda -20 --bc D --n 33",
    "green --potential ex3 --lambda 0.0 --bc P --n 20",
    "compare --potential ex3 --lambda 0.3",
    "compare --potential ex3 --lambda -50",
    "compare --potential ex4 --lambda 2 --n 120",
    "examples --all --strict",
    "spectrum --potential ex4 --bc all --count 4",
    "spectrum --potential ex4 --bc all --count 4 --format json",
    "spectrum --potential ex4 --bc all --count 4 --output FILE",
    "sweep --potential ex3 --range 0 10 --points 50",
    "sweep --potential ex3 --range 0 10 --points 50 --intervals",
)


def cli(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for command in COMMANDS:
            argv = [str(out) if word == "FILE" else word for word in command.split()]
            run = subprocess.run([sys.executable, "-m", "hillgreen", *argv], capture_output=True)
            _feed(h, [command, run.returncode, run.stdout, run.stderr,
                      out.read_bytes() if out.exists() else None])
            out.unlink(missing_ok=True)


def main() -> None:
    sections = (("kernels", kernels), ("catalog and dominance", catalog),
                ("catalog, lhs_scale left out", lambda h: catalog(h, with_scale=False)),
                ("bvp", bvp), ("spectra and sweep", spectra),
                ("spectra and sweep, audit included", lambda h: spectra(h, with_audit=True)),
                ("reads", reads), ("spectral relations", relations), ("cli", cli))
    for label, fill in sections:
        h = hashlib.sha256()
        fill(h)
        print(f"{h.hexdigest()}  {label}")


if __name__ == "__main__":
    main()
