"""Command-line front end.

Exit codes: 0 success, 1 verification failure under --strict, 2 usage or
malformed input, 3 resonance or integration trouble.  Outputs are
deterministic: identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .comparison import (DOMINANCE_RELATIONS, classify_sign, verify_dominance)
from .errors import HypothesisNotMet, IntegrationError, PoleError, ResonanceError
from .greens import BC_ALL, build_green
from .identities import (DEFAULT_IDENTITY_TOL, IDENTITY_NAMES, verify_all,
                         verify_identity)
from .integrator import DEFAULT_TOL, _check_positive, _check_tol
from .potential import BUILTIN_NAMES, Potential, load_builtin
from .spectrum import (DEFAULT_SCAN, Spectrum, discriminant_samples, find_eigenvalues,
                       stability_intervals)

__all__ = ["main"]


class UsageError(Exception):
    pass


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _load_potential(spec: str) -> Potential:
    path = Path(spec)
    try:
        if path.exists():
            return Potential.from_file(path)
        stem = path.name[:-5] if path.name.endswith(".json") else path.name
        if stem in BUILTIN_NAMES:
            return load_builtin(stem)
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"bad potential descriptor {spec}: {exc}") from exc
    raise UsageError(f"potential file not found: {spec}")


def _base(args: argparse.Namespace) -> Potential:
    p = _load_potential(args.potential)
    return p if args.T is None else p.restrict(args.T)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)!r}")


def _emit(text: str, output: Path | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _emit_json(obj, output: Path | None) -> None:
    _emit(json.dumps(obj, indent=2, default=_json_default), output)


# -- spectrum ---------------------------------------------------------------

def _cmd_spectrum(args: argparse.Namespace) -> int:
    p = _base(args)
    bcs = BC_ALL if args.bc == "all" else (args.bc,)
    rng = tuple(args.range) if args.range else None
    count = args.count if rng is None else args.count_in_range
    spectra = {}
    for bc in bcs:
        spectra[bc] = find_eigenvalues(
            p, bc, search_range=rng, max_count=count, n_scan=args.n_scan,
            integrator_tol=args.tol, method=args.method)
    if args.format == "json":
        payload = {
            "potential": p.descriptor_hash(),
            "T": p.domain_length,
            "search_range": list(rng) if rng else None,
            "spectra": {bc: [{"k": e.index, "lambda": e.value,
                              "multiplicity": e.multiplicity}
                             for e in s.eigenvalues]
                        for bc, s in spectra.items()},
        }
        _emit_json(payload, args.output)
    else:
        _emit(Spectrum.CSV_HEADER + "".join(s.csv_rows() for s in spectra.values()),
              args.output)
    return 0


# -- green ------------------------------------------------------------------

def _cmd_green(args: argparse.Namespace) -> int:
    p = _base(args)
    G = build_green(p, args.lam, args.bc, n=args.n, tol=args.tol)
    if args.format == "json":
        payload = {
            "bc": G.bc.value,
            "lambda": G.lam,
            "T": G.length,
            "n": G.n,
            "grid": G.grid.tolist(),
            "values": G.combined().tolist(),
            "symmetry_error": G.symmetry_error(),
            "resonance_margin": G.meta["resonance_margin"],
        }
        _emit_json(payload, args.output)
    else:
        _emit(G.csv_text(), args.output)
    return 0


# -- verify -----------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    p = _base(args)
    if args.identity:
        reports = [verify_identity(name, p, args.lam, n=args.n,
                                   tol=args.identity_tol, integrator_tol=args.tol)
                   for name in args.identity]
    else:
        reports = verify_all(p, args.lam, n=args.n, tol=args.identity_tol,
                             integrator_tol=args.tol)
    rows = [r.as_dict() for r in reports]
    if args.format == "csv":
        lines = ["id,n,residual,lhs_scale,pass,skipped,reason"]
        for r in rows:
            res = "" if r["residual"] is None else repr(float(r["residual"]))
            scale = "" if r["lhs_scale"] is None else repr(float(r["lhs_scale"]))
            ok = "" if r["pass"] is None else str(r["pass"]).lower()
            reason = (r["reason"] or "").replace(",", ";")
            lines.append(f"{r['id']},{r['n']},{res},{scale},{ok},"
                         f"{str(r['skipped']).lower()},{reason}")
        _emit("\n".join(lines), args.output)
    else:
        _emit_json({"lambda": args.lam, "n": args.n, "tol": args.identity_tol,
                    "reports": rows}, args.output)
    failed = [r for r in rows if r["pass"] is False]
    if args.strict and failed:
        return 1
    return 0


# -- compare ----------------------------------------------------------------

def _cmd_compare(args: argparse.Namespace) -> int:
    p = _base(args)
    classifications = {}
    for bc in ("P", "N", "D", "M1", "M2"):
        try:
            G = build_green(p, args.lam, bc, n=args.n, tol=args.tol)
            classifications[bc] = classify_sign(G).as_dict()
        except ResonanceError as exc:
            classifications[bc] = {"resonant": True, "reason": str(exc)}
    relations = args.relation or sorted(DOMINANCE_RELATIONS)
    results = []
    for name in relations:
        try:
            results.append(verify_dominance(p, args.lam, name, n=args.n,
                                            integrator_tol=args.tol))
        except HypothesisNotMet as exc:
            results.append({"relation": name, "skipped": True,
                            "reason": str(exc), "pass": None})
    payload = {"lambda": args.lam, "n": args.n,
               "classifications": classifications, "relations": results}
    _emit_json(payload, args.output)
    failed = [r for r in results if r.get("pass") is False]
    if args.strict and failed:
        return 1
    return 0


# -- sweep ------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    p = _base(args)
    lo, hi = args.range
    head = {"potential": p.descriptor_hash(), "T": p.domain_length}
    if args.intervals:
        rows = stability_intervals(p, search_range=(lo, hi),
                                   integrator_tol=DEFAULT_TOL if args.tol is None else args.tol)
        if args.format == "json":
            _emit_json({**head, "intervals": [{"lo": a, "hi": b, "kind": kind}
                                              for (a, b), kind in rows]}, args.output)
        else:
            lines = ["lo,hi,kind"]
            lines += [f"{float(a)!r},{float(b)!r},{kind}" for (a, b), kind in rows]
            _emit("\n".join(lines), args.output)
        return 0
    # the samples keep discriminant_samples' own accuracy unless --tol is given
    accuracy = {} if args.tol is None else {"accuracy": _check_tol(args.tol)}
    lams, deltas = discriminant_samples(p, lo, hi, count=args.points, **accuracy)
    if args.format == "json":
        _emit_json({**head, "lambda": lams.tolist(), "delta": deltas.tolist()},
                   args.output)
    else:
        lines = ["lambda,delta"]
        for lam, d in zip(lams, deltas):
            lines.append(f"{float(lam)!r},{float(d)!r}")
        _emit("\n".join(lines), args.output)
    return 0


# -- examples ---------------------------------------------------------------

_PI_HALF_SQ = (math.pi / 2.0) ** 2

# first eigenvalues quoted to the digits shown in the source tables; the
# P and A rows are those of the even extension on [0, 2T]
_EXPECTED = {
    1: [("lambda_N", "N", 0, 0.0), ("lambda_D", "D", 0, math.pi ** 2),
        ("lambda_M1", "M1", 0, _PI_HALF_SQ), ("lambda_M2", "M2", 0, _PI_HALF_SQ),
        ("lambda_P(2T)", "P", 0, 0.0), ("lambda_A(2T)", "A", 0, _PI_HALF_SQ)],
    2: [("lambda_N", "N", 0, -0.0508), ("lambda_M2", "M2", 0, 0.5346),
        ("lambda_M1", "M1", 0, 0.5984), ("lambda_D", "D", 0, 2.4170)],
    3: [("lambda_N", "N", 0, -0.378), ("lambda_M1", "M1", 0, -0.348),
        ("lambda_M2", "M2", 0, 0.5948), ("lambda_D", "D", 0, 0.918)],
}

_EX4_SETS = {
    "N": [-0.1218, 0.47065, 4.1009],
    "D": [1.4668, 3.9792],
    "M1": [0.0923, 2.34076],
    "M2": [0.0923, 2.34076],
}
_EX4_P4 = [-0.1218, 0.0923, 0.0923, 0.47065, 1.4668, 2.34076, 2.34076,
           3.9792, 4.1009]


def _check(name: str, expected: float, computed: float, tol: float) -> dict:
    err = abs(computed - expected)
    return {"name": name, "expected": expected, "computed": computed,
            "error": err, "pass": bool(err <= tol)}


def _firsts(p: Potential, bc: str, k: int, n_scan: int, tol: float) -> list:
    spec = find_eigenvalues(p, bc, max_count=k, n_scan=n_scan,
                            integrator_tol=tol)
    return spec.expanded()


def _run_example(which: int, n_scan: int, tol: float, match: float) -> dict:
    p = load_builtin(f"ex{which}")
    checks = []
    if which in _EXPECTED:
        for name, bc, k, expected in _EXPECTED[which]:
            target = p.even_extension() if bc in ("P", "A") else p
            vals = _firsts(target, bc, k + 1, n_scan, tol)
            checks.append(_check(name, expected, vals[k], match))
    else:
        for bc, values in _EX4_SETS.items():
            vals = _firsts(p, bc, len(values), n_scan, tol)
            for k, expected in enumerate(values):
                checks.append(_check(f"lambda_{bc}[{k}]", expected, vals[k], match))
        even = p.even_extension()
        spec_a = find_eigenvalues(even, "A", max_count=4, n_scan=n_scan,
                                  integrator_tol=tol)
        for e in spec_a.eigenvalues[:2]:
            checks.append(_check(f"A(2T) root {e.index} value",
                                 _EX4_SETS["M1"][e.index], e.value, match))
            checks.append({"name": f"A(2T) root {e.index} double",
                           "expected": 2, "computed": e.multiplicity,
                           "error": abs(e.multiplicity - 2),
                           "pass": e.multiplicity == 2})
        p4 = even.even_extension()
        vals = _firsts(p4, "P", len(_EX4_P4), n_scan, tol)
        for k, expected in enumerate(_EX4_P4):
            checks.append(_check(f"lambda_P(4T)[{k}]", expected, vals[k], match))
    return {"example": which, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def _cmd_examples(args: argparse.Namespace) -> int:
    _check_positive(args.match_tol, "--match-tol")
    if args.all:
        which = [1, 2, 3, 4]
    elif args.which:
        which = [args.which]
    else:
        raise UsageError("examples needs --which K or --all")
    reports = [_run_example(k, args.n_scan, args.tol, args.match_tol)
               for k in which]
    overall = all(r["pass"] for r in reports)
    if args.format == "json":
        _emit_json({"examples": reports, "pass": overall}, args.output)
    else:
        lines = []
        for r in reports:
            for c in r["checks"]:
                status = "ok" if c["pass"] else "FAIL"
                lines.append(
                    f"ex{r['example']}  {c['name']:<22} expected "
                    f"{c['expected']!r:<22} computed {c['computed']!r:<24} "
                    f"error {float(c['error']):.3e}  {status}")
            lines.append(f"ex{r['example']}  overall "
                         f"{'ok' if r['pass'] else 'FAIL'}")
        _emit("\n".join(lines), args.output)
    if args.strict and not overall:
        return 1
    return 0


# -- parser -----------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser, potential: bool = True) -> None:
    if potential:
        sp.add_argument("--potential", required=True,
                        help="JSON descriptor path or builtin name (ex1..ex4)")
        sp.add_argument("--T", type=float, default=None,
                        help="restrict the potential to [0, T]")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                    help="integrator tolerance")
    sp.add_argument("--output", type=Path, default=None,
                    help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hillgreen",
        description="Green's functions and spectra for u'' + (a(t) + lambda) u")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalues of one or all problems")
    _add_common(sp)
    sp.add_argument("--bc", choices=BC_ALL + ("all",), default="all")
    sp.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"))
    sp.add_argument("--count", type=positive_int, default=6,
                    help="how many eigenvalues when no --range is given")
    sp.add_argument("--count-in-range", type=positive_int, default=None,
                    help="optional cap when --range is given")
    sp.add_argument("--n-scan", type=positive_int, default=DEFAULT_SCAN)
    sp.add_argument("--method", choices=("auto", "union", "direct"),
                    default="auto")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_spectrum)

    gp = sub.add_parser("green", help="tabulate one Green's function")
    _add_common(gp)
    gp.add_argument("--lambda", dest="lam", type=float, required=True)
    gp.add_argument("--bc", choices=BC_ALL, required=True)
    gp.add_argument("--n", type=positive_int, default=100)
    gp.add_argument("--format", choices=("csv", "json"), default="csv")
    gp.set_defaults(func=_cmd_green)

    vp = sub.add_parser("verify", help="check the decomposition identities")
    _add_common(vp)
    vp.add_argument("--lambda", dest="lam", type=float, required=True)
    vp.add_argument("--identity", action="append", choices=IDENTITY_NAMES,
                    help="repeatable; default is the whole catalog")
    vp.add_argument("--n", type=positive_int, default=100)
    vp.add_argument("--identity-tol", type=float, default=DEFAULT_IDENTITY_TOL)
    vp.add_argument("--strict", action="store_true")
    vp.add_argument("--format", choices=("csv", "json"), default="json")
    vp.set_defaults(func=_cmd_verify)

    cp = sub.add_parser("compare", help="sign classification and dominance bounds")
    _add_common(cp)
    cp.add_argument("--lambda", dest="lam", type=float, required=True)
    cp.add_argument("--relation", action="append",
                    choices=sorted(DOMINANCE_RELATIONS),
                    help="repeatable; default tries every relation")
    cp.add_argument("--n", type=positive_int, default=60)
    cp.add_argument("--strict", action="store_true")
    cp.add_argument("--format", choices=("json",), default="json")
    cp.set_defaults(func=_cmd_compare)

    wp = sub.add_parser("sweep", help="discriminant of the doubled interval")
    _add_common(wp)
    wp.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"),
                    required=True)
    wp.add_argument("--points", type=positive_int, default=500,
                    help="discriminant samples (unused with --intervals)")
    wp.add_argument("--intervals", action="store_true",
                    help="write the stable and unstable bands (lo, hi, kind) "
                         "in place of the samples")
    wp.add_argument("--format", choices=("csv", "json"), default="csv")
    # --tol sets the samples' accuracy and the bands' integrator tolerance
    wp.set_defaults(func=_cmd_sweep, tol=None)

    ep = sub.add_parser("examples", help="reproduce the bundled example tables")
    _add_common(ep, potential=False)
    ep.add_argument("--which", type=int, choices=(1, 2, 3, 4))
    ep.add_argument("--all", action="store_true")
    ep.add_argument("--strict", action="store_true")
    ep.add_argument("--n-scan", type=positive_int, default=DEFAULT_SCAN)
    ep.add_argument("--match-tol", type=float, default=2e-3)
    ep.add_argument("--format", choices=("text", "json"), default="text")
    ep.set_defaults(func=_cmd_examples)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ResonanceError, PoleError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        # DomainError is a ValueError: every bad value is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
